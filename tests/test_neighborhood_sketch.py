"""Tests for bounded BFS, d-neighbourhoods and k-hop sketches."""

import pytest

from repro.exceptions import NodeNotFoundError
from repro.graph import (
    Graph,
    ball,
    bfs_distances,
    build_sketch,
    eccentricity,
    sketch_dominates,
)
from repro.graph.neighborhood import Neighborhoods
from repro.testing import decoded_sketch


@pytest.fixture
def chain() -> Graph:
    """a -> b -> c -> d plus a side branch b -> e."""
    graph = Graph(name="chain")
    for node, label in (("a", "L"), ("b", "L"), ("c", "M"), ("d", "M"), ("e", "N")):
        graph.add_node(node, label)
    graph.add_edge("a", "b", "e1")
    graph.add_edge("b", "c", "e1")
    graph.add_edge("c", "d", "e1")
    graph.add_edge("b", "e", "e2")
    return graph


class TestBfs:
    def test_distances_undirected(self, chain):
        distances = bfs_distances(chain, "a")
        assert distances == {"a": 0, "b": 1, "c": 2, "e": 2, "d": 3}

    def test_radius_bound(self, chain):
        assert set(bfs_distances(chain, "a", radius=1)) == {"a", "b"}

    def test_unknown_source(self, chain):
        with pytest.raises(NodeNotFoundError):
            bfs_distances(chain, "zzz")

    def test_ball_includes_center(self, chain):
        assert ball(chain, "a", 0) == {"a"}
        assert ball(chain, "a", 2) == {"a", "b", "c", "e"}

    def test_ball_negative_radius(self, chain):
        with pytest.raises(ValueError):
            ball(chain, "a", -1)

    def test_eccentricity(self, chain):
        assert eccentricity(chain, "a") == 3
        assert eccentricity(chain, "b") == 2


def d_neighborhood(graph, center, d):
    """``Gd(vx)``: the subgraph the d-ball induces."""
    return graph.induced_subgraph(ball(graph, center, d))


class TestDNeighborhood:
    def test_induced_ball(self, chain):
        sub = d_neighborhood(chain, "b", 1)
        assert set(sub.nodes()) == {"a", "b", "c", "e"}
        assert sub.has_edge("a", "b", "e1")
        assert not sub.has_node("d")

    def test_zero_radius(self, chain):
        sub = d_neighborhood(chain, "b", 0)
        assert set(sub.nodes()) == {"b"}
        assert sub.num_edges == 0

    def test_locality_property_for_paper_graph(self, g1):
        """Every node within radius d of the centre appears in Gd."""
        sub = d_neighborhood(g1, "cust1", 2)
        for node in ball(g1, "cust1", 2):
            assert sub.has_node(node)


class TestSketches:
    def test_sketch_distributions(self, chain):
        sketch = build_sketch(chain, "a", 2)
        assert sketch.prefix == ({"L": 1}, {"L": 1, "M": 1, "N": 1})
        assert sketch.total == 3
        kernel = Neighborhoods(chain)
        assert decoded_sketch(kernel, "a", kernel.sketch_handle("a", 2)) == sketch

    def test_sketch_requires_positive_hops(self, chain):
        with pytest.raises(ValueError):
            build_sketch(chain, "a", 0)
        kernel = Neighborhoods(chain)
        assert kernel.masks
        with pytest.raises(ValueError):
            kernel.sketch_handle("a", 0)

    def test_dominates_reflexive(self, chain):
        sketch = build_sketch(chain, "a", 2)
        assert sketch_dominates(sketch, sketch)

    def test_dominates_rejects_missing_labels(self, chain):
        rich = build_sketch(chain, "b", 2)
        poor = build_sketch(chain, "d", 2)
        assert sketch_dominates(rich, poor) or rich.total >= poor.total
        assert not sketch_dominates(poor, rich)

    def test_cumulative_comparison(self):
        """A candidate with the required label one hop *closer* still dominates."""
        near = Graph()
        near.add_node("x", "cust")
        near.add_node("r", "restaurant")
        near.add_edge("x", "r", "visit")
        far = Graph()
        far.add_node("x", "cust")
        far.add_node("m", "cust")
        far.add_node("r", "restaurant")
        far.add_edge("x", "m", "friend")
        far.add_edge("m", "r", "visit")
        candidate = build_sketch(near, "x", 2)
        required = build_sketch(far, "x", 2)
        # The requirement has a restaurant at hop 2; the candidate has it at
        # hop 1 but lacks the hop-1 cust, so domination must fail only due to
        # the missing cust, not the restaurant's hop position.
        assert not sketch_dominates(candidate, required)
        assert sketch_dominates(required, required)

    def test_a_larger_total_does_not_imply_domination(self, chain):
        """b sees more nodes than e within two hops, but e's two L nodes (a, b)
        are more than b's one (a): only the per-label counts decide."""
        rich = build_sketch(chain, "b", 2)
        poor = build_sketch(chain, "e", 2)
        assert rich.total > poor.total
        assert not sketch_dominates(rich, poor)
        assert sketch_dominates(poor, poor)
