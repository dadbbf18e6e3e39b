"""Unit tests for the property-graph substrate."""

import random

import pytest

from repro.exceptions import EdgeNotFoundError, GraphError, NodeNotFoundError
from repro.graph import Graph, GraphBuilder
from repro.testing import structure_equal


@pytest.fixture
def toy() -> Graph:
    graph = Graph(name="toy")
    graph.add_node("a", "cust")
    graph.add_node("b", "cust")
    graph.add_node("r", "restaurant")
    graph.add_edge("a", "b", "friend")
    graph.add_edge("b", "a", "friend")
    graph.add_edge("a", "r", "visit")
    graph.add_edge("a", "r", "like")
    return graph


class TestNodes:
    def test_add_and_count(self, toy):
        assert toy.num_nodes == 3
        assert len(toy) == 3
        assert set(toy.nodes()) == {"a", "b", "r"}

    def test_labels(self, toy):
        assert toy.node_label("a") == "cust"
        assert toy.node_label("r") == "restaurant"

    def test_contains(self, toy):
        assert "a" in toy
        assert "zzz" not in toy
        assert toy.has_node("b")

    def test_readd_same_label_is_idempotent(self, toy):
        toy.add_node("a", "cust")
        assert toy.num_nodes == 3

    def test_readd_different_label_fails(self, toy):
        with pytest.raises(GraphError):
            toy.add_node("a", "restaurant")

    def test_unknown_node_label_raises(self, toy):
        with pytest.raises(NodeNotFoundError):
            toy.node_label("missing")

    def test_attrs_roundtrip(self):
        graph = Graph()
        graph.add_node("k", "keyword", {"text": "claim a prize"})
        assert graph.node_attrs("k") == {"text": "claim a prize"}
        assert graph.node_attrs("k") is not None

    def test_attrs_default_empty(self, toy):
        assert toy.node_attrs("a") == {}

    def test_attrs_unknown_node(self, toy):
        with pytest.raises(NodeNotFoundError):
            toy.node_attrs("nope")

    def test_node_items(self, toy):
        assert dict(toy.node_items())["a"] == "cust"

    def test_remove_node_removes_incident_edges(self, toy):
        toy_copy = toy.copy()
        toy_copy.remove_node("a")
        assert not toy_copy.has_node("a")
        assert toy_copy.num_edges == 0

    def test_remove_unknown_node(self, toy):
        with pytest.raises(NodeNotFoundError):
            toy.remove_node("ghost")


class TestEdges:
    def test_add_and_count(self, toy):
        assert toy.num_edges == 4

    def test_duplicate_edge_not_added(self, toy):
        assert toy.add_edge("a", "b", "friend") is False
        assert toy.num_edges == 4

    def test_parallel_edges_different_labels(self, toy):
        assert toy.has_edge("a", "r", "visit")
        assert toy.has_edge("a", "r", "like")

    def test_has_edge_any_label(self, toy):
        assert toy.has_edge("a", "r")
        assert not toy.has_edge("r", "a")

    def test_edge_to_missing_node(self, toy):
        with pytest.raises(NodeNotFoundError):
            toy.add_edge("a", "ghost", "friend")
        with pytest.raises(NodeNotFoundError):
            toy.add_edge("ghost", "a", "friend")

    def test_edges_iteration(self, toy):
        edges = {(e.source, e.target, e.label) for e in toy.edges()}
        assert ("a", "b", "friend") in edges
        assert len(edges) == 4

    def test_remove_edge(self, toy):
        toy_copy = toy.copy()
        toy_copy.remove_edge("a", "r", "like")
        assert not toy_copy.has_edge("a", "r", "like")
        assert toy_copy.has_edge("a", "r", "visit")
        assert toy_copy.num_edges == 3

    def test_remove_missing_edge(self, toy):
        with pytest.raises(EdgeNotFoundError):
            toy.remove_edge("a", "r", "hates")


class TestAdjacency:
    def test_out_neighbors(self, toy):
        assert toy.out_neighbors("a") == {"b", "r"}
        assert toy.out_neighbors("a", "visit") == {"r"}
        assert toy.out_neighbors("a", "unknown-label") == set()

    def test_in_neighbors(self, toy):
        assert toy.in_neighbors("r") == {"a"}
        assert toy.in_neighbors("a", "friend") == {"b"}

    def test_neighbors_undirected(self, toy):
        assert toy.neighbors("a") == {"b", "r"}
        assert toy.neighbors("r") == {"a"}

    def test_degrees(self, toy):
        assert len(list(toy.out_edges("a"))) == 3
        assert len(list(toy.in_edges("a"))) == 1
        assert toy.out_neighbors("a", "friend") == {"b"}

    def test_degree_of_missing_node(self, toy):
        with pytest.raises(NodeNotFoundError):
            toy.out_neighbors("missing")
        with pytest.raises(NodeNotFoundError):
            toy.in_neighbors("missing")

    def test_has_out_edge_labeled(self, toy):
        assert toy.out_neighbors("a", "visit")
        assert not toy.out_neighbors("b", "visit")

    def test_in_out_edges(self, toy):
        assert {e.label for e in toy.out_edges("a")} == {"friend", "visit", "like"}
        assert {e.source for e in toy.in_edges("r")} == {"a"}


class TestLabelIndex:
    def test_nodes_with_label(self, toy):
        assert toy.nodes_with_label("cust") == {"a", "b"}
        assert toy.nodes_with_label("missing") == set()

    def test_count_nodes_with_label(self, toy):
        assert len(toy.nodes_with_label("cust")) == 2

    def test_label_sets(self, toy):
        assert toy.node_labels() == {"cust", "restaurant"}
        assert toy.edge_labels() == {"friend", "visit", "like"}

    def test_node_label_counts(self, toy):
        assert toy.node_label_counts() == {"cust": 2, "restaurant": 1}

    def test_label_index_updated_on_removal(self, toy):
        toy_copy = toy.copy()
        toy_copy.remove_node("r")
        assert toy_copy.nodes_with_label("restaurant") == set()
        assert "restaurant" not in toy_copy.node_labels()


class TestDerivedGraphs:
    def test_copy_is_structurally_equal(self, toy):
        clone = toy.copy()
        assert structure_equal(clone, toy)
        clone.add_node("z", "cust")
        assert not structure_equal(clone, toy)

    def test_copy_is_independent(self, toy):
        clone = toy.copy()
        clone.remove_edge("a", "b", "friend")
        assert toy.has_edge("a", "b", "friend")

    def test_induced_subgraph_keeps_internal_edges(self, toy):
        sub = toy.induced_subgraph({"a", "b"})
        assert sub.num_nodes == 2
        assert sub.has_edge("a", "b", "friend")
        assert sub.has_edge("b", "a", "friend")
        assert not sub.has_node("r")

    def test_induced_subgraph_missing_node(self, toy):
        with pytest.raises(NodeNotFoundError):
            toy.induced_subgraph({"a", "ghost"})

    def test_structure_equal_rejects_non_graph(self, toy):
        assert structure_equal(toy, object()) is False

    def test_repr_mentions_counts(self, toy):
        assert "nodes=3" in repr(toy)


def _random_graph(seed: int) -> Graph:
    """Seeded random labelled graph with attributes, self-loops and parallel labels."""
    rng = random.Random(seed)
    nodes = [(f"n{index}", rng.choice("ABC"), {"rank": index} if index % 3 else None) for index in range(40)]
    edges = [
        (f"n{rng.randrange(40)}", f"n{rng.randrange(40)}", rng.choice(("e", "f", "g")))
        for _ in range(rng.randint(0, 160))
    ]
    return Graph.from_parts(nodes, edges)


def _induced_per_edge(graph: Graph, keep: set) -> Graph:
    """The oracle: the induced subgraph built one node and one edge at a time."""
    return Graph.from_parts(
        ((node, graph.node_label(node), graph.node_attrs(node) or None) for node in keep),
        (
            (edge.source, edge.target, edge.label)
            for edge in graph.edges()
            if edge.source in keep and edge.target in keep
        ),
    )


class TestInducedSubgraphByRows:
    """``induced_subgraph`` copies adjacency rows; it must equal the per-edge build."""

    @pytest.mark.parametrize("seed", range(12))
    def test_rows_equal_the_per_edge_build(self, seed):
        graph = _random_graph(seed)
        nodes = sorted(graph.nodes())
        rng = random.Random(seed)
        for keep in (set(rng.sample(nodes, rng.randint(1, len(nodes)))), set(nodes), set()):
            fragment, expected = graph.induced_subgraph(keep), _induced_per_edge(graph, keep)
            assert structure_equal(fragment, expected)
            assert fragment.num_edges == expected.num_edges
            assert fragment._edge_label_counts == expected._edge_label_counts
            assert fragment.node_label_counts() == expected.node_label_counts()
            for node in keep:
                assert fragment.node_attrs(node) == graph.node_attrs(node)
                assert fragment.in_neighbors(node) == expected.in_neighbors(node)
                for label in ("e", "f", "g"):
                    assert fragment.in_neighbors(node, label) == expected.in_neighbors(node, label)
            assert fragment.version == 0 and fragment.deltas_since(0) == []

    def test_fragment_and_parent_share_no_row(self):
        graph = _random_graph(3)
        keep = set(sorted(graph.nodes())[:25])
        fragment = graph.induced_subgraph(keep)
        parent_before, fragment_before = graph.copy(), fragment.copy()
        edges = list(fragment.edges())
        assert edges, "the fragment must have an edge to remove"
        for edge in edges[::2]:
            fragment.remove_edge(edge.source, edge.target, edge.label)
        fragment.add_edge("n0", "n1", "h")
        assert structure_equal(graph, parent_before) and graph.num_edges == parent_before.num_edges
        fragment_after = fragment.copy()
        for edge in list(graph.edges())[::2]:
            graph.remove_edge(edge.source, edge.target, edge.label)
        graph.add_edge("n2", "n3", "h")
        assert structure_equal(fragment, fragment_after)
        assert not structure_equal(fragment, fragment_before)
        for node in keep:
            for rows in ("_out", "_in"):
                for label, row in getattr(fragment, rows)[node].items():
                    assert row is not getattr(graph, rows)[node].get(label)


class TestGraphBuilder:
    def test_fluent_build(self):
        graph = (
            GraphBuilder("b")
            .node("x", "cust")
            .edge("x", "y", "visit", target_label="restaurant")
            .build()
        )
        assert graph.num_nodes == 2
        assert graph.has_edge("x", "y", "visit")

    def test_undirected_edge(self):
        graph = (
            GraphBuilder()
            .node("a", "cust")
            .node("b", "cust")
            .undirected_edge("a", "b", "friend")
            .build()
        )
        assert graph.has_edge("a", "b", "friend")
        assert graph.has_edge("b", "a", "friend")

    def test_bulk_nodes_and_edges(self):
        graph = (
            GraphBuilder()
            .nodes([("a", "cust"), ("b", "cust")])
            .edges([("a", "b", "friend")])
            .build()
        )
        assert graph.num_edges == 1

    def test_builder_reset_after_build(self):
        builder = GraphBuilder("x").node("a", "cust")
        first = builder.build()
        second = builder.build()
        assert first.num_nodes == 1
        assert second.num_nodes == 0
