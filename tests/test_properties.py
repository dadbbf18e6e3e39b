"""Property-based tests (hypothesis) for the core invariants.

Covered invariants:

* graph bookkeeping (label index, degree sums, size) under random edits;
* d-neighbourhood locality: matching inside ``Gd(vx)`` agrees with matching
  in the full graph for patterns of radius ≤ d (the data-locality property
  both DMine and Match rely on);
* anti-monotonicity of topological support under pattern extension;
* matcher agreement: the guided matcher equals the VF2 matcher on random
  graphs and patterns;
* Jaccard distance is a bounded semi-metric;
* partitions always preserve the d-ball of every owned centre;
* EIP parallel/sequential agreement on random rule sets.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.graph import Graph, ball
from repro.matching import GuidedMatcher, VF2Matcher
from repro.metrics import jaccard_distance, support
from repro.metrics.support import rule_support
from repro.partition import partition_graph
from repro.pattern import GPAR, Pattern, PatternEdge
from repro.pattern.radius import is_connected, pattern_radius
from repro.testing import structure_equal

NODE_LABELS = ["person", "city", "shop", "item"]
EDGE_LABELS = ["knows", "lives", "buys", "sells"]


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def random_graphs(draw, max_nodes: int = 14, max_extra_edges: int = 25) -> Graph:
    """Small random labelled directed graphs."""
    num_nodes = draw(st.integers(min_value=2, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    graph = Graph(name=f"random{seed}")
    for index in range(num_nodes):
        graph.add_node(f"n{index}", rng.choice(NODE_LABELS))
    num_edges = draw(st.integers(min_value=1, max_value=max_extra_edges))
    for _ in range(num_edges):
        source = f"n{rng.randrange(num_nodes)}"
        target = f"n{rng.randrange(num_nodes)}"
        if source != target:
            graph.add_edge(source, target, rng.choice(EDGE_LABELS))
    return graph


def _pattern_from_graph(graph: Graph, rng: random.Random, max_edges: int = 3) -> Pattern | None:
    """Lift a small connected subgraph of *graph* into a pattern."""
    anchors = [node for node in graph.nodes() if graph.neighbors(node)]
    if not anchors:
        return None
    anchor = rng.choice(sorted(anchors, key=str))
    node_map = {anchor: "x"}
    nodes = {"x": graph.node_label(anchor)}
    edges: list[PatternEdge] = []
    frontier = [anchor]
    for _ in range(rng.randint(1, max_edges)):
        base = rng.choice(frontier)
        incident = list(graph.out_edges(base)) + list(graph.in_edges(base))
        if not incident:
            continue
        edge = rng.choice(incident)
        other = edge.target if edge.source == base else edge.source
        if other not in node_map:
            node_map[other] = f"p{len(node_map)}"
            nodes[node_map[other]] = graph.node_label(other)
            frontier.append(other)
        edges.append(PatternEdge(node_map[edge.source], node_map[edge.target], edge.label))
    if not edges:
        return None
    return Pattern(nodes=nodes, edges=edges, x="x")


@st.composite
def graphs_with_patterns(draw) -> tuple[Graph, Pattern]:
    graph = draw(random_graphs())
    seed = draw(st.integers(min_value=0, max_value=10_000))
    pattern = _pattern_from_graph(graph, random.Random(seed))
    if pattern is None:
        # Fall back to a trivially satisfiable single-node pattern.
        some_node = next(iter(graph.nodes()))
        pattern = Pattern(nodes={"x": graph.node_label(some_node)}, edges=[], x="x")
    return graph, pattern


# ----------------------------------------------------------------------
# graph invariants
# ----------------------------------------------------------------------
class TestGraphInvariants:
    @given(random_graphs())
    @settings(max_examples=40, deadline=None)
    def test_label_index_consistent(self, graph: Graph):
        for label in graph.node_labels():
            for node in graph.nodes_with_label(label):
                assert graph.node_label(node) == label
        assert sum(graph.node_label_counts().values()) == graph.num_nodes

    @given(random_graphs())
    @settings(max_examples=40, deadline=None)
    def test_degree_sums_equal_edge_count(self, graph: Graph):
        assert sum(len(list(graph.out_edges(node))) for node in graph.nodes()) == graph.num_edges
        assert sum(len(list(graph.in_edges(node))) for node in graph.nodes()) == graph.num_edges

    @given(random_graphs())
    @settings(max_examples=30, deadline=None)
    def test_copy_roundtrip(self, graph: Graph):
        assert structure_equal(graph.copy(), graph)

    @given(random_graphs(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_ball_is_monotone_in_radius(self, graph: Graph, radius: int):
        node = next(iter(graph.nodes()))
        assert ball(graph, node, radius) <= ball(graph, node, radius + 1)

    @given(random_graphs())
    @settings(max_examples=30, deadline=None)
    def test_induced_subgraph_edge_subset(self, graph: Graph):
        nodes = list(graph.nodes())[: max(1, graph.num_nodes // 2)]
        sub = graph.induced_subgraph(nodes)
        for edge in sub.edges():
            assert graph.has_edge(edge.source, edge.target, edge.label)


# ----------------------------------------------------------------------
# matching and support invariants
# ----------------------------------------------------------------------
class TestMatchingInvariants:
    @given(graphs_with_patterns())
    @settings(max_examples=30, deadline=None)
    def test_guided_agrees_with_vf2(self, graph_and_pattern):
        graph, pattern = graph_and_pattern
        assert GuidedMatcher().match_set(graph, pattern) == VF2Matcher().match_set(
            graph, pattern
        )

    @given(graphs_with_patterns())
    @settings(max_examples=30, deadline=None)
    def test_locality_of_matching(self, graph_and_pattern):
        """vx ∈ Q(x, G) iff vx ∈ Q(x, Gd(vx)) for d = r(Q, x)."""
        graph, pattern = graph_and_pattern
        if not is_connected(pattern):
            return
        radius = pattern_radius(pattern)
        matcher = VF2Matcher()
        global_matches = matcher.match_set(graph, pattern)
        for candidate in graph.nodes_with_label(pattern.label(pattern.x)):
            local = matcher.exists_match_at(
                graph.induced_subgraph(ball(graph, candidate, max(radius, 1))), pattern, candidate
            )
            assert local == (candidate in global_matches)

    @given(graphs_with_patterns())
    @settings(max_examples=30, deadline=None)
    def test_support_anti_monotonicity(self, graph_and_pattern):
        """Adding an edge to a pattern can only shrink its support."""
        graph, pattern = graph_and_pattern
        base_count, base_matches = support(pattern, graph)
        if not base_matches:
            return
        # Extend the pattern by one edge read off an actual match.
        matcher = VF2Matcher()
        anchor = sorted(base_matches, key=str)[0]
        mapping = matcher.find_match_at(graph, pattern.expanded(), anchor)
        assert mapping is not None
        image = {v: k for k, v in mapping.items()}
        for pattern_node, data_node in mapping.items():
            extended = None
            for edge in graph.out_edges(data_node):
                if edge.target not in image:
                    extended = pattern.with_edge(
                        pattern_node,
                        "fresh",
                        edge.label,
                        target_label=graph.node_label(edge.target),
                    )
                    break
            if extended is not None:
                extended_count, extended_matches = support(extended, graph)
                assert extended_count <= base_count
                assert extended_matches <= base_matches
                break

    @given(st.lists(st.integers(0, 30), max_size=12), st.lists(st.integers(0, 30), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_jaccard_distance_properties(self, first, second):
        distance = jaccard_distance(first, second)
        assert 0.0 <= distance <= 1.0
        assert distance == jaccard_distance(second, first)
        assert jaccard_distance(first, first) == 0.0
        if set(first) and set(first) == set(second):
            assert distance == 0.0
        if set(first) and set(second) and not (set(first) & set(second)):
            assert distance == 1.0


# ----------------------------------------------------------------------
# partition invariants
# ----------------------------------------------------------------------
class TestPartitionInvariants:
    @given(random_graphs(), st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2))
    @settings(max_examples=25, deadline=None)
    def test_partition_preserves_balls_and_ownership(self, graph: Graph, workers: int, d: int):
        centers = graph.nodes_with_label("person")
        fragments = partition_graph(graph, workers, centers=centers, d=d, seed=0)
        owned = [node for fragment in fragments for node in fragment.owned_centers]
        assert sorted(map(str, owned)) == sorted(map(str, centers))
        for fragment in fragments:
            for center in fragment.owned_centers:
                for node in ball(graph, center, d):
                    assert fragment.graph.has_node(node)


# ----------------------------------------------------------------------
# end-to-end EIP agreement on random workloads
# ----------------------------------------------------------------------
class TestEndToEndAgreement:
    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=10, deadline=None)
    def test_parallel_eip_agrees_with_sequential(self, seed):
        from repro.datasets import generate_gpars, most_frequent_predicates, pokec_like
        from repro.identification import identify_entities
        from repro.testing import identify_sequential

        graph = pokec_like(num_users=60, num_communities=4, seed=seed % 7)
        predicates = [
            predicate
            for predicate in most_frequent_predicates(graph, top=10)
            if predicate.label(predicate.y) not in ("user", "city")
        ]
        predicate = predicates[seed % len(predicates)]
        try:
            rules = generate_gpars(
                graph, predicate, count=3, max_pattern_edges=3, d=2, seed=seed
            )
        except Exception:
            return  # some predicates admit too few distinct rules — not a failure
        reference = identify_sequential(graph, rules, eta=1.0)
        for algorithm in ("match", "matchc"):
            result = identify_entities(
                graph, rules, eta=1.0, num_workers=3, algorithm=algorithm
            )
            assert result.identified == reference.identified


class TestGPARInvariants:
    @given(graphs_with_patterns(), st.sampled_from(EDGE_LABELS))
    @settings(max_examples=25, deadline=None)
    def test_rule_support_bounded_by_antecedent_support(self, graph_and_pattern, q_label):
        graph, pattern = graph_and_pattern
        if pattern.num_edges == 0:
            return
        # Build a GPAR by designating some non-x node as y.
        others = [node for node in pattern.nodes() if node != pattern.x]
        if not others:
            return
        y = sorted(others, key=str)[0]
        antecedent = Pattern(
            nodes=dict(pattern.node_items()),
            edges=pattern.edges(),
            x=pattern.x,
            y=y,
        )
        if antecedent.has_edge(antecedent.x, y, q_label):
            return
        rule = GPAR(antecedent, consequent_label=q_label, validate=False)
        rule_count, rule_matches = rule_support(rule, graph)
        antecedent_count, antecedent_matches = support(antecedent, graph)
        assert rule_count <= antecedent_count
        assert rule_matches <= antecedent_matches
