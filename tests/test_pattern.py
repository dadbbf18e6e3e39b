"""Unit tests for patterns: construction, copies, derivation, equality."""

import pytest

from repro.exceptions import PatternError
from repro.pattern import Pattern, PatternBuilder, PatternEdge
from repro.pattern.radius import is_connected, pattern_radius


@pytest.fixture
def q_like() -> Pattern:
    return Pattern(
        nodes={"x": "cust", "y": "restaurant"},
        edges=[("x", "y", "like")],
        x="x",
        y="y",
    )


@pytest.fixture
def q_copies() -> Pattern:
    return (
        PatternBuilder()
        .node("x", "cust")
        .node("fr", "French restaurant", copies=3)
        .node("y", "French restaurant")
        .edge("x", "fr", "like")
        .designate(x="x", y="y")
        .build()
    )


class TestConstruction:
    def test_basic_counts(self, q_like):
        assert q_like.num_nodes == 2
        assert q_like.num_edges == 1
        assert q_like.size == (2, 1)

    def test_empty_pattern_rejected(self):
        with pytest.raises(PatternError):
            Pattern(nodes={}, edges=[], x="x")

    def test_edge_with_unknown_endpoint(self):
        with pytest.raises(PatternError):
            Pattern(nodes={"x": "cust"}, edges=[("x", "y", "like")], x="x")

    def test_unknown_designated_node(self):
        with pytest.raises(PatternError):
            Pattern(nodes={"x": "cust"}, edges=[], x="zzz")
        with pytest.raises(PatternError):
            Pattern(nodes={"x": "cust"}, edges=[], x="x", y="zzz")

    def test_duplicate_edges_are_collapsed(self):
        pattern = Pattern(
            nodes={"x": "cust", "y": "r"},
            edges=[("x", "y", "like"), ("x", "y", "like")],
            x="x",
        )
        assert pattern.num_edges == 1

    def test_copy_count_validation(self):
        with pytest.raises(PatternError):
            Pattern(nodes={"x": "cust"}, edges=[], x="x", copies={"x": 2})
        with pytest.raises(PatternError):
            Pattern(nodes={"x": "cust"}, edges=[], x="x", copies={"x": 0})
        with pytest.raises(PatternError):
            Pattern(nodes={"x": "cust"}, edges=[], x="x", copies={"ghost": 2})

    def test_label_lookup(self, q_like):
        assert q_like.label("x") == "cust"
        with pytest.raises(PatternError):
            q_like.label("ghost")

    def test_has_node_and_edge(self, q_like):
        assert q_like.has_node("x")
        assert q_like.has_edge("x", "y", "like")
        assert not q_like.has_edge("y", "x", "like")

    def test_adjacency(self, q_like):
        assert [e.label for e in q_like.out_edges("x")] == ["like"]
        assert [e.label for e in q_like.in_edges("y")] == ["like"]
        assert q_like.neighbors("x") == {"y"}


class TestCopies:
    def test_copy_count_accessors(self, q_copies):
        assert q_copies.copy_count("fr") == 3
        assert q_copies.copy_count("x") == 1
        assert q_copies.copy_counts() == {"fr": 3}

    def test_expanded_materialises_siblings(self, q_copies):
        expanded = q_copies.expanded()
        assert expanded.num_nodes == q_copies.num_nodes + 2
        assert expanded.num_edges == 3  # like edge replicated to each copy
        labels = [expanded.label(node) for node in expanded.nodes()]
        assert labels.count("French restaurant") == 4

    def test_expanded_without_copies_is_identity(self, q_like):
        assert q_like.expanded() is q_like

    def test_expanded_is_cached(self, q_copies):
        assert q_copies.expanded() is q_copies.expanded()

    def test_expansion_preserves_designated_nodes(self, q_copies):
        expanded = q_copies.expanded()
        assert expanded.x == "x"
        assert expanded.y == "y"


class TestDerivation:
    def test_with_edge_new_node(self, q_like):
        bigger = q_like.with_edge("x", "c", "live_in", target_label="city")
        assert bigger.num_nodes == 3
        assert bigger.num_edges == 2
        # Original unchanged (immutability).
        assert q_like.num_edges == 1

    def test_with_edge_requires_label_for_new_node(self, q_like):
        with pytest.raises(PatternError):
            q_like.with_edge("x", "c", "live_in")

    def test_to_graph(self, q_copies):
        graph = q_copies.to_graph()
        assert graph.num_nodes == q_copies.expanded().num_nodes
        assert len(graph.nodes_with_label("French restaurant")) == 4


class TestEquality:
    def test_equal_patterns(self, q_like):
        twin = Pattern(
            nodes={"x": "cust", "y": "restaurant"},
            edges=[PatternEdge("x", "y", "like")],
            x="x",
            y="y",
        )
        assert twin == q_like
        assert hash(twin) == hash(q_like)

    def test_unequal_on_designation(self, q_like):
        other = Pattern(
            nodes={"x": "cust", "y": "restaurant"},
            edges=[("x", "y", "like")],
            x="x",
        )
        assert other != q_like

    def test_not_equal_to_other_types(self, q_like):
        assert q_like != "pattern"

    def test_repr(self, q_like):
        assert "nodes=2" in repr(q_like)


class TestRadiusAndConnectivity:
    def test_radius_at_x(self, r1):
        assert pattern_radius(r1.pr_pattern()) == 1
        assert pattern_radius(r1.antecedent) == 2

    def test_radius_alternative_anchor(self, q_like):
        assert pattern_radius(q_like, "y") == 1

    def test_radius_unknown_anchor(self, q_like):
        with pytest.raises(PatternError):
            pattern_radius(q_like, "ghost")

    def test_radius_disconnected(self):
        pattern = Pattern(
            nodes={"x": "cust", "y": "r", "z": "r"},
            edges=[("x", "y", "like")],
            x="x",
        )
        with pytest.raises(PatternError):
            pattern_radius(pattern)
        assert not is_connected(pattern)

    def test_is_connected(self, q_like):
        assert is_connected(q_like)
