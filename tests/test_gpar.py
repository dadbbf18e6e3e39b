"""Unit tests for GPARs: validation, derived patterns, radii."""

import pytest

from repro.exceptions import InvalidGPARError
from repro.pattern import GPAR, Pattern, PatternBuilder


@pytest.fixture
def simple_antecedent() -> Pattern:
    return (
        PatternBuilder()
        .node("x", "cust")
        .node("f", "cust")
        .node("y", "restaurant")
        .undirected_edge("x", "f", "friend")
        .edge("f", "y", "visit")
        .designate(x="x", y="y")
        .build()
    )


class TestValidation:
    def test_valid_rule(self, simple_antecedent):
        rule = GPAR(simple_antecedent, consequent_label="visit", name="R")
        assert rule.consequent_label == "visit"
        assert rule.x == "x" and rule.y == "y"

    def test_missing_y_rejected(self):
        antecedent = Pattern(nodes={"x": "cust"}, edges=[], x="x")
        with pytest.raises(InvalidGPARError):
            GPAR(antecedent, consequent_label="visit")

    def test_empty_antecedent_rejected(self):
        antecedent = Pattern(nodes={"x": "cust", "y": "r"}, edges=[], x="x", y="y")
        with pytest.raises(InvalidGPARError):
            GPAR(antecedent, consequent_label="visit")

    def test_consequent_in_antecedent_rejected(self):
        antecedent = Pattern(
            nodes={"x": "cust", "y": "r"}, edges=[("x", "y", "visit")], x="x", y="y"
        )
        with pytest.raises(InvalidGPARError):
            GPAR(antecedent, consequent_label="visit")

    def test_disconnected_pr_rejected(self):
        antecedent = Pattern(
            nodes={"x": "cust", "y": "r", "island": "city", "island2": "city"},
            edges=[("island", "island2", "near")],
            x="x",
            y="y",
        )
        with pytest.raises(InvalidGPARError):
            GPAR(antecedent, consequent_label="visit")

    def test_validation_can_be_disabled(self):
        antecedent = Pattern(nodes={"x": "cust", "y": "r"}, edges=[], x="x", y="y")
        rule = GPAR(antecedent, consequent_label="visit", validate=False)
        assert rule.antecedent.num_edges == 0


class TestDerivedPatterns:
    def test_pr_adds_consequent_edge(self, simple_antecedent):
        rule = GPAR(simple_antecedent, consequent_label="visit")
        pr = rule.pr_pattern()
        assert pr.num_edges == simple_antecedent.num_edges + 1
        assert pr.has_edge("x", "y", "visit")
        assert rule.pr_pattern() is pr  # cached

    def test_q_pattern_single_edge(self, simple_antecedent):
        rule = GPAR(simple_antecedent, consequent_label="visit")
        q = rule.q_pattern()
        assert q.num_nodes == 2
        assert q.num_edges == 1
        assert q.label(q.x) == "cust"
        assert q.label(q.y) == "restaurant"

    def test_labels(self, simple_antecedent):
        rule = GPAR(simple_antecedent, consequent_label="visit")
        assert rule.x_label == "cust"
        assert rule.y_label == "restaurant"

    def test_value_binding_preserved(self, r4):
        q = r4.q_pattern()
        assert q.label(q.y) == "fake"


class TestRadii:
    def test_pr_radius(self, r1):
        assert r1.radius == 1

    def test_verification_radius_exceeds_pr_radius(self, r1):
        # y is two hops from x in the antecedent but one hop in PR.
        assert r1.verification_radius == 2

    def test_verification_radius_free_y(self, r5):
        # R5's antecedent leaves y unconnected; only the x-component counts.
        assert r5.verification_radius >= r5.radius

    def test_size(self, r1):
        nodes, edges = r1.size
        assert nodes == r1.pr_pattern().num_nodes
        assert edges == r1.pr_pattern().num_edges


class TestEqualityAndDescription:
    def test_structural_equality_ignores_name(self, simple_antecedent):
        rule_a = GPAR(simple_antecedent, consequent_label="visit", name="A")
        rule_b = GPAR(simple_antecedent, consequent_label="visit", name="B")
        assert rule_a == rule_b
        assert hash(rule_a) == hash(rule_b)

    def test_inequality_on_consequent(self, simple_antecedent):
        rule_a = GPAR(simple_antecedent, consequent_label="visit")
        rule_b = GPAR(simple_antecedent, consequent_label="like")
        assert rule_a != rule_b

    def test_not_equal_to_other_types(self, simple_antecedent):
        assert GPAR(simple_antecedent, consequent_label="visit") != 42

    def test_describe_mentions_edges(self, r1):
        text = r1.describe()
        assert "friend" in text
        assert "R1" in text
        assert "(x3)" in text  # the 3-copies French restaurant node

    def test_repr(self, r1):
        assert "R1" in repr(r1)
