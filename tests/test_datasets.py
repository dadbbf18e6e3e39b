"""Tests for the paper's example graphs, generators and workloads."""

import pytest

from repro.datasets import (
    generate_gpars,
    googleplus_like,
    graph_g1,
    graph_g2,
    most_frequent_predicates,
    pokec_like,
    synthetic_graph,
)
from repro.exceptions import DatasetError
from repro.metrics import evaluate_rule, predicate_stats
from repro.testing import structure_equal


class TestPaperGraphs:
    def test_g1_basic_shape(self, g1):
        assert len(g1.nodes_with_label("cust")) == 6
        assert len(g1.nodes_with_label("city")) == 2
        assert len(g1.nodes_with_label("French restaurant")) == 9

    def test_g1_is_deterministic(self):
        assert structure_equal(graph_g1(), graph_g1())

    def test_g2_basic_shape(self, g2):
        assert len(g2.nodes_with_label("acct")) == 4
        assert len(g2.nodes_with_label("blog")) == 7
        assert len(g2.nodes_with_label("keyword")) == 2
        assert structure_equal(graph_g2(), graph_g2())

    def test_example3_q1_matches(self, g1, r1):
        evaluation = evaluate_rule(g1, r1)
        assert evaluation.antecedent_matches == {"cust1", "cust2", "cust3", "cust5"}

    def test_example10_pr1_matches(self, g1, r1):
        evaluation = evaluate_rule(g1, r1)
        assert evaluation.rule_matches == {"cust1", "cust2", "cust3"}

    def test_example5_r4_with_k1(self, g2):
        from repro.datasets import rule_r4

        evaluation = evaluate_rule(g2, rule_r4(k=1))
        assert evaluation.supp_r >= 3

    def test_rule_radii(self, g1_rules, r4):
        for rule in g1_rules:
            assert rule.radius <= 2
        # R4 reaches the fake-peer's posted blog via x', three hops from x.
        assert r4.radius == 3


class TestSyntheticGenerator:
    def test_requested_size(self):
        graph = synthetic_graph(200, 500, seed=1)
        assert graph.num_nodes == 200
        assert graph.num_edges == 500

    def test_deterministic_with_seed(self):
        assert structure_equal(synthetic_graph(100, 200, seed=5), synthetic_graph(100, 200, seed=5))

    def test_different_seeds_differ(self):
        assert not structure_equal(synthetic_graph(100, 200, seed=1), synthetic_graph(100, 200, seed=2))

    def test_label_alphabets(self):
        graph = synthetic_graph(100, 300, num_node_labels=5, num_edge_labels=3, seed=0)
        assert len(graph.node_labels()) <= 5
        assert len(graph.edge_labels()) <= 3

    def test_no_self_loops_or_duplicates(self):
        graph = synthetic_graph(50, 150, seed=2)
        seen = set()
        for edge in graph.edges():
            assert edge.source != edge.target
            key = (edge.source, edge.target, edge.label)
            assert key not in seen
            seen.add(key)

    def test_uniform_variant(self):
        graph = synthetic_graph(50, 100, preferential=False, seed=3)
        assert graph.num_edges == 100

    def test_invalid_requests(self):
        with pytest.raises(DatasetError):
            synthetic_graph(0, 10)
        with pytest.raises(DatasetError):
            synthetic_graph(10, -1)
        with pytest.raises(DatasetError):
            synthetic_graph(3, 1000, num_edge_labels=1)


class TestSocialGenerators:
    def test_pokec_like_shape(self, small_pokec):
        assert len(small_pokec.nodes_with_label("user")) == 120
        assert "follow" in small_pokec.edge_labels()
        assert "like_book" in small_pokec.edge_labels()

    def test_pokec_deterministic(self):
        assert structure_equal(pokec_like(80, seed=4), pokec_like(80, seed=4))

    def test_pokec_planted_predicate_is_nondegenerate(self, small_pokec, pokec_book_predicate):
        stats = predicate_stats(small_pokec, pokec_book_predicate)
        assert stats.supp_q > 0
        assert stats.supp_q_bar > 0

    def test_googleplus_shape(self, small_googleplus):
        assert len(small_googleplus.nodes_with_label("user")) == 120
        assert "major" in small_googleplus.edge_labels()

    def test_googleplus_planted_predicate(self, small_googleplus, googleplus_major_predicate):
        stats = predicate_stats(small_googleplus, googleplus_major_predicate)
        assert stats.supp_q > 0
        assert stats.supp_q_bar > 0

    def test_generators_reject_tiny_sizes(self):
        with pytest.raises(DatasetError):
            pokec_like(num_users=3)
        with pytest.raises(DatasetError):
            googleplus_like(num_users=3)
        with pytest.raises(DatasetError):
            pokec_like(num_users=50, num_communities=0)


class TestWorkloads:
    def test_most_frequent_predicates(self, small_pokec):
        predicates = most_frequent_predicates(small_pokec, top=5)
        assert len(predicates) == 5
        for predicate in predicates:
            assert predicate.num_edges == 1

    def test_generated_rules_are_valid_and_matchable(
        self, small_pokec, pokec_book_predicate
    ):
        rules = generate_gpars(
            small_pokec, pokec_book_predicate, count=6, max_pattern_edges=4, d=2, seed=1
        )
        assert len(rules) == 6
        assert len(set(rules)) == 6
        for rule in rules:
            assert rule.radius <= 2
            assert rule.antecedent.num_edges >= 1
            evaluation = evaluate_rule(small_pokec, rule)
            assert evaluation.supp_antecedent >= 1

    def test_generated_rules_share_predicate(self, small_pokec, pokec_book_predicate):
        rules = generate_gpars(small_pokec, pokec_book_predicate, count=4, seed=2)
        signatures = {(rule.x_label, rule.consequent_label, rule.y_label) for rule in rules}
        assert len(signatures) == 1

    def test_generation_is_deterministic(self, small_pokec, pokec_book_predicate):
        first = generate_gpars(small_pokec, pokec_book_predicate, count=4, seed=3)
        second = generate_gpars(small_pokec, pokec_book_predicate, count=4, seed=3)
        assert first == second

    @pytest.mark.parametrize("name, value", [("max_pattern_edges", 0), ("d", -1), ("d", 0)])
    def test_rule_shape_below_one_is_refused_up_front(
        self, small_pokec, pokec_book_predicate, name, value
    ):
        with pytest.raises(DatasetError, match=f"{name} must be >= 1"):
            generate_gpars(small_pokec, pokec_book_predicate, count=2, **{name: value})

    def test_invalid_requests(self, small_pokec, pokec_book_predicate):
        with pytest.raises(DatasetError):
            generate_gpars(small_pokec, pokec_book_predicate, count=0)
        from repro.pattern import Pattern, PatternEdge

        impossible = Pattern(
            nodes={"x": "user", "y": "spaceship"},
            edges=[PatternEdge("x", "y", "pilots")],
            x="x",
            y="y",
        )
        with pytest.raises(DatasetError):
            generate_gpars(small_pokec, impossible, count=2)
