"""Tests for support, LCWA statistics, confidence and diversification.

These encode the paper's worked examples (Examples 5–8) as exact assertions.
"""

import math

import pytest

from repro.metrics import (
    DiversificationObjective,
    antecedent_support,
    bayes_factor_confidence,
    evaluate_rule,
    image_based_confidence,
    jaccard_distance,
    minimum_image_support,
    pca_confidence,
    predicate_stats,
    rule_difference,
    rule_support,
    support,
)
from repro.metrics.confidence import conventional_confidence
from repro.metrics.lcwa import q_bar_intersection
from repro.pattern import Pattern


class TestSupport:
    def test_example5_antecedent_support(self, g1, r1):
        count, matches = antecedent_support(r1, g1)
        assert count == 4
        assert matches == {"cust1", "cust2", "cust3", "cust5"}

    def test_example5_rule_support(self, g1, r1):
        count, matches = rule_support(r1, g1)
        assert count == 3
        assert matches == {"cust1", "cust2", "cust3"}

    def test_example5_r4_support(self, g2, r4):
        count, matches = rule_support(r4, g2)
        assert count == 3
        assert matches == {"acct1", "acct2", "acct3"}
        antecedent_count, _ = antecedent_support(r4, g2)
        assert antecedent_count == 3

    def test_support_candidate_restriction(self, g1, r1):
        count, matches = rule_support(r1, g1, candidates={"cust1", "cust5"})
        assert count == 1 and matches == {"cust1"}

    def test_anti_monotonicity_on_paper_rules(self, g1, r5, r7):
        """R7 extends R5, so supp(R7) <= supp(R5) (anti-monotonicity)."""
        assert rule_support(r7, g1)[0] <= rule_support(r5, g1)[0]

    def test_single_node_pattern_support(self, g1):
        pattern = Pattern(nodes={"x": "cust"}, edges=[], x="x")
        count, matches = support(pattern, g1)
        assert count == 6

    def test_minimum_image_support(self, g1, r1):
        image = minimum_image_support(r1.pr_pattern(), g1)
        # One city (New York) participates in every match, so the minimum
        # image is 1; it is never larger than the topological support.
        assert 1 <= image <= rule_support(r1, g1)[0]

    def test_minimum_image_support_no_matches(self, g1, r1):
        impossible = Pattern(
            nodes={"x": "spaceship"}, edges=[], x="x"
        )
        assert minimum_image_support(impossible, g1) == 0


class TestLCWA:
    def test_example8_predicate_stats(self, g1, visit_predicate):
        stats = predicate_stats(g1, visit_predicate)
        assert stats.supp_q == 5
        assert stats.supp_q_bar == 1
        assert stats.positives == frozenset({"cust1", "cust2", "cust3", "cust4", "cust6"})
        assert stats.negatives == frozenset({"cust5"})
        assert stats.unknown == frozenset()
        assert stats.normalizer == 5

    def test_example7_classification(self, g_ecuador, r2):
        stats = predicate_stats(g_ecuador, r2.q_pattern())
        assert stats.positives == {"v1"}
        assert stats.negatives == {"v2"}
        assert stats.unknown == {"v3"}  # fans (u1, ...) do not carry the x label

    def test_num_candidates(self, g_ecuador, r2):
        """The LCWA splits every x-labelled node, and only those, three ways."""
        stats = predicate_stats(g_ecuador, r2.q_pattern())
        candidates = stats.positives | stats.negatives | stats.unknown
        assert len(candidates) == 3 and candidates == g_ecuador.nodes_with_label(r2.x_label)

    def test_qbar_intersection(self, g1, r1):
        stats = predicate_stats(g1, r1.q_pattern())
        _count, antecedent = antecedent_support(r1, g1)
        assert q_bar_intersection(stats.negatives, antecedent) == {"cust5"}

    def test_predicate_pattern_must_be_single_edge(self, g1, r1):
        with pytest.raises(ValueError):
            predicate_stats(g1, r1.antecedent)


class TestConfidenceFormulas:
    def test_bayes_factor_basic(self):
        assert bayes_factor_confidence(3, 1, 1, 5) == pytest.approx(0.6)

    def test_bayes_factor_trivial_cases(self):
        assert math.isinf(bayes_factor_confidence(3, 1, 0, 5))
        assert math.isinf(bayes_factor_confidence(3, 1, 1, 0))
        assert bayes_factor_confidence(0, 1, 1, 5) == 0.0

    def test_bayes_factor_rejects_negative(self):
        with pytest.raises(ValueError):
            bayes_factor_confidence(-1, 1, 1, 1)

    def test_pca_confidence(self):
        assert pca_confidence(3, 6) == pytest.approx(0.5)
        assert math.isinf(pca_confidence(3, 0))

    def test_image_based_confidence(self):
        assert image_based_confidence(2, 1, 1, 5) == pytest.approx(0.4)
        assert math.isinf(image_based_confidence(2, 1, 0, 5))

    def test_conventional_confidence(self):
        assert conventional_confidence(1, 3) == pytest.approx(1 / 3)
        assert conventional_confidence(0, 0) == 0.0


class TestRuleEvaluation:
    def test_example8_confidences(self, g1, r1, r7, r8):
        assert evaluate_rule(g1, r1).confidence == pytest.approx(0.6)
        assert evaluate_rule(g1, r7).confidence == pytest.approx(0.6)
        assert evaluate_rule(g1, r8).confidence == pytest.approx(0.2)

    def test_example7_bf_vs_conventional(self, g_ecuador, r2):
        evaluation = evaluate_rule(g_ecuador, r2)
        assert evaluation.confidence == pytest.approx(1.0)
        assert evaluation.conventional == pytest.approx(1 / 3)
        assert evaluation.supp_r == 1
        assert evaluation.supp_q == 1
        assert evaluation.supp_q_bar == 1
        assert evaluation.supp_q_qbar == 1

    def test_shared_stats_give_same_answer(self, g1, r7, visit_predicate):
        stats = predicate_stats(g1, visit_predicate)
        assert evaluate_rule(g1, r7, stats=stats).confidence == evaluate_rule(
            g1, r7
        ).confidence

    def test_rule_matches_subset_of_antecedent(self, g1, g1_rules):
        for rule in g1_rules:
            evaluation = evaluate_rule(g1, rule)
            assert evaluation.rule_matches <= evaluation.antecedent_matches

    def test_is_trivial_flag(self, g1, r1):
        """R1 is not trivial in the sense of Section 3: finite confidence, supp(q) > 0."""
        evaluation = evaluate_rule(g1, r1)
        assert not math.isinf(evaluation.confidence) and evaluation.supp_q > 0

    def test_as_row_readable(self, g1, r1):
        row = evaluate_rule(g1, r1).as_row()
        assert "R1" in row and "conf=0.600" in row

    def test_image_based_evaluation(self, g1, r7):
        """Exp-2's Iconf: the Bayes-factor formula over minimum-image support."""
        evaluation = evaluate_rule(g1, r7)
        image_support = minimum_image_support(r7.pr_pattern(), g1)
        iconf = image_based_confidence(
            image_support, evaluation.supp_q_bar, evaluation.supp_q_qbar, evaluation.supp_q
        )
        assert 0 < image_support <= evaluation.supp_r
        assert iconf >= 0.0


class TestDiversification:
    def test_jaccard_basics(self):
        assert jaccard_distance({1, 2}, {1, 2}) == 0.0
        assert jaccard_distance({1}, {2}) == 1.0
        assert jaccard_distance(set(), set()) == 0.0
        assert jaccard_distance({1, 2}, {2, 3}) == pytest.approx(1 - 1 / 3)

    def test_example8_diffs(self, g1, r1, r7, r8):
        matches = {rule.name: evaluate_rule(g1, rule).rule_matches for rule in (r1, r7, r8)}
        assert rule_difference(matches["R1"], matches["R7"]) == 0.0
        assert rule_difference(matches["R1"], matches["R8"]) == 1.0
        assert rule_difference(matches["R7"], matches["R8"]) == 1.0

    def test_example8_objective_value(self, g1, r7, r8, visit_predicate):
        stats = predicate_stats(g1, visit_predicate)
        objective = DiversificationObjective(lam=0.5, k=2, normalizer=stats.normalizer)
        ev7 = evaluate_rule(g1, r7, stats=stats)
        ev8 = evaluate_rule(g1, r8, stats=stats)
        value = objective.total_from_matches(
            [ev7.confidence, ev8.confidence], [ev7.rule_matches, ev8.rule_matches]
        )
        assert value == pytest.approx(1.08)

    def test_pair_score_matches_total_for_k2(self, g1, r7, r8, visit_predicate):
        stats = predicate_stats(g1, visit_predicate)
        objective = DiversificationObjective(lam=0.5, k=2, normalizer=stats.normalizer)
        ev7 = evaluate_rule(g1, r7, stats=stats)
        ev8 = evaluate_rule(g1, r8, stats=stats)
        diff = rule_difference(ev7.rule_matches, ev8.rule_matches)
        assert objective.pair_score(ev7.confidence, ev8.confidence, diff) == pytest.approx(1.08)

    def test_lambda_extremes(self):
        pure_conf = DiversificationObjective(lam=0.0, k=2, normalizer=10)
        pure_div = DiversificationObjective(lam=1.0, k=2, normalizer=10)
        assert pure_conf.pair_score(1.0, 1.0, 1.0) == pytest.approx(0.2)
        assert pure_div.pair_score(1.0, 1.0, 1.0) == pytest.approx(2.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DiversificationObjective(lam=1.5, k=2, normalizer=1)
        with pytest.raises(ValueError):
            DiversificationObjective(lam=0.5, k=0, normalizer=1)

    def test_k1_has_no_diversity_term(self):
        objective = DiversificationObjective(lam=0.5, k=1, normalizer=5)
        assert objective.total([2.0], {}) == pytest.approx(0.5 * 2.0 / 5)

    def test_degenerate_normalizer_drops_confidence_term(self):
        objective = DiversificationObjective(lam=0.5, k=2, normalizer=0)
        assert objective.total_from_matches([1.0, 1.0], [{1}, {2}]) == pytest.approx(1.0)

    def test_infinite_confidences_clamped(self):
        objective = DiversificationObjective(lam=0.5, k=2, normalizer=5)
        assert objective.total_from_matches([math.inf, 1.0], [{1}, {2}]) < math.inf

    def test_upper_bound_contribution(self):
        objective = DiversificationObjective(lam=0.5, k=2, normalizer=5)
        assert objective.upper_bound_contribution(1.0, 1.0) == pytest.approx(
            objective.pair_score(1.0, 1.0, 1.0)
        )

    def test_mismatched_lengths_rejected(self):
        objective = DiversificationObjective(lam=0.5, k=2, normalizer=5)
        with pytest.raises(ValueError):
            objective.total_from_matches([1.0], [{1}, {2}])
