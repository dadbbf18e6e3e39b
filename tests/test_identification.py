"""Tests for entity identification (EIP): Match, Matchc, disVF2, sequential."""

import pytest

from repro.datasets import generate_gpars
from repro.exceptions import IdentificationError
from repro.identification import (
    DisVF2,
    EIPConfig,
    Match,
    MatchC,
    identify_entities,
)
from repro.metrics import evaluate_rule, predicate_stats
from repro.testing import identify_sequential


class TestConfig:
    def test_valid(self):
        config = EIPConfig(eta=1.5, num_workers=4)
        assert config.eta == 1.5

    def test_invalid_eta(self):
        with pytest.raises(IdentificationError):
            EIPConfig(eta=0.0)

    def test_invalid_workers(self):
        with pytest.raises(IdentificationError):
            EIPConfig(eta=1.0, num_workers=0)
        # The pool size is refused here, not deep inside the process pool;
        # a bool is not a pool size.
        for pool_size in (1.5, True, "2", 0):
            with pytest.raises(IdentificationError, match="executor_workers"):
                EIPConfig(backend="processes", executor_workers=pool_size)
        with pytest.raises(IdentificationError, match="'threads'"):
            EIPConfig(backend="threads")
        assert EIPConfig(executor_workers=2).executor_workers == 2

    def test_unknown_algorithm(self, g1, r1):
        with pytest.raises(IdentificationError):
            identify_entities(g1, [r1], algorithm="quantum")

    def test_empty_rule_set(self, g1):
        with pytest.raises(IdentificationError):
            identify_sequential(g1, [])

    def test_mixed_predicates_rejected(self, g1, r1, r4):
        with pytest.raises(IdentificationError):
            identify_sequential(g1, [r1, r4])


class TestSequentialReference:
    def test_example_rules_eta_half(self, g1, g1_rules):
        result = identify_sequential(g1, g1_rules, eta=0.5)
        assert result.identified == {"cust1", "cust2", "cust3", "cust4"}
        by_name = {rule.name: result.rule_confidences[rule] for rule in g1_rules}
        assert by_name["R1"] == pytest.approx(0.6)
        assert by_name["R5"] == pytest.approx(0.8)
        assert by_name["R8"] == pytest.approx(0.2)

    def test_eta_filters_rules(self, g1, g1_rules):
        strict = identify_sequential(g1, g1_rules, eta=0.7)
        assert strict.identified == {"cust1", "cust2", "cust3", "cust4"}
        stricter = identify_sequential(g1, g1_rules, eta=0.9)
        assert stricter.identified == set()

    def test_summary_readable(self, g1, g1_rules):
        result = identify_sequential(g1, g1_rules, eta=0.5)
        text = result.summary()
        assert "identified 4 potential customers" in text

    def test_confidence_of_accessor(self, g1, r1):
        result = identify_sequential(g1, [r1], eta=0.5)
        assert result.confidence_of(r1) == pytest.approx(0.6)


@pytest.mark.parametrize("algorithm", ["match", "matchc", "disvf2"])
class TestParallelAgreement:
    def test_paper_rules_agree_with_sequential(self, g1, g1_rules, algorithm):
        reference = identify_sequential(g1, g1_rules, eta=0.5)
        result = identify_entities(g1, g1_rules, eta=0.5, num_workers=3, algorithm=algorithm)
        assert result.identified == reference.identified
        for rule in g1_rules:
            assert result.rule_confidences[rule] == pytest.approx(
                reference.rule_confidences[rule]
            )
            assert result.rule_matches[rule] == reference.rule_matches[rule]

    def test_fake_account_rule(self, g2, r4, algorithm):
        reference = identify_sequential(g2, [r4], eta=0.1)
        result = identify_entities(g2, [r4], eta=0.1, num_workers=2, algorithm=algorithm)
        assert result.identified == reference.identified == {"acct1", "acct2", "acct3"}

    def test_worker_count_does_not_change_answer(self, g1, g1_rules, algorithm):
        answers = set()
        for workers in (1, 2, 4):
            result = identify_entities(
                g1, g1_rules, eta=0.5, num_workers=workers, algorithm=algorithm
            )
            answers.add(frozenset(result.identified))
        assert len(answers) == 1

    def test_workload_agreement_on_social_graph(
        self, small_googleplus, googleplus_major_predicate, algorithm
    ):
        rules = generate_gpars(
            small_googleplus,
            googleplus_major_predicate,
            count=6,
            max_pattern_edges=4,
            d=2,
            seed=9,
        )
        reference = identify_sequential(small_googleplus, rules, eta=1.0)
        result = identify_entities(
            small_googleplus, rules, eta=1.0, num_workers=4, algorithm=algorithm
        )
        assert result.identified == reference.identified
        for rule in rules:
            assert result.rule_confidences[rule] == pytest.approx(
                reference.rule_confidences[rule]
            )


class TestAlgorithmSpecifics:
    def test_match_examines_fewer_candidates_than_matchc(self, g1, g1_rules):
        """The shared adjacency-profile filter prunes candidate checks."""
        config = EIPConfig(eta=0.5, num_workers=2)
        optimized = Match(config).identify(g1, list(g1_rules))
        baseline = MatchC(config).identify(g1, list(g1_rules))
        assert optimized.identified == baseline.identified
        assert optimized.candidates_examined <= baseline.candidates_examined

    def test_timings_populated(self, g1, g1_rules):
        result = identify_entities(g1, g1_rules, eta=0.5, num_workers=3, algorithm="match")
        assert result.timings.num_rounds == 1
        assert result.timings.simulated_parallel_time >= 0.0

    def test_accepted_rules_have_confidence_above_eta(self, g1, g1_rules):
        result = identify_entities(g1, g1_rules, eta=0.5, num_workers=2, algorithm="matchc")
        for rule in result.accepted_rules:
            assert result.rule_confidences[rule] >= 0.5

    def test_identified_is_union_of_accepted_matches(self, g1, g1_rules):
        result = identify_entities(g1, g1_rules, eta=0.5, num_workers=2, algorithm="match")
        union = set()
        for rule in result.accepted_rules:
            union |= result.rule_matches[rule]
        assert result.identified == union

    def test_disvf2_is_exact(self, g1, g1_rules, visit_predicate):
        config = EIPConfig(eta=0.5, num_workers=2)
        result = DisVF2(config).identify(g1, list(g1_rules))
        stats = predicate_stats(g1, visit_predicate)
        for rule in g1_rules:
            assert result.rule_confidences[rule] == pytest.approx(
                evaluate_rule(g1, rule, stats=stats).confidence
            )
