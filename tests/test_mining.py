"""Tests for expansion, incremental diversification, reduction and DMine."""

import math

import pytest

from repro.datasets import most_frequent_predicates
from repro.exceptions import MiningError
from repro.matching import VF2Matcher
from repro.metrics import DiversificationObjective, evaluate_rule, predicate_stats
from repro.mining import (
    DMine,
    DMineConfig,
    IncrementalDiversifier,
    apply_reduction_rules,
    candidate_extensions,
    discover_and_diversify,
    dmine,
    dmine_auto,
    dmine_baseline,
    dmine_for_predicates,
    greedy_diversify,
)
from repro.mining.incdiv import RuleInfo
from repro.mining.local_mine import LocalMiner, seed_rule
from repro.partition import partition_graph
from repro.pattern.radius import pattern_radius


class TestConfig:
    def test_defaults_are_valid(self):
        config = DMineConfig()
        assert config.optimized and config.max_edges == 4

    def test_invalid_values_rejected(self):
        with pytest.raises(MiningError):
            DMineConfig(k=0)
        with pytest.raises(MiningError):
            DMineConfig(d=0)
        with pytest.raises(MiningError):
            DMineConfig(sigma=-1)
        with pytest.raises(MiningError):
            DMineConfig(lam=2.0)
        with pytest.raises(MiningError):
            DMineConfig(num_workers=0)
        with pytest.raises(MiningError):
            DMineConfig(max_edges=0)
        with pytest.raises(MiningError):
            DMineConfig(max_rules_per_round=0)
        with pytest.raises(MiningError, match="'threads'"):
            DMineConfig(backend="threads")
        for pool_size in (1.5, True, 0):
            with pytest.raises(MiningError, match="executor_workers"):
                DMineConfig(backend="processes", executor_workers=pool_size)

    @pytest.mark.parametrize(
        "field, value",
        [
            (name, value)
            for name in (
                "k", "d", "num_workers", "max_edges", "max_extensions_per_rule", "max_rules_per_round"
            )
            for value in (2.0, 2.5, "2", True)
        ]
        + [("seed", 1.5), ("seed", "1"), ("seed", True)],
    )
    def test_integer_fields_refuse_non_ints(self, field, value):
        """Refused at construction, not halfway through ``api.mine``."""
        with pytest.raises(MiningError, match=field):
            DMineConfig(**{field: value})

    @pytest.mark.parametrize("sigma", [math.nan, "2", True, None])
    def test_sigma_must_be_a_real_number(self, sigma):
        with pytest.raises(MiningError, match="sigma"):
            DMineConfig(sigma=sigma)

    def test_accepted_number_shapes(self):
        assert DMineConfig(sigma=2.0).sigma == 2.0
        assert DMineConfig(seed=None).seed is None

    def test_without_optimizations(self):
        config = DMineConfig(k=5, d=2).without_optimizations()
        assert not config.optimized
        assert config.k == 5
        assert config == DMineConfig(k=5, d=2, optimized=False)


class TestSeedAndExpansion:
    def test_seed_rule_shape(self, visit_predicate):
        seed = seed_rule(visit_predicate)
        assert seed.antecedent.num_edges == 0
        assert seed.consequent_label == "visit"

    def test_extensions_add_exactly_one_edge(self, g1, visit_predicate):
        seed = seed_rule(visit_predicate)
        extensions = candidate_extensions(
            g1, seed, ["cust1", "cust2"], VF2Matcher(), max_radius=2, max_extensions=50
        )
        assert extensions
        for extension in extensions:
            assert extension.antecedent.num_edges == 1
            assert pattern_radius(extension.pr_pattern()) <= 2

    def test_extensions_never_duplicate_consequent(self, g1, visit_predicate):
        seed = seed_rule(visit_predicate)
        extensions = candidate_extensions(
            g1, seed, ["cust1"], VF2Matcher(), max_radius=2, max_extensions=100
        )
        for extension in extensions:
            assert not extension.antecedent.has_edge(
                extension.x, extension.y, extension.consequent_label
            )

    def test_extension_cap_respected(self, g1, visit_predicate):
        seed = seed_rule(visit_predicate)
        extensions = candidate_extensions(
            g1, seed, ["cust1", "cust2", "cust3"], VF2Matcher(), max_radius=2, max_extensions=3
        )
        assert len(extensions) <= 3

    def test_extensions_of_real_rule_are_supersets(self, g1, r5):
        extensions = candidate_extensions(
            g1, r5, ["cust1"], VF2Matcher(), max_radius=2, max_extensions=20
        )
        for extension in extensions:
            assert extension.antecedent.num_edges == r5.antecedent.num_edges + 1

    def test_no_centers_no_extensions(self, g1, r5):
        assert candidate_extensions(g1, r5, [], VF2Matcher(), max_radius=2) == []


class TestLocalMiner:
    def test_local_supports_sum_to_global(self, g1, visit_predicate):
        config = DMineConfig(k=2, d=2, num_workers=3)
        fragments = partition_graph(
            g1, 3, centers=g1.nodes_with_label("cust"), d=2, seed=0
        )
        miners = [LocalMiner(fragment, visit_predicate, config) for fragment in fragments]
        assert sum(miner.supp_q_local for miner in miners) == 5
        assert sum(miner.supp_q_bar_local for miner in miners) == 1

    def test_evaluate_message_fields(self, g1, r7, visit_predicate):
        config = DMineConfig(k=2, d=2, num_workers=2)
        fragments = partition_graph(
            g1, 2, centers=g1.nodes_with_label("cust"), d=2, seed=0
        )
        miners = [LocalMiner(fragment, visit_predicate, config) for fragment in fragments]
        messages = [miner.evaluate([r7])[0] for miner in miners]
        assert sum(message.supp_r for message in messages) == 3
        assert sum(message.supp_q_qbar for message in messages) == 1
        union = set().union(*(message.rule_matches for message in messages))
        assert union == {"cust1", "cust2", "cust3"}


class TestIncrementalDiversifier:
    def _info(self, confidence, matches, extendable=True):
        return RuleInfo(
            confidence=confidence,
            support=len(matches),
            matches=frozenset(matches),
            upper_confidence=confidence,
            extendable=extendable,
        )

    def test_fill_and_topk(self, g1_rules):
        objective = DiversificationObjective(lam=0.5, k=2, normalizer=5)
        diversifier = IncrementalDiversifier(objective, k=2)
        r1, r5, r6, r7, r8 = g1_rules
        infos = {
            r7: self._info(0.6, {"cust1", "cust2", "cust3"}),
            r8: self._info(0.2, {"cust6"}),
        }
        diversifier.update(infos, infos)
        assert set(diversifier.top_k()) == {r7, r8}
        assert diversifier.objective_value() == pytest.approx(1.08)

    def test_replacement_improves_queue(self, g1_rules):
        objective = DiversificationObjective(lam=0.5, k=2, normalizer=5)
        diversifier = IncrementalDiversifier(objective, k=2)
        r1, r5, r6, r7, r8 = g1_rules
        round1 = {
            r5: self._info(0.8, {"cust1", "cust2", "cust3", "cust4"}),
            r6: self._info(0.2, {"cust4", "cust6"}),
        }
        diversifier.update(round1, dict(round1))
        first_value = diversifier.objective_value()
        round2 = {
            r7: self._info(0.6, {"cust1", "cust2", "cust3"}),
            r8: self._info(0.2, {"cust6"}),
        }
        accumulated = {**round1, **round2}
        diversifier.update(round2, accumulated)
        assert diversifier.objective_value() >= first_value

    def test_trivial_rules_ignored(self, g1_rules):
        objective = DiversificationObjective(lam=0.5, k=2, normalizer=5)
        diversifier = IncrementalDiversifier(objective, k=2)
        r1, r5, *_ = g1_rules
        infos = {r1: self._info(math.inf, {"cust1"}), r5: self._info(0.8, {"cust2"})}
        diversifier.update(infos, infos)
        assert r1 not in diversifier.top_k()

    def test_min_pair_score_before_full(self):
        objective = DiversificationObjective(lam=0.5, k=4, normalizer=5)
        diversifier = IncrementalDiversifier(objective, k=4)
        assert diversifier.min_pair_score == -math.inf

    def test_invalid_k(self):
        objective = DiversificationObjective(lam=0.5, k=2, normalizer=5)
        with pytest.raises(ValueError):
            IncrementalDiversifier(objective, k=0)


class TestReductionRules:
    def _info(self, confidence, upper, extendable=True):
        return RuleInfo(
            confidence=confidence,
            support=1,
            matches=frozenset({"a"}),
            upper_confidence=upper,
            extendable=extendable,
        )

    def test_no_pruning_before_queue_full(self, g1_rules):
        objective = DiversificationObjective(lam=0.5, k=2, normalizer=5)
        r1, r5, *_ = g1_rules
        outcome = apply_reduction_rules(
            {r1: self._info(0.1, 0.1)},
            {r5: self._info(0.1, 0.1)},
            objective,
            min_pair_score=-math.inf,
        )
        assert r1 in outcome.sigma
        assert r5 in outcome.extendable

    def test_non_extendable_removed_from_frontier(self, g1_rules):
        objective = DiversificationObjective(lam=0.5, k=2, normalizer=5)
        r1, r5, *_ = g1_rules
        outcome = apply_reduction_rules(
            {},
            {r1: self._info(0.5, 0.5, extendable=False), r5: self._info(0.5, 0.5)},
            objective,
            min_pair_score=-math.inf,
        )
        assert r1 not in outcome.extendable
        assert r5 in outcome.extendable

    def test_hopeless_sigma_rules_pruned(self, g1_rules):
        objective = DiversificationObjective(lam=0.5, k=2, normalizer=5)
        r1, r5, r6, *_ = g1_rules
        # With F'_m = 1.4, a conf-6.0 rule can still contribute (0.1*6 + 1 =
        # 1.6 > 1.4) but a conf-0.001 rule cannot (≈1.0 <= 1.4).  The weak ΔE
        # rule survives only because it could pair with the strong Σ rule.
        outcome = apply_reduction_rules(
            {r1: self._info(0.001, 0.001), r6: self._info(6.0, 6.0)},
            {r5: self._info(0.001, 0.001)},
            objective,
            min_pair_score=1.4,
        )
        assert r1 not in outcome.sigma
        assert r6 in outcome.sigma
        assert r5 in outcome.extendable
        assert outcome.pruned_sigma >= 1

    def test_hopeless_delta_rules_pruned_without_strong_partner(self, g1_rules):
        objective = DiversificationObjective(lam=0.5, k=2, normalizer=5)
        r1, r5, *_ = g1_rules
        outcome = apply_reduction_rules(
            {r1: self._info(0.001, 0.001)},
            {r5: self._info(0.001, 0.001)},
            objective,
            min_pair_score=1.4,
        )
        assert r1 not in outcome.sigma
        assert r5 not in outcome.extendable

    def test_protected_rules_survive(self, g1_rules):
        objective = DiversificationObjective(lam=0.5, k=2, normalizer=5)
        r1, r5, *_ = g1_rules
        outcome = apply_reduction_rules(
            {r1: self._info(0.001, 0.001)},
            {},
            objective,
            min_pair_score=10.0,
            protected={r1},
        )
        assert r1 in outcome.sigma


class TestGreedyDiversify:
    def _info(self, confidence, matches):
        return RuleInfo(
            confidence=confidence, support=len(matches), matches=frozenset(matches)
        )

    def test_prefers_disjoint_high_confidence(self, g1_rules):
        r1, r5, r6, r7, r8 = g1_rules
        objective = DiversificationObjective(lam=0.5, k=2, normalizer=5)
        infos = {
            r1: self._info(0.6, {"cust1", "cust2", "cust3"}),
            r7: self._info(0.6, {"cust1", "cust2", "cust3"}),
            r8: self._info(0.2, {"cust6"}),
        }
        chosen, value = discover_and_diversify(infos, 2, objective)
        assert r8 in chosen
        assert value == pytest.approx(1.08)

    def test_k_larger_than_candidates(self, g1_rules):
        r1, *_ = g1_rules
        objective = DiversificationObjective(lam=0.5, k=4, normalizer=5)
        chosen = greedy_diversify({r1: self._info(0.5, {"a"})}, 4, objective)
        assert chosen == [r1]

    def test_odd_k_takes_best_single_last(self, g1_rules):
        r1, r5, r6, *_ = g1_rules
        objective = DiversificationObjective(lam=0.5, k=3, normalizer=5)
        infos = {
            r1: self._info(0.9, {"a"}),
            r5: self._info(0.5, {"b"}),
            r6: self._info(0.1, {"c"}),
        }
        chosen = greedy_diversify(infos, 3, objective)
        assert len(chosen) == 3

    def test_invalid_k(self):
        objective = DiversificationObjective(lam=0.5, k=2, normalizer=5)
        with pytest.raises(ValueError):
            greedy_diversify({}, 0, objective)


class TestDMineEndToEnd:
    @pytest.fixture(scope="class")
    def g1_result(self, g1, visit_predicate):
        config = DMineConfig(
            k=2, d=2, sigma=1, lam=0.5, num_workers=2, max_edges=3,
            max_extensions_per_rule=12, max_rules_per_round=25, seed=0,
        )
        return dmine(g1, visit_predicate, config)

    def test_returns_at_most_k_rules(self, g1_result):
        assert 0 < len(g1_result.top_k) <= 2

    def test_rules_are_nontrivial_and_supported(self, g1_result):
        for mined in g1_result.top_k:
            assert mined.support >= 1
            assert not math.isinf(mined.confidence)
            assert mined.rule.antecedent.num_edges >= 1
            assert mined.rule.radius <= 2

    def test_reported_stats_match_direct_evaluation(self, g1, g1_result, visit_predicate):
        stats = predicate_stats(g1, visit_predicate)
        for mined in g1_result.top_k:
            evaluation = evaluate_rule(g1, mined.rule, stats=stats)
            assert evaluation.supp_r == mined.support
            assert evaluation.confidence == pytest.approx(mined.confidence)
            assert evaluation.rule_matches == mined.matches

    def test_objective_value_consistent(self, g1_result, g1, visit_predicate):
        stats = predicate_stats(g1, visit_predicate)
        objective = DiversificationObjective(lam=0.5, k=2, normalizer=stats.normalizer)
        recomputed = objective.total_from_matches(
            [mined.confidence for mined in g1_result.top_k],
            [mined.matches for mined in g1_result.top_k],
        )
        assert g1_result.objective_value == pytest.approx(recomputed)

    def test_timings_and_counters_populated(self, g1_result):
        assert g1_result.rounds_executed >= 1
        assert g1_result.candidates_generated > 0
        assert g1_result.timings.simulated_parallel_time > 0
        assert g1_result.num_rules_discovered == len(g1_result.all_rules)

    def test_baseline_finds_comparable_objective(self, g1, visit_predicate, g1_result):
        config = DMineConfig(
            k=2, d=2, sigma=1, lam=0.5, num_workers=2, max_edges=3,
            max_extensions_per_rule=12, max_rules_per_round=25, seed=0,
        )
        baseline = dmine_baseline(g1, visit_predicate, config)
        assert baseline.top_k
        # Both are 2-approximations of the same objective; neither should be
        # drastically worse than the other.
        assert baseline.objective_value >= 0.5 * g1_result.objective_value - 1e-9
        assert g1_result.objective_value >= 0.5 * baseline.objective_value - 1e-9

    def test_sigma_threshold_enforced(self, g1, visit_predicate):
        config = DMineConfig(
            k=2, d=2, sigma=4, num_workers=2, max_edges=2,
            max_extensions_per_rule=10, max_rules_per_round=20,
        )
        result = DMine(config).mine(g1, visit_predicate)
        for info in result.all_rules.values():
            assert info.support >= 4

    def test_varying_workers_same_rule_quality(self, g1, visit_predicate):
        values = []
        for workers in (1, 3):
            config = DMineConfig(
                k=2, d=2, sigma=1, num_workers=workers, max_edges=2,
                max_extensions_per_rule=10, max_rules_per_round=20, seed=0,
            )
            values.append(dmine(g1, visit_predicate, config).objective_value)
        assert values[0] > 0 and values[1] > 0

    def test_mining_on_social_graph_finds_planted_rule(
        self, small_pokec, pokec_book_predicate, small_googleplus, googleplus_major_predicate
    ):
        config = DMineConfig(
            k=2, d=1, sigma=5, num_workers=3, max_edges=2,
            max_extensions_per_rule=8, max_rules_per_round=15, seed=0,
        )
        for graph, predicate in (
            (small_pokec, pokec_book_predicate),
            (small_googleplus, googleplus_major_predicate),
        ):
            result = dmine(graph, predicate, config)
            assert result.top_k
            # The planted regularity (profession-development readers, shared
            # majors) should give at least one rule with confidence well
            # above 1 (positively correlated antecedent and consequent under
            # the Bayes factor).
            assert max(mined.confidence for mined in result.top_k) > 1.0


class TestMultiPredicateMining:
    def test_dmine_for_predicates(self, g1, visit_predicate):
        config = DMineConfig(
            k=2, d=1, sigma=1, num_workers=2, max_edges=1,
            max_extensions_per_rule=6, max_rules_per_round=10,
        )
        results = dmine_for_predicates(g1, [visit_predicate, visit_predicate], config)
        # Duplicate predicates are mined once.
        assert len(results) == 1
        assert results[visit_predicate].top_k

    def test_dmine_auto_uses_frequent_predicates(self, g1):
        config = DMineConfig(
            k=2, d=1, sigma=1, num_workers=2, max_edges=1,
            max_extensions_per_rule=5, max_rules_per_round=10,
        )
        results = dmine_auto(g1, config, top_predicates=2)
        assert len(results) == 2
        frequent = most_frequent_predicates(g1, top=2)
        assert set(results) == set(frequent)
