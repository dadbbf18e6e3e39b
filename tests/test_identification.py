"""Tests for entity identification (EIP): Match, Matchc, disVF2, sequential."""

import pytest

from repro.datasets import (
    generate_gpars,
    googleplus_like,
    most_frequent_predicates,
    pokec_like,
    synthetic_graph,
)
from repro.exceptions import IdentificationError
from repro.identification import (
    DisVF2,
    EIPConfig,
    Match,
    MatchC,
    identify_entities,
)
from repro.metrics import evaluate_rule, predicate_stats
from repro.mining import DMineConfig, dmine
from repro.obs import registry
from repro.obs.stats import enable_collection
from repro.testing import counter_value, disable_collection, eip_fingerprint, identify_sequential


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

    @pytest.mark.parametrize(
        "field, value",
        [("num_workers", value) for value in (2.0, "2", True)]
        + [("seed", value) for value in (1.5, "1", True)],
    )
    def test_integer_fields_refuse_non_ints(self, field, value):
        """Refused at construction, not by the partitioner or the RNG later."""
        with pytest.raises(IdentificationError, match=field):
            EIPConfig(**{field: value})

    def test_seed_may_be_none(self):
        assert EIPConfig(seed=None).seed is None

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
        # Fig. 5(n)'s n-sweep on a synthetic graph, besides the paper's G1.
        synthetic = synthetic_graph(300, 900, num_node_labels=20, num_edge_labels=8, seed=7)
        predicate = most_frequent_predicates(synthetic, top=1)[0]
        sampled = generate_gpars(synthetic, predicate, count=8, max_pattern_edges=4, d=2, seed=5)
        for graph, rules, eta in ((g1, g1_rules, 0.5), (synthetic, sampled, 1.0)):
            answers = {
                eip_fingerprint(identify_entities(
                    graph, rules, eta=eta, num_workers=workers, algorithm=algorithm
                ))
                for workers in (1, 2, 4)
            }
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
        # The generator plants what the predicate looks for.
        assert result.identified and result.identified == reference.identified
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
        assert len(result.timings.rounds) == 1
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


def _planted_workload(dataset):
    """Section 6's social graphs at the scale of their Fig. 5 series: the
    graph and the predicate its generator plants."""
    if dataset == "pokec":
        graph = pokec_like(num_users=220, num_communities=8, seed=7)
        edge_label, y_label = "like_book", "personal development"
    else:
        graph = googleplus_like(num_users=220, num_circles=8, seed=7)
        edge_label, y_label = "major", "Computer Science"
    predicate = next(
        predicate for predicate in most_frequent_predicates(graph, top=30)
        if predicate.edges()[0].label == edge_label and predicate.label(predicate.y) == y_label
    )
    return graph, predicate


def _states_expanded(run):
    """``run()``'s result and the matcher states it expanded."""
    counter = "repro_match_states_expanded_total"
    enable_collection()
    before = counter_value(registry(), counter)
    try:
        result = run()
    finally:
        disable_collection()
    return result, counter_value(registry(), counter) - before


class TestSection6Counts:
    """The paper's cost orderings, counted rather than timed.

    Measured with ``PYTHONHASHSEED=0``: Match, Matchc and disVF2 expand
    6,476 / 24,485 / 3,093,356 states on the Pokec-like graph and 3,063 /
    32,387 / 420,392 on the Google+-like one.  On the synthetic graph of
    Fig. 5(n) Match expands 42 states and Matchc 45; it expanded 58 against
    50 before Match decided star patterns by the anchor's profile, so the
    ordering is asserted on the two planted graphs only; see docs/parallel.md.
    """

    @pytest.mark.parametrize("dataset", ["pokec", "googleplus"])
    def test_match_expands_least_and_dmine_prunes(self, dataset):
        graph, predicate = _planted_workload(dataset)
        rules = generate_gpars(graph, predicate, count=8, max_pattern_edges=4, d=2, seed=5)
        answers, expanded = set(), []
        for algorithm in ("match", "matchc", "disvf2"):
            result, states = _states_expanded(
                lambda: identify_entities(graph, rules, eta=1.0, num_workers=4, algorithm=algorithm)
            )
            assert result.identified
            answers.add(eip_fingerprint(result))
            expanded.append(states)
        # The three algorithms differ in cost, never in answer, and neither
        # does the fragmentation (Fig. 5(h)/(i) sweep n).
        for workers in (2, 8):
            answers.add(eip_fingerprint(identify_entities(graph, rules, eta=1.0, num_workers=workers)))
        assert len(answers) == 1
        match, matchc, disvf2 = expanded
        assert match <= matchc <= disvf2

        # DMine and DMineno generate the same candidates; only DMine prunes.
        mined = [
            dmine(graph, predicate, DMineConfig(
                k=4, d=2, lam=0.5, sigma=8, num_workers=2, max_edges=2,
                max_extensions_per_rule=8, max_rules_per_round=30, optimized=optimized,
            ))
            for optimized in (True, False)
        ]
        assert all(result.num_rules_discovered > 0 for result in mined)
        assert mined[0].candidates_generated == mined[1].candidates_generated
        assert mined[0].candidates_pruned > 0 and mined[1].candidates_pruned == 0


@pytest.mark.parametrize("shape", ["census", "connected"])
def test_assemble_over_one_record_equals_identify_entities(shape):
    """One ``Verdicts`` record over every centre, assembled, is the batch
    answer and the sequential oracle's (which takes no set sizes): the
    supports are sizes of its sets, on a mined (disconnected, census-split)
    Σ and on a sampled connected one."""
    from repro.api import parse_predicate
    from repro.identification.census import CensusMatcher, apply_census, plan_census
    from repro.identification.eip import assemble
    from repro.matching.guided import GuidedMatcher

    graph = pokec_like(120, 4, seed=3)
    predicate = parse_predicate("user:like_book:personal development")
    if shape == "census":
        mined = dmine(graph, predicate, DMineConfig(k=4, d=2, sigma=2, num_workers=2, max_edges=2))
        rules = list(mined.all_rules)
    else:
        rules = generate_gpars(graph, predicate, count=6, max_pattern_edges=3, d=2, seed=5)
    plan = plan_census(rules)
    assert bool(plan.entries) == (shape == "census")
    config = EIPConfig(eta=0.5, num_workers=3)
    matcher = CensusMatcher(GuidedMatcher(), dict(plan.substitutions))
    centres = graph.nodes_with_label(rules[0].x_label)
    verdicts = Match(config)._verify_fragment(graph, centres, rules, matcher, rules[0].q_pattern())
    assembled = assemble(rules, apply_census(graph, rules, [verdicts], plan), config.eta)
    batch = identify_entities(graph, rules, eta=config.eta, num_workers=config.num_workers)
    assert batch.identified, "the gate compares a real answer"
    for expected in (batch, identify_sequential(graph, rules, eta=config.eta)):
        assert eip_fingerprint(assembled) == eip_fingerprint(expected)
        assert assembled.rule_confidences == expected.rule_confidences
