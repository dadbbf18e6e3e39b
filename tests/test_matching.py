"""Tests for the subgraph-isomorphism matchers.

The VF2-style matcher is checked against a brute-force oracle on small
graphs; the guided matcher and the locality/multi-pattern wrappers are
checked for agreement with the VF2 matcher on the paper's graphs.
"""

import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import graph_g1
from repro.graph import Graph, columnar_view
from repro.matching import (
    GuidedMatcher,
    LocalityMatcher,
    MultiPatternMatcher,
    VF2Matcher,
    adjacency_profile,
    label_candidates,
    profile_satisfies,
    required_profile,
)
from repro.matching.base import WitnessStore, build_search_plan
from repro.matching.candidates import degree_consistent
from repro.exceptions import MatchingError
from repro.pattern import Pattern, PatternBuilder
from repro.testing import ReferenceMatcher, discard_columnar


def brute_force_match_set(graph: Graph, pattern: Pattern) -> set:
    """Oracle: try every injective assignment of pattern nodes to data nodes."""
    expanded = pattern.expanded()
    pattern_nodes = list(expanded.nodes())
    data_nodes = list(graph.nodes())
    matches = set()
    if len(pattern_nodes) > len(data_nodes):
        return matches
    for assignment in permutations(data_nodes, len(pattern_nodes)):
        mapping = dict(zip(pattern_nodes, assignment))
        if any(graph.node_label(mapping[u]) != expanded.label(u) for u in pattern_nodes):
            continue
        if all(
            graph.has_edge(mapping[e.source], mapping[e.target], e.label)
            for e in expanded.edges()
        ):
            matches.add(mapping[expanded.x])
    return matches


@pytest.fixture
def tiny_graph() -> Graph:
    graph = Graph(name="tiny")
    for node, label in (
        ("a", "cust"),
        ("b", "cust"),
        ("c", "cust"),
        ("r1", "restaurant"),
        ("r2", "restaurant"),
    ):
        graph.add_node(node, label)
    graph.add_edge("a", "b", "friend")
    graph.add_edge("b", "a", "friend")
    graph.add_edge("b", "c", "friend")
    graph.add_edge("a", "r1", "visit")
    graph.add_edge("b", "r1", "visit")
    graph.add_edge("b", "r2", "like")
    graph.add_edge("c", "r2", "visit")
    return graph


@pytest.fixture
def friend_visit_pattern() -> Pattern:
    return (
        PatternBuilder()
        .node("x", "cust")
        .node("f", "cust")
        .node("y", "restaurant")
        .edge("x", "f", "friend")
        .edge("f", "y", "visit")
        .designate(x="x", y="y")
        .build()
    )


class TestSearchPlan:
    def test_plan_starts_at_anchor(self, friend_visit_pattern):
        plan = build_search_plan(friend_visit_pattern, "x")
        assert plan.order[0] == "x"
        assert len(plan.order) == 3
        # Every later node connects to already-placed ones.
        assert all(plan.connections[i] for i in range(1, 3))

    def test_plan_unknown_anchor(self, friend_visit_pattern):
        with pytest.raises(MatchingError):
            build_search_plan(friend_visit_pattern, "ghost")

    def test_plan_handles_disconnected_pattern(self):
        pattern = Pattern(
            nodes={"x": "cust", "y": "restaurant"}, edges=[], x="x", y="y"
        )
        plan = build_search_plan(pattern, "x")
        assert len(plan.order) == 2
        assert plan.connections[1] == []


class TestCandidates:
    def test_label_candidates(self, tiny_graph, friend_visit_pattern):
        assert label_candidates(tiny_graph, friend_visit_pattern, "y") == {"r1", "r2"}

    def test_required_profile(self, friend_visit_pattern):
        profile = required_profile(friend_visit_pattern, "f")
        assert profile[("out", "visit", "restaurant")] == 1
        assert profile[("in", "friend", "cust")] == 1

    def test_adjacency_profile_and_satisfaction(self, tiny_graph, friend_visit_pattern):
        needed = required_profile(friend_visit_pattern, "f")
        assert profile_satisfies(adjacency_profile(tiny_graph, "b"), needed)
        # A restaurant node has neither the friend in-edge nor a visit out-edge.
        assert not profile_satisfies(adjacency_profile(tiny_graph, "r1"), needed)

    def test_degree_consistent(self, tiny_graph, friend_visit_pattern):
        assert degree_consistent(tiny_graph, "a", friend_visit_pattern, "x")
        assert not degree_consistent(tiny_graph, "r1", friend_visit_pattern, "x")


@pytest.mark.parametrize("matcher_factory", [VF2Matcher, GuidedMatcher])
class TestAnchoredMatching:
    def test_match_set_against_oracle(self, matcher_factory, tiny_graph, friend_visit_pattern):
        matcher = matcher_factory()
        expected = brute_force_match_set(tiny_graph, friend_visit_pattern)
        assert matcher.match_set(tiny_graph, friend_visit_pattern) == expected

    def test_find_match_at_returns_valid_mapping(
        self, matcher_factory, tiny_graph, friend_visit_pattern
    ):
        matcher = matcher_factory()
        mapping = matcher.find_match_at(tiny_graph, friend_visit_pattern, "a")
        assert mapping is not None
        assert mapping["x"] == "a"
        assert tiny_graph.has_edge(mapping["x"], mapping["f"], "friend")
        assert tiny_graph.has_edge(mapping["f"], mapping["y"], "visit")
        assert len(set(mapping.values())) == len(mapping)

    def test_no_match_for_wrong_label(self, matcher_factory, tiny_graph, friend_visit_pattern):
        matcher = matcher_factory()
        assert matcher.find_match_at(tiny_graph, friend_visit_pattern, "r1") is None

    def test_no_match_for_unknown_node(self, matcher_factory, tiny_graph, friend_visit_pattern):
        matcher = matcher_factory()
        assert not matcher.exists_match_at(tiny_graph, friend_visit_pattern, "ghost")

    def test_injectivity_enforced(self, matcher_factory):
        """Two pattern nodes with the same label need two distinct data nodes."""
        graph = Graph()
        graph.add_node("x", "cust")
        graph.add_node("r", "restaurant")
        graph.add_edge("x", "r", "like")
        pattern = (
            PatternBuilder()
            .node("x", "cust")
            .node("r", "restaurant", copies=2)
            .edge("x", "r", "like")
            .designate(x="x")
            .build()
        )
        matcher = matcher_factory()
        assert matcher.match_set(graph, pattern) == set()

    def test_copies_matched_on_paper_graph(self, matcher_factory, r1):
        matcher = matcher_factory()
        matches = matcher.match_set(graph_g1(), r1.pr_pattern())
        assert matches == {"cust1", "cust2", "cust3"}

    def test_edge_label_must_match(self, matcher_factory, tiny_graph):
        pattern = (
            PatternBuilder()
            .node("x", "cust")
            .node("y", "restaurant")
            .edge("x", "y", "hates")
            .designate(x="x", y="y")
            .build()
        )
        assert matcher_factory().match_set(tiny_graph, pattern) == set()

    def test_disconnected_pattern_free_node(self, matcher_factory, tiny_graph):
        pattern = Pattern(
            nodes={"x": "cust", "other": "restaurant"}, edges=[], x="x", y="other"
        )
        matcher = matcher_factory()
        # Every cust matches: some restaurant exists somewhere.
        assert matcher.match_set(tiny_graph, pattern) == {"a", "b", "c"}

    def test_statistics_counters_move(self, matcher_factory, tiny_graph, friend_visit_pattern):
        matcher = matcher_factory()
        matcher.match_set(tiny_graph, friend_visit_pattern)
        assert matcher.statistics.candidates_considered > 0
        matcher.reset_statistics()
        assert matcher.statistics.candidates_considered == 0


class TestFullEnumeration:
    def test_find_all_counts_distinct_mappings(self, tiny_graph, friend_visit_pattern):
        matcher = VF2Matcher()
        mappings = matcher.find_all(tiny_graph, friend_visit_pattern)
        keys = {tuple(sorted(m.items(), key=lambda kv: str(kv[0]))) for m in mappings}
        assert len(keys) == len(mappings)
        assert {m["x"] for m in mappings} == brute_force_match_set(
            tiny_graph, friend_visit_pattern
        )

    def test_find_all_limit(self, tiny_graph, friend_visit_pattern):
        matcher = VF2Matcher()
        assert len(matcher.find_all(tiny_graph, friend_visit_pattern, limit=1)) == 1

    def test_guided_iter_matches_agree_with_vf2(self, tiny_graph, friend_visit_pattern):
        vf2_anchors = {
            m["x"] for m in VF2Matcher().find_all(tiny_graph, friend_visit_pattern)
        }
        guided_anchors = {
            m["x"] for m in GuidedMatcher().find_all(tiny_graph, friend_visit_pattern)
        }
        assert vf2_anchors == guided_anchors


class TestGuidedSpecifics:
    def test_sketch_pruning_counts(self, tiny_graph, friend_visit_pattern):
        matcher = GuidedMatcher()
        matcher.match_set(tiny_graph, friend_visit_pattern)
        # Pruning may or may not trigger on this tiny graph, but the counter
        # must never be negative and caches must be populated.
        assert matcher.statistics.sketch_prunes >= 0

    def test_invalid_sketch_hops(self):
        with pytest.raises(ValueError):
            GuidedMatcher(sketch_hops=0)


class _LastNodeProbe(GuidedMatcher):
    """Counts last-node candidate lists with several entries, some already used."""

    crowded = 0

    def _candidates(self, graph, resident, pattern, plan, position, mapping):
        found = super()._candidates(graph, resident, pattern, plan, position, mapping)
        if position == len(plan.order) - 1 and len(found) > 1:
            self.crowded += bool(set(found) & set(mapping.values()))
        return found


def _star_case(seed: int) -> tuple[Graph, Pattern]:
    """Two labels and two edge labels, so a star's leaves compete for the same
    neighbours of the anchor and the last leaf's candidates hold used nodes."""
    rng = random.Random(seed)
    graph = Graph(name=f"star{seed}")
    size = rng.randint(5, 14)
    for index in range(size):
        graph.add_node(f"n{index}", rng.choice("ab"))
    for _ in range(rng.randint(2 * size, 6 * size)):
        source, target = rng.sample(range(size), 2)
        graph.add_edge(f"n{source}", f"n{target}", rng.choice("pq"))
    nodes, edges = {"x": "a"}, []
    shared = (rng.choice("ab"), rng.choice("pq"), rng.random() < 0.7)  # most leaves look alike
    for index in range(rng.randint(2, 3)):
        leaf = f"l{index}"
        label, edge_label, outgoing = shared if rng.random() < 0.75 else (
            rng.choice("ab"), rng.choice("pq"), rng.random() < 0.7
        )
        nodes[leaf] = label
        edges.append(("x", leaf, edge_label) if outgoing else (leaf, "x", edge_label))
    leaves = [node for node in nodes if node != "x"]
    if rng.random() < 0.4:
        source, target = rng.sample(leaves, 2)
        edges.append((source, target, rng.choice("pq")))
    return graph, Pattern(nodes, edges, x="x")


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_last_plan_node_unranked_decides_as_the_reference(seed):
    """The last plan node is neither sketch-tested nor ranked: every unused
    candidate completes an embedding, so each verdict equals the reference's,
    with or without the resident structure and with kept witnesses."""
    graph, pattern = _star_case(seed)
    reference = ReferenceMatcher()
    expected = {node: reference.exists_match_at(graph, pattern, node) for node in graph.nodes()}
    witnessing = _LastNodeProbe()
    witnessing.witnesses = WitnessStore()
    for resident in (False, True):
        if resident:
            columnar_view(graph)
        for matcher in (_LastNodeProbe(), witnessing):
            assert {node: matcher.exists_match_at(graph, pattern, node) for node in graph.nodes()} == expected
            for node, found in expected.items():
                mapping = matcher.find_match_at(graph, pattern, node)
                assert (mapping is not None) == found
                if mapping is not None:
                    assert mapping in list(reference.iter_matches_at(graph, pattern, node))
    discard_columnar(graph)


def test_last_plan_node_cases_crowd_the_last_node():
    """The property above is not vacuous: its cases give the last node
    several candidates, some of them already used, and both verdicts occur.
    Probed through ``find_match_at``, which searches even the stars whose
    ``exists_match_at`` verdict the anchor's profile decides."""
    probe, verdicts = _LastNodeProbe(), set()
    for seed in range(60):
        graph, pattern = _star_case(seed)
        verdicts |= {probe.find_match_at(graph, pattern, node) is not None for node in graph.nodes()}
    assert probe.crowded > 20 and verdicts == {True, False}


# ----------------------------------------------------------------------
# pattern self-loops
# ----------------------------------------------------------------------
def _loop_graph(variant: str) -> Graph:
    """``a -p-> b``; ``cycle`` adds ``b -p-> c -p-> b``, ``loop`` also ``b -p-> b``."""
    graph = Graph(name=f"loops-{variant}")
    for node, label in (("a", "A"), ("b", "B"), ("c", "B")):
        graph.add_node(node, label)
    graph.add_edge("a", "b", "p")
    if variant != "plain":
        graph.add_edge("b", "c", "p")
        graph.add_edge("c", "b", "p")
    if variant == "loop":
        graph.add_edge("b", "b", "p")
    return graph


LOOP_MATCHERS = [VF2Matcher, GuidedMatcher, ReferenceMatcher]


class TestSelfLoops:
    PATTERN = Pattern({"x": "A", "y": "B"}, [("x", "y", "p"), ("y", "y", "p")], x="x", y="y")

    @pytest.mark.parametrize("resident", [False, True])
    @pytest.mark.parametrize("make", LOOP_MATCHERS)
    @pytest.mark.parametrize("variant, expected", [("plain", False), ("cycle", False), ("loop", True)])
    def test_a_loop_on_a_later_node_is_checked(self, make, variant, expected, resident):
        graph = _loop_graph(variant)
        if resident:
            columnar_view(graph)
        try:
            assert make().exists_match_at(graph, self.PATTERN, "a") is expected
            assert (make().find_match_at(graph, self.PATTERN, "a") is not None) is expected
            assert brute_force_match_set(graph, self.PATTERN) == ({"a"} if expected else set())
        finally:
            discard_columnar(graph)

    @pytest.mark.parametrize("make", LOOP_MATCHERS)
    def test_a_loop_on_the_anchor_is_checked(self, make):
        pattern = Pattern({"x": "B", "y": "B"}, [("x", "y", "p"), ("x", "x", "p")], x="x", y="y")
        graph = _loop_graph("loop")
        assert make().match_set(graph, pattern) == brute_force_match_set(graph, pattern) == {"b"}

    def test_plans_compile_loops_per_position(self):
        plan = build_search_plan(self.PATTERN, "x")
        assert plan.self_loops == ((), ("p",))
        loop_free = Pattern({"x": "A", "y": "B"}, [("x", "y", "p")], x="x", y="y")
        assert build_search_plan(loop_free, "x").self_loops == ()


def _loop_case(seed: int) -> tuple[Graph, Pattern]:
    rng = random.Random(seed)
    graph = Graph(name=f"loop{seed}")
    size = rng.randint(3, 7)
    for index in range(size):
        graph.add_node(f"n{index}", rng.choice("ab"))
    for _ in range(rng.randint(size, 4 * size)):
        graph.add_edge(f"n{rng.randrange(size)}", f"n{rng.randrange(size)}", rng.choice("pq"))
    names = ["x", "u", "w"][: rng.randint(2, 3)]
    edges = {(names[index - 1], name, rng.choice("pq")) for index, name in enumerate(names) if index}
    edges |= {(name, name, rng.choice("pq")) for name in rng.sample(names, rng.randint(1, len(names)))}
    return graph, Pattern({name: rng.choice("ab") for name in names}, sorted(edges), x="x")


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_patterns_with_loops_match_as_brute_force(seed):
    graph, pattern = _loop_case(seed)
    expected = brute_force_match_set(graph, pattern)
    for make in LOOP_MATCHERS:
        assert make().match_set(graph, pattern) == expected
    columnar_view(graph)
    try:
        assert VF2Matcher().match_set(graph, pattern) == GuidedMatcher().match_set(graph, pattern) == expected
    finally:
        discard_columnar(graph)


class TestLocalityMatcher:
    def test_agrees_with_global_when_radius_sufficient(self, g1, r7):
        local = LocalityMatcher(VF2Matcher(), radius=2)
        globally = VF2Matcher()
        assert local.match_set(g1, r7.pr_pattern()) == globally.match_set(
            g1, r7.pr_pattern()
        )

    def test_unknown_anchor_returns_none(self, g1, r7):
        local = LocalityMatcher(VF2Matcher(), radius=2)
        assert local.find_match_at(g1, r7.pr_pattern(), "ghost") is None

    def test_radius_defaults_to_pattern_radius(self, g1, r1):
        local = LocalityMatcher(VF2Matcher(), radius=None)
        assert local.match_set(g1, r1.pr_pattern()) == {"cust1", "cust2", "cust3"}


class TestMultiPatternMatcher:
    def test_match_sets_agree_with_individual(self, g1, g1_rules):
        multi = MultiPatternMatcher(GuidedMatcher())
        combined = multi.match_sets(g1, list(g1_rules))
        single = VF2Matcher()
        for rule in g1_rules:
            assert combined[rule] == single.match_set(g1, rule.pr_pattern())

    def test_profile_filter_only_prunes_impossible(self, g1, g1_rules):
        from repro.testing import ReferenceMatcher

        # The shared profile filter is a necessary condition: with and
        # without a resident columnar view to run it on, the match sets are
        # the unfiltered reference's.
        reference = ReferenceMatcher()
        expected = {
            rule: reference.match_set(g1, rule.pr_pattern()) for rule in g1_rules
        }
        candidates = sorted(g1.nodes_with_label(g1_rules[0].x_label))
        multi = MultiPatternMatcher(VF2Matcher())
        pools = dict.fromkeys(g1_rules, candidates)
        assert multi.match_sets(g1, list(g1_rules), pools) == expected
        resident = g1.copy()
        columnar_view(resident)
        assert multi.match_sets(resident, list(g1_rules), pools) == expected

    def test_each_pool_is_profile_filtered_once(self, monkeypatch):
        """The trie only narrows pools: the anchored matcher's ``match_set``
        filters each one, once, and counts every candidate it drops."""
        from repro.datasets import generate_gpars, most_frequent_predicates, synthetic_graph
        from repro.graph.columnar import ColumnarFragment

        graph = synthetic_graph(300, 1200, num_node_labels=5, num_edge_labels=3, seed=5)
        predicate = most_frequent_predicates(graph, top=1)[0]
        rules = generate_gpars(graph, predicate, count=6, max_pattern_edges=3, d=2, seed=5)
        candidates = sorted(graph.nodes_with_label(predicate.label(predicate.x)))
        resident = columnar_view(graph)
        filtered = []  # (pool size, survivors) of every row filter
        original_filter = ColumnarFragment.filter_candidates

        def recording_filter(self, pool, requirement):
            pool = list(pool)
            survivors = original_filter(self, pool, requirement)
            filtered.append((len(pool), len(survivors)))
            return survivors

        monkeypatch.setattr(ColumnarFragment, "filter_candidates", recording_filter)
        matcher = GuidedMatcher()
        pooled = []
        original_match_set = matcher.match_set

        def recording_match_set(graph, pattern, candidates=None):
            pooled.append(candidates is not None)
            return original_match_set(graph, pattern, candidates=candidates)

        matcher.match_set = recording_match_set
        multi = MultiPatternMatcher(matcher)
        before = resident.statistics.row_filters
        result = multi.match_sets(graph, rules, dict.fromkeys(rules, candidates))
        assert all(pooled) and multi.statistics.prefix_pool_hits > 0
        assert resident.statistics.row_filters - before == len(pooled) == len(filtered)
        dropped = sum(size - survivors for size, survivors in filtered)
        assert dropped > 0
        assert multi.statistics.profile_prunes == dropped
        reference = ReferenceMatcher()
        for rule in rules:
            assert result[rule] == reference.match_set(graph, rule.pr_pattern()) & set(candidates)

    def test_candidate_restriction(self, g1, r1):
        multi = MultiPatternMatcher(VF2Matcher())
        result = multi.match_sets(g1, [r1], {r1: ["cust1", "cust5"]})
        assert result[r1] == {"cust1"}

    def test_one_pool_per_key(self):
        """Keys under one shared prefix keep their own pools: each result is
        its pattern's match set inside its pool, however the pools overlap."""
        from repro.api import parse_predicate
        from repro.datasets import generate_gpars, pokec_like

        graph = pokec_like(60, 3, seed=7)
        predicate = parse_predicate("user:like_book:personal development")
        rules = generate_gpars(graph, predicate, count=8, max_pattern_edges=3, d=2, seed=0)
        centres = sorted(graph.nodes_with_label(predicate.label(predicate.x)), key=str)
        rng = random.Random(11)
        pools = {rule: rng.sample(centres, len(centres) // 3) for rule in rules}
        pools[rules[0]] = None
        multi = MultiPatternMatcher(GuidedMatcher())
        result = multi.antecedent_match_sets(graph, rules, pools)
        assert multi.statistics.prefix_pool_hits > 0
        reference = ReferenceMatcher()
        for rule, pool in pools.items():
            truth = reference.match_set(graph, rule.antecedent)
            assert result[rule] == (truth if pool is None else truth & set(pool))

    def test_antecedent_match_sets(self, g1, r1):
        multi = MultiPatternMatcher(VF2Matcher())
        result = multi.antecedent_match_sets(g1, [r1])
        assert result[r1] == {"cust1", "cust2", "cust3", "cust5"}

    def test_empty_rule_list(self, g1):
        multi = MultiPatternMatcher(VF2Matcher())
        assert multi.match_sets(g1, []) == {}
