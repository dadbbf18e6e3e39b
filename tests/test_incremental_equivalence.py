"""Randomized equivalence: delta-extended matching == full re-matching.

The incremental matcher (:mod:`repro.matching.incremental`) materializes a
parent pattern's matches and produces every one-edge child's match set by
probing only the new edge — with exact fallback whenever it can't.  This
suite drives ~50 seeded random graph/pattern pairs through VF2 and guided
search, asserting the delta-extended match sets are
byte-identical to a full re-match, and additionally runs DMine / EIP
pipelines across both execution backends, holding the store-routed /
prefix-shared results to the naive reference evaluation of the same rules
(:mod:`repro.testing.reference`).  The sibling-group tests extend each
parent with all its children in one call, on graphs with self-loops, and
hold every child to a from-scratch match.  A dedicated class exercises the
:class:`MatchStore` lifecycle: ``Graph.version`` invalidation, canonical
witness reuse, truncation fallback and round-based retention.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.datasets import generate_gpars, most_frequent_predicates, synthetic_graph
from repro.graph import Graph
from repro.identification import identify_entities
from repro.matching import (
    DeltaMatcher,
    MatchEntry,
    GuidedMatcher,
    LocalityMatcher,
    MatchStore,
    VF2Matcher,
    single_edge_delta,
)
from repro.metrics import evaluate_rule
from repro.mining import DMineConfig, dmine
from repro.matching.incremental import DEFAULT_EMBEDDING_CAP
from repro.mining.local_mine import seed_rule
from repro.parallel.executor import BACKENDS
from repro.pattern.canonical import canonical_code
from repro.pattern.gpar import GPAR
from repro.pattern.pattern import Pattern
from repro.testing import ReferenceMatcher, candidate_extensions, reference_identify

SEEDS = range(50)


def _matcher(kind: str):
    if kind == "guided":
        return GuidedMatcher()
    return VF2Matcher()


def _workload(seed: int):
    """One seeded random (graph, parent/child rule pairs) workload.

    Children are produced by the miner's own expansion step, so every pair
    differs by exactly the kind of single edge DMine generates.
    """
    graph = synthetic_graph(
        num_nodes=40 + (seed % 5) * 10,
        num_edges=120 + (seed % 7) * 30,
        num_node_labels=4 + (seed % 3),
        num_edge_labels=3,
        seed=seed,
    )
    predicate = most_frequent_predicates(graph, top=1)[0]
    rules = generate_gpars(
        graph, predicate, count=2, max_pattern_edges=2, d=2, seed=seed
    )
    matcher = VF2Matcher()
    pairs = []
    for rule in rules:
        centers = sorted(matcher.match_set(graph, rule.antecedent), key=str)[:10]
        for child in candidate_extensions(
            graph, rule, centers, matcher, max_radius=3, max_extensions=3
        ):
            pairs.append((rule, child))
    return graph, pairs


@pytest.mark.parametrize("kind", ["vf2", "guided"])
@pytest.mark.parametrize("seed", SEEDS)
def test_delta_extension_equals_full_rematch(seed, kind):
    """Exact matchers: extend(parent entry, +1 edge) == match from scratch."""
    graph, pairs = _workload(seed)
    matcher = _matcher(kind)
    oracle = _matcher(kind)
    store = MatchStore(graph)
    delta_matcher = DeltaMatcher(graph, matcher, store)
    checked = 0
    for parent, child in pairs:
        for parent_pattern, child_pattern in (
            (parent.antecedent, child.antecedent),
            (parent.pr_pattern(), child.pr_pattern()),
        ):
            delta = single_edge_delta(parent_pattern, child_pattern)
            if delta is None:
                continue
            candidates = sorted(
                graph.nodes_with_label(parent_pattern.label(parent_pattern.x)), key=str
            )
            parent_set, entry = delta_matcher.materialize(parent_pattern, candidates)
            assert parent_set == oracle.match_set(
                graph, parent_pattern, candidates=candidates
            )
            assert entry is not None
            [(child_set, _)] = delta_matcher.extend(entry, [(child_pattern, delta, candidates, True)])
            assert child_set == oracle.match_set(
                graph, child_pattern, candidates=candidates
            )
            checked += 1
    if pairs:
        assert checked > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_simulation_falls_back_exactly(seed):
    """A matcher without embeddings to enumerate: the incremental wrapper defers.

    (The id is from dual simulation, the first such matcher; a d-locality
    wrapper is the one that remains.)  ``materialize`` returns no entry
    (nothing to delta-extend later), stores nothing, and the match set is
    the wrapped matcher's own.
    """
    graph, pairs = _workload(seed)
    matcher = LocalityMatcher(VF2Matcher(), radius=2)
    oracle = LocalityMatcher(VF2Matcher(), radius=2)
    store = MatchStore(graph)
    delta_matcher = DeltaMatcher(graph, matcher, store)
    for parent, _child in pairs[:2]:
        pattern = parent.antecedent
        assert not delta_matcher.supports(pattern)
        candidates = sorted(
            graph.nodes_with_label(pattern.label(pattern.x)), key=str
        )
        matches, entry = delta_matcher.materialize(pattern, candidates)
        assert entry is None
        assert matches == oracle.match_set(graph, pattern, candidates=candidates)
        assert len(store) == 0


def test_non_enumerating_matchers_are_not_materialized():
    """Matchers inheriting the base one-match ``iter_matches_at`` must defer.

    The base default yields at most one mapping, which would make a stream
    look provably complete after its first embedding; only genuine
    enumerators (VF2, guided) may feed the store.
    """
    graph = synthetic_graph(40, 120, num_node_labels=4, num_edge_labels=3, seed=0)
    predicate = most_frequent_predicates(graph, top=1)[0]
    rule = generate_gpars(graph, predicate, count=1, max_pattern_edges=2, seed=0)[0]
    store = MatchStore(graph)
    wrapped = LocalityMatcher(VF2Matcher(), radius=2)
    delta_matcher = DeltaMatcher(graph, wrapped, store)
    assert not delta_matcher.supports(rule.antecedent)
    candidates = sorted(
        graph.nodes_with_label(rule.antecedent.label(rule.x)), key=str
    )
    matches, entry = delta_matcher.materialize(rule.antecedent, candidates)
    assert entry is None
    assert matches == wrapped.match_set(graph, rule.antecedent, candidates=candidates)


def test_single_edge_delta_rejects_dropped_parent_node():
    """A child missing a (isolated) parent node yields None, not an error."""
    from repro.pattern.pattern import Pattern

    parent = Pattern(
        nodes={"x": "a", "y": "b", "z": "c"},
        edges=[("x", "y", "e")],
        x="x",
        y="y",
    )
    child = Pattern(
        nodes={"x": "a", "y": "b", "v1": "c"},
        edges=[("x", "y", "e"), ("x", "v1", "f")],
        x="x",
        y="y",
    )
    assert single_edge_delta(parent, child) is None


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_truncated_streams_still_exact(seed):
    """A cap of 1 forces constant truncation; fallback keeps results exact."""
    graph, pairs = _workload(seed)
    matcher = VF2Matcher()
    oracle = VF2Matcher()
    store = MatchStore(graph, cap=1)
    delta_matcher = DeltaMatcher(graph, matcher, store)
    for parent, child in pairs:
        delta = single_edge_delta(parent.antecedent, child.antecedent)
        if delta is None:
            continue
        candidates = sorted(
            graph.nodes_with_label(parent.antecedent.label(parent.x)), key=str
        )
        _, entry = delta_matcher.materialize(parent.antecedent, candidates)
        [(child_set, _)] = delta_matcher.extend(entry, [(child.antecedent, delta, candidates, True)])
        assert child_set == oracle.match_set(
            graph, child.antecedent, candidates=candidates
        )


# ----------------------------------------------------------------------
# sibling groups
# ----------------------------------------------------------------------
def _looped_graph(seed: int) -> Graph:
    """Few labels, dense edges and data self-loops."""
    rng = random.Random(seed)
    graph = Graph(name=f"siblings-{seed}")
    size = 22
    for index in range(size):
        graph.add_node(f"n{index}", rng.choice("abc"))
    for _ in range(70):
        graph.add_edge(f"n{rng.randrange(size)}", f"n{rng.randrange(size)}", rng.choice("pq"))
    for index in rng.sample(range(size), 6):
        graph.add_edge(f"n{index}", f"n{index}", rng.choice("pq"))
    return graph


def _all_children(graph: Graph, rule: GPAR, matcher) -> list[GPAR]:
    """Every child the proposer finds for *rule*, plus closing self-loops at x and y."""
    centers = sorted(matcher.match_set(graph, rule.antecedent), key=str)
    children = candidate_extensions(
        graph, rule, centers, matcher, max_radius=3, max_extensions=10**6
    )
    for node in (rule.x, rule.y):
        for label in "pq":
            children.append(
                GPAR(
                    rule.antecedent.with_edge(node, node, label),
                    rule.consequent_label,
                    name=f"{rule.name}+{node}{label}",
                    validate=False,
                )
            )
    return children


def _kind(delta) -> str:
    if delta.closing:
        return "closing loop" if delta.source == delta.target else "closing"
    return "growing out" if delta.new_node == delta.target else "growing in"


def _anchor_loops(graph: Graph, entry, delta) -> bool:
    """Whether a parent embedding's anchor image is itself a neighbour the
    growing edge's profile count includes (a data self-loop of its label)."""
    if delta.closing:
        return False
    anchor = entry.node_order.index(delta.source if delta.new_node == delta.target else delta.target)
    return any(
        graph.has_edge(embedding[anchor], embedding[anchor], delta.label)
        and graph.node_label(embedding[anchor]) == delta.new_label
        for stream in entry.streams.values()
        for embedding in stream.pulled
    )


def _without_every_other_stream(entry: MatchEntry) -> MatchEntry:
    kept = sorted(entry.streams, key=str)[::2]
    return MatchEntry(
        entry.pattern,
        entry.node_order,
        entry.matches,
        {center: entry.streams[center] for center in kept},
        entry.version,
        entry.canonical_witness,
    )


def _check_group(delta_matcher, oracle, graph, entry, candidates, parent_pattern, children, side, seen):
    """Extend *entry* (matched over *candidates*) with every child in one
    call; each child's set equals a full match over its pool."""
    requests, rules = [], []
    for index, child in enumerate(children):
        delta = single_edge_delta(parent_pattern, side(child))
        if delta is None:
            continue
        pool = candidates[index % 3 :: 1 + index % 2]  # siblings with different pools
        requests.append((side(child), delta, pool, index % 4 != 3))
        rules.append(child)
    outcomes = delta_matcher.extend(entry, requests)
    assert len(outcomes) == len(requests)
    kept = []
    for (pattern, delta, pool, want), (matches, child_entry), rule in zip(requests, outcomes, rules):
        assert matches == oracle.match_set(graph, pattern, candidates=pool), rule.name
        assert (child_entry is not None) == want
        seen[_kind(delta)] += 1
        seen["anchor loop"] += _anchor_loops(graph, entry, delta)
        if child_entry is not None:
            kept.append((rule, child_entry, pool))
    return kept


ANTECEDENT_SIDE = (lambda rule: rule.antecedent, lambda rule: rule.pr_pattern())


@pytest.mark.parametrize("cap", [DEFAULT_EMBEDDING_CAP, 1])
def test_sibling_groups_equal_full_rematches(cap):
    """Each parent is extended with *all* its proposed children in one call,
    on both sides, whole and with every other stream missing; the first kept
    children's streams are extended one level further."""
    seen: Counter = Counter()
    fallbacks = 0
    for seed in range(6):
        graph = _looped_graph(seed)
        matcher, oracle = VF2Matcher(), VF2Matcher()
        predicate = most_frequent_predicates(graph, top=1)[0]
        parents = _all_children(graph, seed_rule(predicate), matcher)[:3]
        for parent in parents:
            children = _all_children(graph, parent, matcher)
            for side in ANTECEDENT_SIDE:
                store = MatchStore(graph, cap=cap)
                delta_matcher = DeltaMatcher(graph, VF2Matcher(), store)
                parent_pattern = side(parent)
                candidates = sorted(graph.nodes_with_label(parent_pattern.label(parent.x)), key=str)
                _, entry = delta_matcher.materialize(parent_pattern, candidates)
                for parent_entry in (entry, _without_every_other_stream(entry)):
                    kept = _check_group(
                        delta_matcher, oracle, graph, parent_entry, candidates,
                        parent_pattern, children, side, seen,
                    )
                    for rule, child_entry, pool in kept[:2]:
                        grandchildren = _all_children(graph, rule, matcher)[:6]
                        _check_group(
                            delta_matcher, oracle, graph, child_entry, pool,
                            side(rule), grandchildren, side, seen,
                        )
                fallbacks += store.statistics.fallback_probes
    kinds = ("growing out", "growing in", "closing", "closing loop", "anchor loop")
    assert min(seen[kind] for kind in kinds) > 0, seen
    assert fallbacks > 0


def test_growing_edge_count_subtracts_the_anchors_own_loop():
    """``v -p-> v`` is counted by ``v``'s profile, but ``v`` is already in the
    embedding: with no other ``p``-neighbour of its label the child fails."""
    graph = Graph(name="anchor-loop")
    for node, label in (("v", "a"), ("w", "b"), ("u", "a")):
        graph.add_node(node, label)
    graph.add_edge("v", "w", "e")
    graph.add_edge("v", "v", "p")
    parent = Pattern({"x": "a", "y": "b"}, [("x", "y", "e")], x="x", y="y")
    child = parent.with_edge("x", "z", "p", target_label="a")
    delta_matcher = DeltaMatcher(graph, VF2Matcher(), MatchStore(graph))
    _, entry = delta_matcher.materialize(parent, ["v"])
    delta = single_edge_delta(parent, child)
    [(matches, _)] = delta_matcher.extend(entry, [(child, delta, ["v"], True)])
    assert matches == set() == VF2Matcher().match_set(graph, child, candidates=["v"])
    graph.add_edge("v", "u", "p")
    _, entry = delta_matcher.materialize(parent, ["v"])
    [(matches, _)] = delta_matcher.extend(entry, [(child, delta, ["v"], True)])
    assert matches == {"v"}


class TestMatchStoreLifecycle:
    def _simple(self):
        graph = synthetic_graph(60, 180, num_node_labels=4, num_edge_labels=3, seed=1)
        predicate = most_frequent_predicates(graph, top=1)[0]
        rule = generate_gpars(graph, predicate, count=1, max_pattern_edges=2, seed=1)[0]
        return graph, rule

    def test_version_invalidation(self):
        """A graph mutation invalidates entries on the next probe."""
        graph, rule = self._simple()
        store = MatchStore(graph)
        delta_matcher = DeltaMatcher(graph, VF2Matcher(), store)
        pattern = rule.antecedent
        candidates = graph.nodes_with_label(pattern.label(pattern.x))
        _, entry = delta_matcher.materialize(pattern, sorted(candidates, key=str))
        assert store.get(pattern) is entry
        before = graph.version
        graph.add_node("fresh-node", "somewhere-new")
        assert graph.version > before
        assert store.get(pattern) is None  # evicted, not served stale
        assert store.statistics.stale_entries == 1
        assert len(store) == 0

    def test_canonical_witness_matches_find_match_at(self):
        """The stored first embedding is exactly the matcher's witness."""
        graph, rule = self._simple()
        matcher = VF2Matcher()
        store = MatchStore(graph)
        delta_matcher = DeltaMatcher(graph, matcher, store)
        pattern = rule.antecedent
        candidates = sorted(
            graph.nodes_with_label(pattern.label(pattern.x)), key=str
        )
        matches, entry = delta_matcher.materialize(pattern, candidates)
        assert entry.canonical_witness
        for center in matches:
            assert entry.witness_for(center) == VF2Matcher().find_match_at(
                graph, pattern, center
            )

    def test_retain_evicts_previous_level(self):
        graph, rule = self._simple()
        store = MatchStore(graph)
        delta_matcher = DeltaMatcher(graph, VF2Matcher(), store)
        candidates = sorted(
            graph.nodes_with_label(rule.antecedent.label(rule.x)), key=str
        )
        _, entry = delta_matcher.materialize(rule.antecedent, candidates)
        _, pr_entry = delta_matcher.materialize(rule.pr_pattern(), candidates)
        assert len(store) == 2
        dropped = store.retain([entry.pattern])
        assert dropped == 1
        assert store.get(rule.antecedent) is entry
        assert store.get(rule.pr_pattern()) is None
        assert pr_entry is not None

    def test_automorphic_sibling_misses(self):
        """An equal-code pattern with different node names must not be served."""
        from repro.pattern.pattern import Pattern

        graph, _rule = self._simple()
        labels = sorted({graph.node_label(node) for node in graph.nodes()})
        a, b = labels[0], labels[1 % len(labels)]
        pattern = Pattern(
            nodes={"x": a, "y": b, "v1": b},
            edges=[("x", "v1", "e0")],
            x="x",
            y="y",
        )
        renamed = Pattern(
            nodes={"x": a, "y": b, "w9": b},
            edges=[("x", "w9", "e0")],
            x="x",
            y="y",
        )
        assert pattern != renamed
        store = MatchStore(graph)
        delta_matcher = DeltaMatcher(graph, VF2Matcher(), store)
        candidates = sorted(graph.nodes_with_label(a), key=str)
        delta_matcher.materialize(pattern, candidates)
        # Same canonical structure, different node names: the embeddings
        # would not align with a caller's delta edge, so this must miss.
        assert canonical_code(pattern) == canonical_code(renamed)
        assert store.get(renamed) is None
        assert store.get(pattern) is not None


@pytest.mark.parametrize("backend", BACKENDS)
def test_dmine_equivalent_across_incremental_modes(backend):
    """Rules mined through the match store carry their reference supports."""
    graph = synthetic_graph(150, 450, num_node_labels=6, num_edge_labels=4, seed=2)
    predicate = most_frequent_predicates(graph, top=1)[0]
    config = DMineConfig(
        k=3,
        d=2,
        sigma=1,
        num_workers=2,
        max_edges=3,
        max_extensions_per_rule=6,
        max_rules_per_round=10,
        backend=backend,
        executor_workers=2,
    )
    result = dmine(graph, predicate, config)
    # Three levels deep: levels two and three were delta-extended.
    assert max(rule.antecedent.num_edges for rule in result.all_rules) == 3
    reference = ReferenceMatcher()
    for rule, info in result.all_rules.items():
        evaluation = evaluate_rule(graph, rule, matcher=reference)
        assert info.support == evaluation.supp_r, rule.name
        assert frozenset(info.matches) == evaluation.rule_matches, rule.name
        assert info.confidence == pytest.approx(evaluation.confidence), rule.name


def _eip_fingerprint(result):
    return (
        sorted(map(str, result.identified)),
        sorted(
            (rule.name, round(confidence, 9))
            for rule, confidence in result.rule_confidences.items()
        ),
        sorted(
            (rule.name, tuple(sorted(map(str, matches))))
            for rule, matches in result.rule_matches.items()
        ),
    )


@pytest.mark.parametrize("seed", [0, 1])
def test_eip_equivalent_across_backends_and_incremental_modes(seed):
    """Prefix-shared Match results equal the reference; counts agree across backends."""
    graph = synthetic_graph(150, 450, num_node_labels=6, num_edge_labels=4, seed=seed)
    predicate = most_frequent_predicates(graph, top=1)[0]
    rules = generate_gpars(graph, predicate, count=4, max_pattern_edges=3, d=2, seed=seed)

    expected = _eip_fingerprint(reference_identify(graph, rules, eta=0.5))
    examined = set()
    for backend in BACKENDS:
        result = identify_entities(
            graph,
            rules,
            eta=0.5,
            num_workers=2,
            algorithm="match",
            backend=backend,
            executor_workers=2,
        )
        assert _eip_fingerprint(result) == expected, backend
        examined.add(result.candidates_examined)
    assert len(examined) == 1


def test_eip_shares_prefix_pools_including_census_split_rules():
    """Σ with common antecedent prefixes actually takes the shared pools.

    Zero ``prefix_pool_hits`` would mean trie sharing silently died (e.g. a
    pattern rewrite broke chain prefixes) — including for a census-split
    twin, whose x-part is matched through ``CensusMatcher`` substitution.
    """
    graph = synthetic_graph(150, 450, num_node_labels=6, num_edge_labels=4, seed=0)
    predicate = most_frequent_predicates(graph, top=1)[0]
    rules = generate_gpars(graph, predicate, count=4, max_pattern_edges=3, d=2, seed=0)
    base = next(rule for rule in rules if rule.antecedent.num_edges >= 2)
    expanded = base.antecedent.expanded()
    census_twin = GPAR(
        Pattern(
            nodes={
                **{node: expanded.label(node) for node in expanded.nodes()},
                "census_free": predicate.label(predicate.y),
            },
            edges=list(expanded.edges()),
            x=expanded.x,
            y=expanded.y,
        ),
        consequent_label=base.consequent_label,
        name=f"{base.name}+census",
        validate=False,
    )
    sigma = [base, census_twin]
    result = identify_entities(graph, sigma, eta=0.5, num_workers=2, algorithm="match")
    assert result.prefix_pool_hits > 0
    assert _eip_fingerprint(result) == _eip_fingerprint(
        reference_identify(graph, sigma, eta=0.5)
    )
