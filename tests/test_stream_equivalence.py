"""Randomized equivalence: streaming repair == from-scratch recompute.

The acceptance gate of the streaming subsystem: across 50 seeded
(graph, update-batch) pairs,

* a delta-patched :class:`~repro.graph.columnar.ColumnarFragment` is
  **byte-identical** to a freshly built one — layer contents and sketches —
  and VF2 / guided matchers probing it produce the same
  match sets either way;
* a :class:`~repro.stream.StreamingIdentifier` maintained across batches
  reports identifications and confidences byte-identical to
  ``identify_entities`` re-run from scratch on the mutated graph — across
  the sequential/processes backends and both Match and Matchc —
  and serves per-rule antecedent match sets equal to the naive reference's;
* DMine runs against the delta-patched resident state mine byte-identical
  rules to runs on a pristine copy of the same mutated graph, on every
  backend.
"""

from __future__ import annotations

import pytest

from repro.datasets import generate_gpars, most_frequent_predicates, synthetic_graph
from repro.exceptions import IdentificationError
from repro.graph import ColumnarFragment, columnar_view
from repro.identification import identify_entities
from repro.identification.eip import EIPConfig
from repro.matching import (
    DeltaMatcher,
    GuidedMatcher,
    MatchStore,
    VF2Matcher,
)
from repro.mining import DMineConfig, dmine
from repro.parallel.executor import BACKENDS
from repro.stream import StreamingIdentifier, random_update_batch
from repro.stream.identifier import read_checkpoint, write_checkpoint
from repro.testing import (
    ReferenceMatcher,
    apply_with_coverage,
    reference_identify,
    resident_label,
    resident_sketch,
    served_antecedent_sets,
)

SEEDS = range(50)


def _covered(identifier, batch):
    """Apply *batch*; every verdict it changed was re-verified (and each
    stored verdict equals the reference's afterwards)."""
    report, _pairs, problems = apply_with_coverage(identifier, batch)
    assert not problems, problems[:5]
    return report


def _workload_graph(seed: int):
    """One seeded random graph (updates are sampled lazily while applying,
    so each batch is valid against the state the previous ones left)."""
    return synthetic_graph(
        num_nodes=60 + (seed % 5) * 15,
        num_edges=180 + (seed % 7) * 40,
        num_node_labels=4 + (seed % 3),
        num_edge_labels=3,
        seed=seed,
    )


def _apply_batches(graph, seed: int, count: int, size: int = 7):
    applied = []
    for position in range(count):
        batch = random_update_batch(graph, size=size, seed=seed * 100 + position)
        batch.apply(graph)
        applied.append(batch)
    return applied


def _matcher(kind: str):
    if kind == "guided":
        return GuidedMatcher()
    return VF2Matcher()


@pytest.mark.parametrize("seed", SEEDS)
def test_patched_index_is_byte_identical_to_fresh_build(seed):
    """Interleaved mutations + delta refresh == a from-scratch index.

    The graph is large relative to the batches so ``refresh()`` provably
    takes the ``apply_delta`` patch path (the touched region stays under the
    rebuild-fraction heuristic) — the small-graph rebuild fallback is
    covered separately in ``tests/test_stream.py``.
    """
    graph = synthetic_graph(
        num_nodes=200 + (seed % 5) * 20,
        num_edges=600 + (seed % 7) * 60,
        num_node_labels=4 + (seed % 3),
        num_edge_labels=3,
        seed=seed,
    )
    index = ColumnarFragment(graph)
    nodes = sorted(graph.nodes(), key=str)
    for node in nodes[: len(nodes) // 3]:
        resident_sketch(index, node, 2)
        for label in sorted(graph.edge_labels()):
            index.out_neighbors(node, label)
            index.in_neighbors(node, label)
    # Interleave batch updates with plain single mutations.
    _apply_batches(graph, seed, count=2, size=5)
    graph.add_node(f"solo-{seed}", sorted(graph.node_labels())[0])
    index.refresh()
    assert index.statistics.builds == 1, "refresh must patch, not rebuild"
    fresh = ColumnarFragment(graph)
    assert index._buckets == fresh._buckets
    for node in sorted(graph.nodes(), key=str):
        assert resident_label(index, node) == resident_label(fresh, node)
        assert index.profile(node) == fresh.profile(node)
        assert resident_sketch(index, node, 2) == resident_sketch(fresh, node, 2)
        for label in sorted(graph.edge_labels()):
            assert index.out_neighbors(node, label) == fresh.out_neighbors(node, label)
            assert index.in_neighbors(node, label) == fresh.in_neighbors(node, label)


@pytest.mark.parametrize("kind", ["vf2", "guided"])
@pytest.mark.parametrize("seed", range(0, 50, 2))
def test_matchers_agree_on_patched_index(seed, kind):
    """Match sets probed through a patched index == raw probes of a fresh copy."""
    graph = _workload_graph(seed)
    predicate = most_frequent_predicates(graph, top=1)[0]
    rules = generate_gpars(graph, predicate, count=2, max_pattern_edges=3, d=2, seed=seed)
    columnar_view(graph)  # compile + register the resident structure
    matcher = _matcher(kind)
    for rule in rules:  # warm the resident index with real traffic
        matcher.match_set(graph, rule.pr_pattern())
    _apply_batches(graph, seed, count=2)
    oracle = _matcher(kind)
    pristine = graph.copy()  # fresh graph object, nothing resident => raw probes
    for rule in rules:
        for pattern in (rule.antecedent, rule.pr_pattern()):
            patched = matcher.match_set(graph, pattern)
            fresh = oracle.match_set(pristine, pattern)
            assert patched == fresh, (seed, kind, pattern)


def _eip_fingerprint(result):
    return (
        tuple(sorted(map(str, result.identified))),
        tuple(
            sorted(
                (rule.name, round(confidence, 9))
                for rule, confidence in result.rule_confidences.items()
            )
        ),
        tuple(
            sorted(
                (rule.name, tuple(sorted(map(str, matches))))
                for rule, matches in result.rule_matches.items()
            )
        ),
    )


def _served_matches_check(identifier, rules):
    """Served antecedent match sets == whole-graph reference matching.

    The reference matches each rule's *full* antecedent (free parts
    included) against the whole graph — for a census-split rule, the
    semantics the census decomposition claims to reproduce, injectivity
    coupling and all.
    """
    graph = identifier.graph
    oracle = ReferenceMatcher()
    served = served_antecedent_sets(identifier)
    for rule in rules:
        assert served[rule] == oracle.match_set(graph, rule.antecedent), rule.name


@pytest.mark.parametrize("seed", SEEDS)
def test_streaming_identifier_equals_recompute(seed):
    """Maintained EIP answer == from-scratch run, and every served antecedent
    match set == the reference's, after every batch."""
    graph = _workload_graph(seed)
    predicate = most_frequent_predicates(graph, top=1)[0]
    rules = generate_gpars(graph, predicate, count=3, max_pattern_edges=3, d=2, seed=seed)
    with StreamingIdentifier(
        graph, rules, config=EIPConfig(eta=0.5, num_workers=2 + seed % 3, seed=0)
    ) as identifier:
        assert _eip_fingerprint(identifier.result) == _eip_fingerprint(
            identifier.recompute()
        )
        _served_matches_check(identifier, rules)
        for position in range(2):
            batch = random_update_batch(graph, size=7, seed=seed * 100 + position)
            _covered(identifier, batch)
            assert _eip_fingerprint(identifier.result) == _eip_fingerprint(
                identifier.recompute()
            ), (seed, position)
            _served_matches_check(identifier, rules)


@pytest.mark.parametrize("against_reference", [True, False])
@pytest.mark.parametrize("backend", [*BACKENDS, "threads"])
@pytest.mark.parametrize("algorithm", ["match"])
def test_streaming_identifier_across_backends(
    backend, algorithm, against_reference, tmp_path
):
    """Every backend maintains the same answer over one sequence.

    One leg holds the maintained answer to the naive whole-graph reference
    (``reference_identify``), the other to a sequential from-scratch run of
    the batch solver *algorithm*: one fingerprint across backend x both.
    The ``threads`` legs run on ``sequential`` and, between the two batches,
    move through a checkpoint naming the retired thread backend.
    """
    base = synthetic_graph(120, 360, num_node_labels=5, num_edge_labels=3, seed=9)
    predicate = most_frequent_predicates(base, top=1)[0]
    rules = generate_gpars(base, predicate, count=4, max_pattern_edges=3, d=2, seed=9)
    retired = backend not in BACKENDS
    identifier = StreamingIdentifier(
        base.copy(),
        rules,
        config=EIPConfig(
            eta=0.5,
            num_workers=3,
            seed=0,
            backend="sequential" if retired else backend,
            executor_workers=2,
        ),
    )
    try:
        for position in range(2):
            if retired and position == 1:
                identifier = _resumed_off_retired_backend(identifier, backend, tmp_path)
            batch = random_update_batch(identifier.graph, size=7, seed=900 + position)
            _covered(identifier, batch)
        maintained = _eip_fingerprint(identifier.result)
        if against_reference:
            fresh = reference_identify(identifier.graph, rules, eta=0.5)
        else:
            fresh = identify_entities(
                identifier.graph,
                list(rules),
                eta=0.5,
                num_workers=3,
                algorithm=algorithm,
            )
    finally:
        identifier.close()
    assert maintained == _eip_fingerprint(fresh), (backend, algorithm)


def _resumed_off_retired_backend(identifier, retired, tmp_path):
    """Checkpoint *identifier* as the *retired* backend would have pickled it
    and resume it: a plain restore is refused by name before any pool
    starts; one naming ``sequential`` resumes the same answer."""
    expected = _eip_fingerprint(identifier.result)
    path = identifier.save_state(tmp_path / "state.ckpt")
    identifier.close()
    state = read_checkpoint(path)
    object.__setattr__(state["config"], "backend", retired)
    write_checkpoint(path, state)
    with pytest.raises(IdentificationError, match=f"'{retired}'"):
        StreamingIdentifier.restore(path)
    restored = StreamingIdentifier.restore(path, backend="sequential")
    assert _eip_fingerprint(restored.result) == expected
    return restored


def _dmine_fingerprint(result):
    return sorted(
        (
            rule.name,
            info.support,
            round(info.confidence, 9),
            tuple(sorted(map(str, info.matches))),
        )
        for rule, info in result.all_rules.items()
    )


# ----------------------------------------------------------------------
# free-y (census-maintained) rules: whole-graph matching semantics
# ----------------------------------------------------------------------
def _without_y_edges(rule):
    """*rule* with the antecedent edges incident to y dropped: y turns free."""
    from repro.pattern.gpar import GPAR
    from repro.pattern.pattern import Pattern

    pattern = rule.antecedent
    antecedent = Pattern(
        dict(pattern.node_items()),
        [
            (edge.source, edge.target, edge.label)
            for edge in pattern.edges()
            if pattern.y not in (edge.source, edge.target)
        ],
        x=pattern.x,
        y=pattern.y,
        copies=pattern.copy_counts(),
    )
    return GPAR(
        antecedent, consequent_label=rule.consequent_label, name=f"{rule.name}-free-y", validate=False
    )


def _free_y_rules(graph, predicate, count=3):
    """Mine Σ with DMine and keep the free-y rules (the ROADMAP's shape): the
    census plan's entries whose free parts are isolated nodes.  A seed that
    mines none derives one from the first mined rule whose x keeps an edge
    once the edges incident to y are dropped."""
    from repro.identification.census import plan_census

    config = DMineConfig(
        k=6,
        d=2,
        sigma=1,
        num_workers=2,
        max_edges=2,
        max_extensions_per_rule=6,
        max_rules_per_round=10,
    )
    result = dmine(graph, predicate, config)
    mined = sorted(result.all_rules, key=lambda r: r.name)
    plan = plan_census(mined)
    free = [entry.rule for entry in plan.entries if not entry.components][:count]
    if free:
        return free
    derived = [_without_y_edges(rule) for rule in mined]
    return [
        next(
            rule
            for rule in derived
            if any(rule.antecedent.out_edges(rule.x)) or any(rule.antecedent.in_edges(rule.x))
            if not plan_census([rule]).entries[0].components
        )
    ]


@pytest.mark.parametrize("seed", range(0, 50, 10))
def test_census_maintained_free_y_rules_equal_whole_graph_matching(seed):
    """Mined (or, where a seed mines none, derived) free-y Σ is maintained
    under updates with global semantics."""
    graph = _workload_graph(seed)
    predicate = most_frequent_predicates(graph, top=1)[0]
    rules = _free_y_rules(graph, predicate)
    with StreamingIdentifier(
        graph, rules, config=EIPConfig(eta=0.5, num_workers=2 + seed % 3, seed=0)
    ) as identifier:
        assert identifier._census_parts, "free-y rules must census-split"
        _served_matches_check(identifier, rules)
        for position in range(3):
            batch = random_update_batch(graph, size=7, seed=seed * 100 + position)
            _covered(identifier, batch)
            _served_matches_check(identifier, rules)


def test_census_injectivity_couples_free_and_anchored_labels():
    """A free node sharing the x label needs a *second* node of that label."""
    from repro.graph import Graph
    from repro.pattern.gpar import GPAR
    from repro.pattern.pattern import Pattern
    from repro.stream import UpdateBatch, UpdateOp

    graph = Graph(name="census-toy")
    graph.add_node("c1", "cust")
    graph.add_node("m1", "shop")
    graph.add_edge("c1", "m1", "visit")
    antecedent = Pattern(
        nodes={"x": "cust", "v1": "shop", "y": "cust"},
        edges=[("x", "v1", "visit")],
        x="x",
        y="y",
    )
    rule = GPAR(antecedent, consequent_label="buys", validate=False)
    oracle = ReferenceMatcher()
    with StreamingIdentifier(
        graph, [rule], config=EIPConfig(eta=0.5, num_workers=1)
    ) as identifier:
        # One cust total: the x-part matches at c1, but the isolated free y
        # (also cust-labelled) has no injective completion.
        assert not oracle.exists_match_at(graph, antecedent, "c1")
        assert served_antecedent_sets(identifier)[rule] == set()
        _served_matches_check(identifier, [rule])
        identifier.apply(UpdateBatch.of(UpdateOp.add_node("c2", "cust")))
        assert oracle.exists_match_at(graph, antecedent, "c1")
        assert served_antecedent_sets(identifier)[rule] == {"c1"}
        _served_matches_check(identifier, [rule])
        # ...and dropping the second cust flips it back.
        identifier.apply(UpdateBatch.of(UpdateOp.remove_node("c2")))
        assert served_antecedent_sets(identifier)[rule] == set()
        _served_matches_check(identifier, [rule])


def test_census_rule_with_extra_isolated_free_node():
    """Free nodes beyond y census-split too — PR included (disconnected PR)."""
    from repro.graph import Graph
    from repro.pattern.gpar import GPAR
    from repro.pattern.pattern import Pattern
    from repro.stream import UpdateBatch, UpdateOp

    graph = Graph(name="census-extra")
    graph.add_node("c1", "cust")
    graph.add_node("m1", "shop")
    graph.add_node("pz1", "prize")
    graph.add_node("p1", "promo")
    graph.add_edge("c1", "m1", "visit")
    graph.add_edge("c1", "pz1", "wins")
    antecedent = Pattern(
        nodes={"x": "cust", "v1": "shop", "y": "prize", "z": "promo"},
        edges=[("x", "v1", "visit")],
        x="x",
        y="y",  # y AND z are isolated: PR (with the wins edge) stays disconnected
    )
    rule = GPAR(antecedent, consequent_label="wins", validate=False)
    oracle = ReferenceMatcher()
    with StreamingIdentifier(
        graph, [rule], config=EIPConfig(eta=0.5, num_workers=1)
    ) as identifier:
        assert any(
            entry.rule == rule and entry.pr_requirements
            for entry in identifier._census_plan.entries
        )
        assert oracle.exists_match_at(graph, antecedent, "c1")
        assert oracle.exists_match_at(graph, rule.pr_pattern(), "c1")
        _served_matches_check(identifier, [rule])
        assert identifier.result.rule_matches[rule] == frozenset({"c1"})
        # Removing the only promo node starves both censuses: the rule
        # matches nowhere, exactly as whole-graph matching says.
        identifier.apply(UpdateBatch.of(UpdateOp.remove_node("p1")))
        assert not oracle.exists_match_at(graph, antecedent, "c1")
        assert not oracle.exists_match_at(graph, rule.pr_pattern(), "c1")
        assert served_antecedent_sets(identifier)[rule] == set()
        assert identifier.result.rule_matches[rule] == frozenset()
        _served_matches_check(identifier, [rule])
        # ...and a new promo node restores it without any recheck nearby.
        identifier.apply(UpdateBatch.of(UpdateOp.add_node("p2", "promo")))
        assert identifier.result.rule_matches[rule] == frozenset({"c1"})
        _served_matches_check(identifier, [rule])


@pytest.mark.parametrize("backend", BACKENDS)
def test_census_rules_agree_across_backends(backend):
    """Free-y maintenance is backend-independent (census lives coordinator-side)."""
    base = _workload_graph(40)  # seed 40 is known to mine splittable free-y rules
    predicate = most_frequent_predicates(base, top=1)[0]
    rules = _free_y_rules(base, predicate)
    assert rules, "seed 40 must mine free-y rules (workload drifted?)"
    graph = base.copy()
    with StreamingIdentifier(
        graph,
        rules,
        config=EIPConfig(
            eta=0.5, num_workers=3, seed=0, backend=backend, executor_workers=2
        ),
    ) as identifier:
        for position in range(2):
            _covered(identifier, random_update_batch(graph, size=7, seed=600 + position))
        _served_matches_check(identifier, rules)


def test_static_and_streaming_agree_on_free_pattern_rules():
    """``identify_entities`` and the streaming path agree on census-split Σ.

    The antecedents' free parts — an isolated prize node, and an
    edge-carrying promo→prize component — have their only witnesses outside
    the d-ball of the second customer, so any *per-fragment* resolution of
    the free part gets ``c2`` wrong.  Both paths must consult the same
    global census: before the shared ``plan_census``/``apply_census`` route
    the static solvers resolved free nodes inside each fragment graph
    (partition-dependent answers; ``c2`` silently dropped with two workers)
    and the streaming identifier rejected the edged component outright, so
    this test fails on that code.
    """
    from repro.graph import Graph
    from repro.pattern.gpar import GPAR
    from repro.pattern.pattern import Pattern

    graph = Graph(name="census-cross-path")
    for node, label in [
        ("c1", "cust"),
        ("c2", "cust"),
        ("m1", "shop"),
        ("m2", "shop"),
        ("pz1", "prize"),
        ("p1", "promo"),
    ]:
        graph.add_node(node, label)
    graph.add_edge("c1", "m1", "visit")
    graph.add_edge("c2", "m2", "visit")
    graph.add_edge("c1", "pz1", "wins")
    # LCWA-negative: c2 has a wins edge, but not to a prize node.
    graph.add_edge("c2", "m2", "wins")
    graph.add_edge("p1", "pz1", "sponsors")

    free_y = GPAR(
        Pattern(
            nodes={"x": "cust", "v1": "shop", "y": "prize"},
            edges=[("x", "v1", "visit")],
            x="x",
            y="y",
        ),
        consequent_label="wins",
        validate=False,
    )
    edged = GPAR(
        Pattern(
            nodes={"x": "cust", "v1": "shop", "y": "prize", "z": "promo"},
            edges=[("x", "v1", "visit"), ("z", "y", "sponsors")],
            x="x",
            y="y",
        ),
        consequent_label="wins",
        validate=False,
    )
    rules = [free_y, edged]
    oracle = ReferenceMatcher()
    # Whole-graph truth: both antecedents match at both customers (pz1 and
    # p1→pz1 are global witnesses), while only c1 carries the consequent.
    for rule in rules:
        assert oracle.match_set(graph, rule.antecedent) == {"c1", "c2"}
        assert oracle.match_set(graph, rule.pr_pattern()) == {"c1"}
    statics = {
        algorithm: identify_entities(
            graph.copy(), rules, eta=0.5, num_workers=2, algorithm=algorithm
        )
        for algorithm in ("match", "matchc")
    }
    for algorithm, static in statics.items():
        for rule in rules:
            # c2 contributes a global-census q̄-match, so supp(Qq̄) = 1 and
            # conf = 1·1/(1·1); per-fragment resolution missed it (conf=inf).
            assert static.rule_matches[rule] == frozenset({"c1"}), algorithm
            assert static.rule_confidences[rule] == 1.0, algorithm
    with StreamingIdentifier(
        graph.copy(), rules, config=EIPConfig(eta=0.5, num_workers=2)
    ) as identifier:
        for static in statics.values():
            assert _eip_fingerprint(static) == _eip_fingerprint(identifier.result)
            assert static.rule_confidences == identifier.result.rule_confidences


@pytest.mark.parametrize("algorithm", ["match"])
def test_static_and_streaming_agree_on_mined_free_y_workload(algorithm):
    """Cross-path agreement on a *mined* Σ with splittable free-y rules."""
    base = _workload_graph(40)  # seed 40 is known to mine splittable free-y rules
    predicate = most_frequent_predicates(base, top=1)[0]
    rules = _free_y_rules(base, predicate)
    assert rules, "seed 40 must mine free-y rules (workload drifted?)"
    graph = base.copy()
    with StreamingIdentifier(
        graph, rules, config=EIPConfig(eta=0.5, num_workers=3)
    ) as identifier:
        identifier.apply(random_update_batch(graph, size=7, seed=601))
        static = identify_entities(
            graph.copy(), rules, eta=0.5, num_workers=3, algorithm=algorithm
        )
        assert _eip_fingerprint(static) == _eip_fingerprint(identifier.result)
        assert static.rule_confidences == identifier.result.rule_confidences


@pytest.mark.parametrize("backend", BACKENDS)
def test_dmine_on_repaired_state_equals_pristine(backend):
    """Mining after streaming updates == mining a pristine mutated copy.

    The mutated graph object carries a delta-patched resident index and a
    match store materialized before the updates; a fresh copy of the same
    graph carries neither.  DMine must mine byte-identical rules from both.
    """
    graph = synthetic_graph(150, 450, num_node_labels=6, num_edge_labels=4, seed=4)
    predicate = most_frequent_predicates(graph, top=1)[0]
    columnar_view(graph)  # resident structure that the updates will delta-patch
    store = MatchStore(graph)
    delta_matcher = DeltaMatcher(graph, VF2Matcher(), store)
    rules = generate_gpars(graph, predicate, count=2, max_pattern_edges=2, d=2, seed=4)
    for rule in rules:
        pattern = rule.pr_pattern()
        delta_matcher.materialize(
            pattern, sorted(graph.nodes_with_label(pattern.label(pattern.x)), key=str)
        )
    _apply_batches(graph, seed=5, count=2)
    columnar_view(graph).refresh()  # delta path
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
    repaired_run = dmine(graph, predicate, config)
    pristine_run = dmine(graph.copy(), predicate, config)
    assert _dmine_fingerprint(repaired_run) == _dmine_fingerprint(pristine_run)
