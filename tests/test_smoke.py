"""The CI smoke gates, one named test per family.

Every test runs in two cells.  ``tiny`` is sequential at a few hundred
nodes and runs in tier-1.  ``smoke`` is CI scale — 400-node mining,
matching and storm graphs, the 4,000-node dense streaming graph, a
100k-node guided-matching pass — on sequential and processes with 2
workers; it is deselected by default and CI runs it with ``pytest -m
smoke``.  The churn and obs cells stay sequential at both scales: churn is
about resident state, obs compares the no-op span path against the traced
one on a pool-free run.

Every answer a gate compares must be non-empty — no gate accepts an
identified set or a mined rule set that is empty, as every equivalence
would then hold vacuously.  No wall clock is gated but obs's estimated
overhead, a calibrated per-span cost times the span count.

The streaming families maintain :func:`dense_sigma`, a Σ mined by DMine on
the dense graph: it shares antecedent prefixes by construction and
identifies entities at η = 0.5 (27 at CI scale), where randomly sampled
rules identify nothing.
"""

from __future__ import annotations

import random
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import pytest

from repro import api
from repro.datasets import generate_gpars, most_frequent_predicates, synthetic_graph
from repro.graph.columnar import columnar_view
from repro.identification import EIPConfig, identify_entities
from repro.matching import GuidedMatcher
from repro.mining import DMineConfig, dmine
from repro.obs import Tracer, install, registry, span, uninstall
from repro.obs.stats import enable_collection
from repro.partition.lifecycle import CHECKPOINT_LOG_FRACTION
from repro.pattern.canonical import canonical_code
from repro.pattern.gpar import GPAR
from repro.pattern.pattern import Pattern
from repro.stream import UpdateBatch, UpdateOp, random_update_batch
from repro.testing import (
    CASES_DIR,
    DifferentialOracle,
    ReferenceMatcher,
    STORM_FAMILIES,
    counter_value,
    counters,
    disable_collection,
    distill,
    eip_fingerprint,
    from_distilled,
    is_duplicate,
    multi_tenant_check,
    write_case,
)
from repro.testing.cases import known_signatures

WORKERS = 2
ETA = 0.5
STREAM_RULES = 12

CELLS = pytest.mark.parametrize(
    "smoke", [pytest.param(False, id="tiny"), pytest.param(True, id="smoke", marks=pytest.mark.smoke)]
)


def backends(smoke: bool) -> tuple[str, ...]:
    return ("sequential", "processes") if smoke else ("sequential",)


def config(backend: str = "sequential") -> EIPConfig:
    return EIPConfig(eta=ETA, num_workers=WORKERS, backend=backend)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def _synthetic(nodes: int, dense: bool):
    """The synthetic graph (3 edges per node) and its most frequent predicate.
    *dense* has fewer labels: bigger label buckets, more embeddings per centre."""
    node_labels, edge_labels = (8, 4) if dense else (20, 8)
    graph = synthetic_graph(
        nodes, nodes * 3, num_node_labels=node_labels, num_edge_labels=edge_labels, seed=7
    )
    return graph, most_frequent_predicates(graph, top=1)[0]


synthetic = lru_cache(maxsize=None)(_synthetic)


@lru_cache(maxsize=None)
def dense_sigma(nodes: int) -> tuple:
    """The dense graph and its 16 best-supported mined rules, plus a
    census-split twin of the first (an isolated y-labelled node), so the
    free-node maintenance path is streamed too."""
    graph, predicate = synthetic(nodes, True)
    result = dmine(graph, predicate, DMineConfig(
        k=16, d=2, sigma=2, num_workers=2, max_edges=3,
        max_extensions_per_rule=8, max_rules_per_round=30,
    ))
    ranked = sorted(result.all_rules.items(), key=lambda item: (-item[1].support, item[0].name))
    rules = [rule for rule, _info in ranked[:16]]
    census = _census_variant(rules[0], "census", {"census_free": predicate.label(predicate.y)})
    return graph, (*rules, census)


def solo_sigma(nodes: int) -> tuple:
    graph, pool = dense_sigma(nodes)
    return graph, pool[:STREAM_RULES]


@lru_cache(maxsize=None)
def storm_sigma(nodes: int) -> tuple:
    """Σ for the storms: mined rules move the identified set, sampled
    connected ones add antecedent match sets that change, and the census
    twins add a free node and a disconnected edge component."""
    graph, pool = dense_sigma(nodes)
    _, predicate = synthetic(nodes, True)
    connected = generate_gpars(graph, predicate, count=3, max_pattern_edges=2, d=2, seed=3)
    component = _census_variant(
        pool[0], "component",
        {"census_f1": predicate.label(predicate.x), "census_f2": predicate.label(predicate.y)},
        (("census_f1", "census_f2", predicate.edges()[0].label),),
    )
    return graph, (*pool[:6], *connected, pool[-1], component)


def _census_variant(base: GPAR, suffix: str, nodes: dict, edges: tuple = ()) -> GPAR:
    """*base* whose antecedent gains *nodes* (and *edges* among them)
    disconnected from x — the part a coordinator-side census answers."""
    expanded = base.antecedent.expanded()
    antecedent = Pattern(
        nodes={**{node: expanded.label(node) for node in expanded.nodes()}, **nodes},
        edges=[*expanded.edges(), *edges],
        x=expanded.x,
        y=expanded.y,
    )
    return GPAR(antecedent, base.consequent_label, name=f"{base.name}+{suffix}", validate=False)


def sample_update_batches(graph, count: int, size: int, sampler=random_update_batch, **options):
    """*count* batches, each valid against the state the previous ones left,
    so every backend of a comparison replays the same sequence."""
    scratch = graph.copy()
    batches = []
    for seed in range(count):
        batch = sampler(scratch, size=size, seed=seed, **options)
        batch.apply(scratch)
        batches.append(batch)
    return batches


def grafted_update_batch(graph, size: int, seed: int, rules) -> UpdateBatch:
    """A random batch after a graft: an x-labelled node that does not match
    the PR of one of *rules* gains the x-edges of an embedding at a centre
    that does.  It newly matches, and no witness is kept for it, so the tick
    searches.  Only a PR with an edge off x is grafted: a star's verdict is
    its profile test, which never searches."""
    paths = [
        rule for rule in rules
        if any(rule.x not in (edge.source, edge.target) for edge in rule.pr_pattern().expanded().edges())
    ]
    pattern = paths[seed % len(paths)].pr_pattern().expanded()
    matcher = ReferenceMatcher()
    matched = matcher.match_set(graph, pattern)
    image = matcher.find_match_at(graph, pattern, min(matched, key=str))
    others = set(graph.nodes_with_label(pattern.label(pattern.x))) - matched - set(image.values())
    image[pattern.x] = random.Random(seed).choice(sorted(others, key=str))
    graft = UpdateBatch.of(*(
        UpdateOp.add_edge(image[edge.source], image[edge.target], edge.label)
        for edge in pattern.edges()
        if pattern.x in (edge.source, edge.target)
        and not graph.has_edge(image[edge.source], image[edge.target], edge.label)
    ))
    scratch = graph.copy()
    graft.apply(scratch)
    return UpdateBatch.of(*graft, *random_update_batch(scratch, size=size, seed=seed))


# ----------------------------------------------------------------------
# maintenance: admit tenants into one shared core, tick it, hold every
# tenant equal to a recompute after every batch
# ----------------------------------------------------------------------
class Answer(NamedTuple):
    fingerprint: tuple
    identified: int


def answers(core) -> dict[str, Answer]:
    return {
        tenant: Answer(eip_fingerprint(session.result), len(session.result.identified))
        for tenant, session in core.sessions.items()
    }


def assert_fresh(core) -> None:
    for tenant, session in core.sessions.items():
        assert eip_fingerprint(session.result) == eip_fingerprint(session.recompute()), tenant


@dataclass(frozen=True)
class Tick:
    report: object  #: :class:`repro.stream.StreamUpdateReport`
    answers: dict
    counted: dict  #: what the ``repro_match_*`` counters moved by in this tick


def tick(core, batches, verify: bool = True) -> list[Tick]:
    ticks = []
    for batch in batches:
        before = counters(registry(), "repro_match_")
        report, _deltas = core.apply(batch)
        moved = {
            name: count - before.get(name, 0)
            for name, count in counters(registry(), "repro_match_").items()
        }
        if verify:  # after the counters are read: a recompute searches too
            assert_fresh(core)
        ticks.append(Tick(report, answers(core), moved))
    return ticks


@dataclass(frozen=True)
class Maintained:
    admissions: dict  #: tenant → :class:`repro.stream.TenantAdmission`
    admitted: dict  #: every tenant's answer before the first batch
    ticks: list

    @property
    def answers(self) -> dict:
        """Every tenant's answer after the last batch."""
        return self.ticks[-1].answers

    @property
    def wall_time(self) -> float:
        return sum(applied.report.wall_time for applied in self.ticks)

    @property
    def rechecked(self) -> int:
        return sum(applied.report.rechecked_centers for applied in self.ticks)

    def matched(self, counter: str) -> int:
        return sum(applied.counted.get(f"repro_match_{counter}_total", 0) for applied in self.ticks)


def maintain(graph, tenants: dict, eip_config: EIPConfig, batches, verify: bool = True) -> Maintained:
    """The served session path over a copy of *graph*; a solo run is its
    one-tenant case."""
    with api.open_shared_core(graph.copy(), eip_config) as core:
        admissions = {
            tenant: core.open_session(tenant, rules).admission for tenant, rules in tenants.items()
        }
        if verify:
            assert_fresh(core)
        return Maintained(admissions, answers(core), tick(core, batches, verify))


@contextmanager
def counting():
    """Statistics collection on for the block."""
    enable_collection()
    try:
        yield
    finally:
        disable_collection()


# ----------------------------------------------------------------------
# the gates
# ----------------------------------------------------------------------
@CELLS
def test_dmine_backends_mine_equal_rule_sets(smoke):
    graph, predicate = synthetic(400 if smoke else 100, True)
    mined = set()
    for backend in backends(smoke):
        result = dmine(graph, predicate, DMineConfig(
            k=4, d=2, lam=0.5, sigma=2, num_workers=WORKERS, max_edges=2,
            max_extensions_per_rule=8, max_rules_per_round=30, backend=backend,
        ))
        assert result.num_rules_discovered > 0
        mined.add(frozenset(
            (canonical_code(rule.pr_pattern()), info.support, round(info.confidence, 9))
            for rule, info in result.all_rules.items()
        ))
    assert len(mined) == 1


@CELLS
def test_match_backends_identify_one_answer_and_large_matching_completes(smoke):
    scale = 400 if smoke else 100
    graph, predicate = synthetic(scale, False)
    rules = generate_gpars(graph, predicate, count=6, max_pattern_edges=4, d=2, seed=5)
    identified = set()
    for backend in backends(smoke):
        result = identify_entities(graph, rules, eta=ETA, num_workers=WORKERS, backend=backend)
        assert result.identified
        identified.add(eip_fingerprint(result))
    # A warm call (on the pool in the smoke cell) reuses the fragmentation.
    reused = counter_value(registry(), "repro_partition_reused_total")
    again = identify_entities(graph, rules, eta=ETA, num_workers=WORKERS, backend=backend)
    assert counter_value(registry(), "repro_partition_reused_total") == reused + 1
    identified.add(eip_fingerprint(again))
    assert len(identified) == 1

    # Scale coverage: guided matching on a dense graph 250x as large (100k
    # nodes in the smoke cell), made resident first as an executor would.
    dense, dense_predicate = synthetic(scale, True)
    sampled = generate_gpars(dense, dense_predicate, count=12, max_pattern_edges=3, d=2, seed=11)
    large, _ = _synthetic(scale * 250, True)
    columnar_view(large)
    matcher = GuidedMatcher()
    found = sum(
        len(matcher.match_set(large, pattern))
        for rule in sampled[:4]
        for pattern in (rule.antecedent, rule.pr_pattern())
    )
    assert found > 0


@CELLS
def test_stream_repair_equals_recompute_and_does_less(smoke):
    graph, rules = solo_sigma(4000 if smoke else 400)
    # Uniform batches left both cells with 0 searches on every tick (82 and
    # 71 witness hits); each graft makes a tick search.
    batches = sample_update_batches(graph, 3, 8, grafted_update_batch, rules=rules)
    final = set()
    for backend in backends(smoke):
        with counting():
            run = maintain(graph, {"solo": rules}, config(backend), batches)
        answer = run.answers["solo"]
        assert answer.identified > 0
        final.add(answer.fingerprint)
        if backend != "sequential":
            continue  # which pool process keeps which witnesses varies run to run
        # Repair re-decides fewer centres than recomputing after every batch
        # would, and answers positive pairs from kept witnesses at least 4x
        # as often as by searching, which it does.
        centres = len(graph.nodes_with_label(rules[0].x_label))
        assert run.rechecked < centres * len(batches)
        hits, searched = run.matched("witness_hits"), run.matched("matches_found")
        assert searched > 0 and hits >= 4 * searched
    assert len(final) == 1


@CELLS
def test_churn_keeps_resident_state_bounded(smoke):
    graph, rules = solo_sigma(4000 if smoke else 400)
    batches = sample_update_batches(graph, 50 if smoke else 8, 16, deletion_bias=0.7)
    run = maintain(graph, {"solo": rules}, config(), batches)
    assert all(applied.answers["solo"].identified > 0 for applied in run.ticks)
    reports = [applied.report for applied in run.ticks]
    # Shedding and checkpointing keep pace with a shrinking graph...
    quarter = max(1, len(reports) // 4)
    early = max(report.resident_nodes for report in reports[:quarter])
    assert max(report.resident_nodes for report in reports[-quarter:]) <= early
    # ...and every batch leaves the retained log under the compaction bound.
    slack = CHECKPOINT_LOG_FRACTION * WORKERS + 1
    for report in reports:
        assert report.log_ops <= CHECKPOINT_LOG_FRACTION * report.resident_nodes + slack


@CELLS
def test_lifecycle_restore_is_byte_identical(smoke, tmp_path):
    graph, rules = solo_sigma(4000 if smoke else 400)
    *before, after = sample_update_batches(graph, 4, 8)
    legs = [(backend, {"solo": rules}) for backend in backends(smoke)]
    legs.append(("sequential", {"first": rules[:-1], "second": rules[1:]}))
    solo = set()
    for position, (backend, tenants) in enumerate(legs):
        with api.open_shared_core(graph.copy(), config(backend)) as core:
            for tenant, tenant_rules in tenants.items():
                core.open_session(tenant, tenant_rules)
            tick(core, before, verify=False)
            checkpointed = answers(core)
            path = core.save_state(tmp_path / f"state-{position}.pkl")
        assert all(answer.identified > 0 for answer in checkpointed.values())
        with api.restore_core(path, backend=backend) as restored:
            assert answers(restored) == checkpointed
            tick(restored, [after])  # the batch after restore equals a recompute
        if "solo" in checkpointed:
            solo.add(checkpointed["solo"])
    assert len(solo) == 1


@CELLS
def test_tenant_rides_the_shared_core(smoke):
    graph, pool = dense_sigma(4000 if smoke else 800)
    # Stride-1 slices: adjacent tenants share all but one rule.
    num_tenants, per_tenant = 8, 6
    assert len(pool) >= num_tenants - 1 + per_tenant
    tenants = {f"tenant-{k + 1}": pool[k : k + per_tenant] for k in range(num_tenants)}
    batches = sample_update_batches(graph, 2, 8)
    single = maintain(graph, {"tenant-1": tenants["tenant-1"]}, config(), batches)
    shared = maintain(graph, tenants, config(), batches)
    assert all(answer.identified > 0 for answer in shared.admitted.values())
    assert shared.answers["tenant-1"] == single.answers["tenant-1"]
    assert single.answers["tenant-1"].identified > 0

    admissions = list(shared.admissions.values())
    cold, last = admissions[0], admissions[-1]
    # A warm admission walks every resident centre but verifies only its
    # novel suffix, so the unit is centre x rule verifications.
    assert last.backfill_centers * last.novel_rules <= 0.5 * cold.backfill_centers * max(
        1, cold.novel_rules
    )
    assert shared.rechecked <= 0.5 * num_tenants * single.rechecked
    assert sum(admission.novel_rules for admission in admissions) <= 0.6 * sum(map(len, tenants.values()))
    assert sum(admission.shared_prefix_hits for admission in admissions) > 0

    small = dict(list(tenants.items())[:3])
    for backend in backends(smoke)[1:]:
        divergences = multi_tenant_check(
            graph, small, batches, eta=ETA, num_workers=WORKERS, backends=(backend,)
        )
        assert not divergences, divergences[0].describe()


@CELLS
def test_storms_leave_the_oracle_silent(smoke):
    graph, rules = storm_sigma(400 if smoke else 100)
    diverged, answer_moved, matches_moved = [], False, False
    for storm in sorted(STORM_FAMILIES):
        batches = sample_update_batches(graph, 4, 12, STORM_FAMILIES[storm])
        for backend in backends(smoke):
            oracle = DifferentialOracle(rules, eta=ETA, num_workers=WORKERS, backends=(backend,))
            report = oracle.run(graph, batches)
            assert max(map(len, report.answers), default=0) > 0, storm
            assert any(found for sets in report.match_answers for _rule, found in sets), storm
            answer_moved |= len(report.answers) >= 2
            matches_moved |= len(report.match_answers) >= 2
            _distill_into_corpus(graph, batches, rules, oracle, report, f"{storm}-{backend}")
            diverged += [f"{storm}/{backend}: {found.describe()}" for found in report.divergences]
    assert not diverged, "distilled into tests/regressions/: " + "; ".join(diverged)
    # Silence must mean something: some storm moved the identified set and
    # some moved the served antecedent match sets.
    assert answer_moved and matches_moved


def _distill_into_corpus(graph, batches, rules, oracle, report, name: str) -> None:
    """Shrink every divergence and write the novel ones to ``tests/regressions/``,
    where the replay suite picks them up."""
    known = known_signatures(CASES_DIR)
    for position, divergence in enumerate(report.divergences):
        distilled = distill(graph, batches, oracle.checker_for(divergence))
        if is_duplicate(distilled.signature, known):
            continue
        known.append(distilled.signature)
        case = from_distilled(
            f"storm-synthetic-dense-{name}-{position}",
            f"storm smoke: {name} diverged ({divergence.describe()})",
            distilled,
            rules,
            config={
                "eta": ETA, "num_workers": WORKERS,
                "seed": oracle.seed, "backend": oracle.backends[0],
            },
        )
        write_case(case, CASES_DIR)


def span_cost() -> float:
    """Seconds one recorded span costs: the median over 10k empty spans."""
    install(Tracer())
    try:
        costs = []
        for _ in range(10_000):
            started = time.perf_counter()
            with span("smoke.calibrate"):
                pass
            costs.append(time.perf_counter() - started)
    finally:
        uninstall()
    return statistics.median(costs)


@CELLS
def test_obs_changes_no_answer_and_stays_cheap(smoke):
    graph, rules = solo_sigma(4000 if smoke else 400)
    # Deep ticks: the per-tick instrumentation cost is fixed.
    batches = sample_update_batches(graph, 6, 24)
    off = min(
        (maintain(graph, {"solo": rules}, config(), batches, verify=False)
         for _ in range(5 if smoke else 2)),
        key=lambda run: run.wall_time,
    )
    tracer = install(Tracer())
    try:
        with counting():
            on = maintain(graph, {"solo": rules}, config(), batches, verify=False)
    finally:
        uninstall()
    assert on.answers == off.answers and on.answers["solo"].identified > 0
    spans = len(tracer.records())
    assert spans > 0
    # At most 10 spans per tick for the coordinator and for each fragment
    # (measured 5.2 + 4.5 x workers, session admission included).
    assert spans / len(batches) <= 10 * (WORKERS + 1)
    assert spans * span_cost() <= 0.05 * off.wall_time
