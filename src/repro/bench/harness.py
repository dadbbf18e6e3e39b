"""Measured runs behind the benchmark modules and the smoke scenario table.

Every runner returns :class:`Row`s: the fields all measurements share plus
an ordered mapping of the columns only its family reports.

* Paper figures: :func:`run_dmine_config` / :func:`run_eip_config` run one
  configuration; the ``*_backends`` forms add the measured wall-clock
  speedup over sequential; :func:`run_matching_traffic` isolates matching.
* Streaming smoke families: all built on :func:`maintain`, which admits
  tenant rule sets into the served session path
  (:func:`repro.api.open_shared_core`) and :func:`tick`\\ s one sampled update
  sequence through it, holding every maintained answer equal to a
  from-scratch recompute.  Legs that only need a verdict go through
  :mod:`repro.testing`'s oracles.

Every run executes the one production matching path; speed is guarded from
outside by ``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from repro import api
from repro.bench.reporting import wall_speedups
from repro.graph.columnar import columnar_view, discard_columnar
from repro.graph.graph import Graph
from repro.identification import EIPConfig, identify_entities
from repro.matching import GuidedMatcher, VF2Matcher
from repro.mining import DMine, DMineConfig
from repro.obs import Tracer, install, registry, span, uninstall
from repro.obs.stats import disable_collection, enable_collection, reset_collection
from repro.pattern.canonical import canonical_code
from repro.pattern.gpar import GPAR
from repro.pattern.pattern import Pattern
from repro.stream import random_update_batch
from repro.testing import (
    CASES_DIR,
    STORM_FAMILIES,
    DifferentialOracle,
    distill,
    eip_fingerprint,
    from_distilled,
    is_duplicate,
    multi_tenant_check,
    write_case,
)
from repro.testing.cases import known_signatures

#: η of every streaming family: low enough that the mined dense Σ
#: (confidences 9–15) identifies entities, so no gate compares empty answers.
ETA = 0.5


def _digest(parts: Iterable[str]) -> str:
    """Short content hash of a result, for cross-backend equivalence gates."""
    return hashlib.sha1("\n".join(sorted(parts)).encode()).hexdigest()[:12]


def answer_fingerprint(result) -> str:
    """12-hex display form of :func:`repro.testing.eip_fingerprint` — the one
    EIP answer identity in ``src/`` (entities, confidences, per-rule match
    sets)."""
    return hashlib.sha1(repr(eip_fingerprint(result)).encode()).hexdigest()[:12]


@dataclass(frozen=True)
class Row:
    """One measured point of any benchmark series.

    ``columns`` holds the family-specific measurements in display order,
    keyed by their JSON names; ``row["rules"]`` reads one.  ``mode`` and
    ``fingerprint`` are ``None`` on rows that have none (a storm row carries
    no answer), and are then left out of :meth:`as_dict`.
    """

    dataset: str
    backend: str = "sequential"
    mode: str | None = None
    wall_time: float = 0.0
    fingerprint: str | None = None
    columns: Mapping[str, object] = field(default_factory=dict)

    def __getitem__(self, column: str):
        return self.columns[column]

    def as_dict(self) -> dict:
        shown: dict[str, object] = {"dataset": self.dataset, "backend": self.backend}
        if self.mode is not None:
            shown["mode"] = self.mode
        shown.update(self.columns)
        shown["wall_s"] = self.wall_time
        if self.fingerprint is not None:
            shown["fingerprint"] = self.fingerprint
        return {
            name: round(value, 3) if isinstance(value, float) else value
            for name, value in shown.items()
        }


# ----------------------------------------------------------------------
# paper figures: one DMine / Match configuration per row
# ----------------------------------------------------------------------
# Benchmark-sized mining defaults: small enough that a full sweep finishes in
# minutes, large enough that the optimisation effects are visible.
MINING_DEFAULTS = dict(
    k=4,
    d=2,
    lam=0.5,
    max_edges=2,
    max_extensions_per_rule=8,
    max_rules_per_round=30,
)


def _swept(parameter: str | None, value: object, workers: int) -> dict:
    """The swept-parameter column of a figure row (none on backend sweeps)."""
    return {} if parameter is None else {parameter: workers if value is None else value}


def run_dmine_config(
    dataset: str,
    graph: Graph,
    predicate: Pattern,
    workers: int,
    sigma: int,
    optimized: bool = True,
    parameter: str | None = "n",
    value: object = None,
    backend: str = "sequential",
    **overrides,
) -> Row:
    """Run one DMine / DMineno configuration and return its measured row.

    The fingerprint hashes the mined rule set (structure + support +
    confidence): equal fingerprints mean *the same rules*, not the same count.
    """
    config = DMineConfig(
        num_workers=workers, sigma=sigma, optimized=optimized, backend=backend,
        **{**MINING_DEFAULTS, **overrides},
    )
    result = DMine(config).mine(graph, predicate)
    return Row(
        dataset,
        backend,
        wall_time=result.timings.wall_time,
        fingerprint=_digest(
            f"{canonical_code(rule.pr_pattern())}|{info.support}|{round(info.confidence, 9)}"
            for rule, info in result.all_rules.items()
        ),
        columns={
            "algorithm": "DMine" if optimized else "DMineno",
            **_swept(parameter, value, workers),
            "sim_parallel_s": result.timings.simulated_parallel_time,
            "rules": result.num_rules_discovered,
            "candidates": result.candidates_generated,
            "F(Lk)": result.objective_value,
        },
    )


def run_eip_config(
    dataset: str,
    graph: Graph,
    rules: Sequence[GPAR],
    workers: int,
    algorithm: str,
    eta: float = 1.0,
    parameter: str | None = "n",
    value: object = None,
    backend: str = "sequential",
) -> Row:
    """Run one Match / Matchc / disVF2 configuration and return its row.

    ``prefix_hits`` sums prefix-trie pool applications over all fragments
    (> 0: rules of Σ shared antecedent-prefix match sets).
    """
    result = identify_entities(
        graph, list(rules), eta=eta, num_workers=workers, algorithm=algorithm, backend=backend
    )
    return Row(
        dataset,
        backend,
        wall_time=result.timings.wall_time,
        fingerprint=answer_fingerprint(result),
        columns={
            "algorithm": algorithm,
            **_swept(parameter, value, workers),
            "sim_parallel_s": result.timings.simulated_parallel_time,
            "identified": len(result.identified),
            "checks": result.candidates_examined,
            "prefix_hits": result.prefix_pool_hits,
        },
    )


def _across_backends(run, backends: Sequence[str]) -> list[Row]:
    """``run(backend)`` on sequential + *backends*, each row annotated with
    its real wall-clock speedup over the sequential one."""
    rows = [run(backend) for backend in dict.fromkeys(("sequential", *backends))]
    speedups = wall_speedups(rows)
    return [
        replace(row, columns={**row.columns, "wall_speedup": speedups[row.backend]})
        if row.backend in speedups
        else row
        for row in rows
    ]


def run_dmine_backends(
    dataset: str,
    graph: Graph,
    predicate: Pattern,
    *,
    workers: int,
    sigma: int,
    backends: Sequence[str] = ("sequential", "processes"),
    **overrides,
) -> list[Row]:
    """One DMine configuration per backend (sequential baseline always run)."""
    return _across_backends(
        lambda backend: run_dmine_config(
            dataset, graph, predicate, workers, sigma,
            parameter=None, backend=backend, **overrides,
        ),
        backends,
    )


def run_eip_backends(
    dataset: str,
    graph: Graph,
    rules: Sequence[GPAR],
    *,
    workers: int,
    algorithm: str = "match",
    eta: float = ETA,
    backends: Sequence[str] = ("sequential", "processes"),
) -> list[Row]:
    """One EIP configuration per backend (see :func:`run_dmine_backends`)."""
    return _across_backends(
        lambda backend: run_eip_config(
            dataset, graph, rules, workers, algorithm, eta=eta, parameter=None, backend=backend
        ),
        backends,
    )


_MATCHER_KINDS = {"vf2": VF2Matcher, "guided": GuidedMatcher}


def _match_sets(matcher_sets, patterns: Sequence[Pattern]) -> tuple[int, list[str]]:
    """Total size and per-pattern content lines of one pass of match-set
    queries (``matcher_sets(pattern)`` answers one)."""
    total, lines = 0, []
    for position, pattern in enumerate(patterns):
        matches = matcher_sets(pattern)
        total += len(matches)
        lines.append(f"{position}|{'/'.join(sorted(map(str, matches)))}")
    return total, lines


def run_matching_traffic(
    dataset: str,
    graph: Graph,
    rules: Sequence[GPAR],
    kind: str,
    reps: int = 3,
    parameter: str = "reps",
    value: object = None,
) -> Row:
    """The matching hot path in isolation: *reps* fresh-matcher batches of
    anchored ``match_set`` queries over one resident graph.

    Each batch computes ``Q(x, G)`` for every rule's antecedent and PR
    pattern with a newly constructed matcher, modelling *reps* successive
    algorithm calls against the same resident fragment.  The graph's
    resident structure is dropped first and recompiled inside the timed
    window — as an executor does when it starts on a fragment — so the row
    pays for its own build.
    """
    if kind not in _MATCHER_KINDS:
        raise ValueError(
            f"unknown matcher kind {kind!r}; expected one of {sorted(_MATCHER_KINDS)}"
        )
    patterns = [pattern for rule in rules for pattern in (rule.antecedent, rule.pr_pattern())]
    discard_columnar(graph)
    total_matches, content = 0, []
    started = time.perf_counter()
    columnar_view(graph)
    for _ in range(reps):
        matcher = _MATCHER_KINDS[kind]()
        total, lines = _match_sets(lambda pattern: matcher.match_set(graph, pattern), patterns)
        total_matches += total
        content.extend(lines)
    return Row(
        dataset,
        "in-process",
        wall_time=time.perf_counter() - started,
        fingerprint=_digest(content),
        columns={
            "algorithm": kind,
            parameter: reps if value is None else value,
            "patterns": len(patterns) * reps,
            "matches": total_matches,
        },
    )


def run_match_smoke(
    dataset: str,
    graph: Graph,
    rules: Sequence[GPAR],
    large_graph: Graph,
    large_rules: Sequence[GPAR],
    *,
    workers: int,
    backends: Sequence[str],
) -> list[Row]:
    """The ``match`` family: Match per backend, plus one large-regime row of
    guided matching traffic (completing under the smoke timeout is its gate)."""
    rows = run_eip_backends(dataset, graph, rules, workers=workers, backends=backends)
    rows.append(
        run_matching_traffic(
            f"{dataset}-large", large_graph, large_rules, "guided",
            reps=1, parameter="scale", value=large_graph.num_nodes,
        )
    )
    return rows


# ----------------------------------------------------------------------
# the maintenance primitive every streaming family is built on
# ----------------------------------------------------------------------
def sample_update_batches(
    graph: Graph, count: int, size: int, sampler=random_update_batch, **sampler_options
) -> list:
    """*count* batches, each valid against the state the previous ones left.

    Sampled once against a scratch copy so every backend/mode of a
    comparison replays the **same** update sequence; *sampler* is
    :func:`repro.stream.random_update_batch` or a storm generator.
    """
    scratch = graph.copy()
    batches = []
    for position in range(count):
        batch = sampler(scratch, size=size, seed=position, **sampler_options)
        batch.apply(scratch)
        batches.append(batch)
    return batches


class Answer(NamedTuple):
    """What a row says about one answer: its fingerprint and its size."""

    fingerprint: str
    identified: int

    @classmethod
    def of(cls, result) -> "Answer":
        return cls(answer_fingerprint(result), len(result.identified))


class Replay(NamedTuple):
    """One maintained replay of a batch sequence: its wall, final answer and
    the centres re-decided along the way."""

    wall: float
    answer: Answer
    rechecked: int = 0


@dataclass(frozen=True)
class Tick:
    """One applied batch: the core's report, the graph size it left, every
    tenant's answer after it, and what the ``repro_match_*`` counters moved
    by while it was applied (empty unless run under :func:`counting`)."""

    report: object  #: :class:`repro.stream.StreamUpdateReport`
    graph_nodes: int
    graph_edges: int
    answers: Mapping[str, Answer]
    match: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Maintained:
    """Outcome of one :func:`maintain` run."""

    admissions: Mapping[str, object]  #: tenant → :class:`repro.stream.TenantAdmission`
    admitted: Mapping[str, Answer]  #: every tenant's answer before the first batch
    ticks: Sequence[Tick]

    @property
    def wall_time(self) -> float:
        return sum(tick.report.wall_time for tick in self.ticks)

    @property
    def rechecked(self) -> int:
        return sum(tick.report.rechecked_centers for tick in self.ticks)

    @property
    def answers(self) -> Mapping[str, Answer]:
        """Every tenant's final answer."""
        return self.ticks[-1].answers if self.ticks else self.admitted

    def matched(self, counter: str) -> int:
        """``repro_match_<counter>_total`` summed over the ticks alone."""
        return int(sum(tick.match.get(f"repro_match_{counter}_total", 0) for tick in self.ticks))


@contextmanager
def counting():
    """Statistics collection on (from fresh watermarks) for the block."""
    reset_collection()
    enable_collection()
    try:
        yield
    finally:
        disable_collection()


def _answers(core) -> dict[str, Answer]:
    return {tenant: Answer.of(session.result) for tenant, session in core.sessions.items()}


def _require_fresh(core, where: str) -> None:
    """Every tenant's maintained answer equals its from-scratch recompute
    (on the core's own backend), or ``AssertionError``."""
    for tenant, session in core.sessions.items():
        if eip_fingerprint(session.result) != eip_fingerprint(session.recompute()):
            raise AssertionError(
                f"{where} on {core.multi.config.backend}: tenant {tenant}'s maintained "
                f"answer diverged from a fresh recompute"
            )


def tick(core, batches: Sequence, verify: bool = True) -> list[Tick]:
    """Apply *batches* through *core* (a :class:`repro.api.SharedSessionCore`).

    Unless *verify* is off (timing reps whose answers the caller compares),
    every tenant is held equal to a recompute after every batch.
    """
    ticks = []
    for position, batch in enumerate(batches, start=1):
        before = registry().counters("repro_match_")
        report, _deltas = core.apply(batch)
        moved = {
            name: count - before.get(name, 0)
            for name, count in registry().counters("repro_match_").items()
        }
        if verify:  # after the counters are read: a recompute searches too
            _require_fresh(core, f"after batch {position}")
        ticks.append(
            Tick(report, core.graph.num_nodes, core.graph.num_edges, _answers(core), moved)
        )
    return ticks


def maintain(
    graph: Graph,
    tenants: Mapping[str, Sequence[GPAR]],
    config: EIPConfig,
    batches: Sequence,
    verify: bool = True,
) -> Maintained:
    """Admit *tenants* into one shared core over a copy of *graph* — the
    served session path; a solo run is its one-tenant case — then
    :func:`tick` it across *batches*."""
    with api.open_shared_core(graph.copy(), config) as core:
        admissions = {
            tenant: core.open_session(tenant, rules).admission
            for tenant, rules in tenants.items()
        }
        if verify:
            _require_fresh(core, "after admissions")
        return Maintained(admissions, _answers(core), tick(core, batches, verify))


def _config(backend: str, workers: int) -> EIPConfig:
    return EIPConfig(eta=ETA, num_workers=workers, backend=backend)


def _stream_row(dataset, backend, mode, algorithm, batches, replay: Replay, **extra) -> Row:
    """The column set shared by the ``stream`` and ``lifecycle`` families."""
    columns = {
        "algorithm": algorithm,
        "batches": batches,
        "rechecked": replay.rechecked,
        "identified": replay.answer.identified,
        **extra,
    }
    return Row(dataset, backend, mode, replay.wall, replay.answer.fingerprint, columns)


# ----------------------------------------------------------------------
# stream: a maintained session per backend
# ----------------------------------------------------------------------
def run_stream(
    dataset: str,
    graph: Graph,
    rules: Sequence[GPAR],
    *,
    workers: int,
    backends: Sequence[str],
    num_batches: int,
    batch_size: int,
) -> list[Row]:
    """One sampled update sequence through a maintained session per backend,
    held equal to a from-scratch recompute after every batch.

    Each row counts what its ticks alone did: ``witness_hits`` positive
    verdicts answered by a kept witness against ``matches_found`` searched
    ones, ``rechecked`` centres against the graph's ``centres``.  The smoke
    loop holds the rows to one fingerprint.
    """
    batches = sample_update_batches(graph, num_batches, batch_size)
    rows = []
    for backend in backends:
        with counting():
            run = maintain(graph, {"solo": rules}, _config(backend, workers), batches)
        repair = Replay(run.wall_time, run.answers["solo"], run.rechecked)
        rows.append(
            _stream_row(dataset, backend, "repair", "match", len(batches), repair,
                        centres=graph.count_nodes_with_label(rules[0].x_label),
                        witness_hits=run.matched("witness_hits"),
                        matches_found=run.matched("matches_found"))
        )
    return rows


# ----------------------------------------------------------------------
# churn: resident-size trajectory under deletion-heavy updates
# ----------------------------------------------------------------------
def run_churn(
    dataset: str,
    graph: Graph,
    rules: Sequence[GPAR],
    *,
    workers: int,
    backends: Sequence[str],
    num_batches: int,
    batch_size: int,
    deletion_bias: float,
) -> list[Row]:
    """One long deletion-biased maintenance run, one row per batch.

    Answers a different question than the repair-speedup rows: does
    resident fragment state (graphs + update logs) stay *bounded* when the
    workload keeps deleting?  Each row records the authoritative graph
    size, the coordinator's resident node count and retained log
    operations, and the batch's lifecycle actions; every batch's maintained
    answer is verified against a recompute.
    """
    batches = sample_update_batches(graph, num_batches, batch_size, deletion_bias=deletion_bias)
    (backend,) = backends
    run = maintain(graph, {"solo": rules}, _config(backend, workers), batches)
    return [
        Row(
            dataset,
            backend,
            wall_time=applied.report.wall_time,
            fingerprint=applied.answers["solo"].fingerprint,
            columns={
                "batch": position,
                "graph_nodes": applied.graph_nodes,
                "graph_edges": applied.graph_edges,
                "resident_nodes": applied.report.resident_nodes,
                "log_ops": applied.report.log_ops,
                "rechecked": applied.report.rechecked_centers,
                "shed": applied.report.shed_nodes,
                "migrated": applied.report.migrated_centers,
                "compacted": applied.report.compacted_fragments,
                "identified": applied.answers["solo"].identified,
            },
        )
        for position, applied in enumerate(run.ticks, start=1)
    ]


# ----------------------------------------------------------------------
# lifecycle: checkpoint → restart → byte-identical answers
# ----------------------------------------------------------------------
def run_lifecycle(
    dataset: str,
    graph: Graph,
    rules: Sequence[GPAR],
    *,
    workers: int,
    backends: Sequence[str],
    num_batches: int,
    batch_size: int,
) -> list[Row]:
    """Checkpoint/restart round-trip through the served session path.

    Per backend: tick a solo core across the sampled sequence,
    ``core.save_state`` it, :func:`repro.api.restore_core` it onto the same
    backend, and require (a) every tenant's restored answer byte-identical
    to the checkpointed one and (b) one further batch applied post-restart
    equal to a from-scratch recompute.  One more leg on ``backends[0]``
    round-trips a core with two overlapping tenants.  Raises
    ``AssertionError`` on any divergence.
    """
    *before, after = sample_update_batches(graph, num_batches + 1, batch_size)
    legs = [(backend, {"solo": rules}) for backend in backends]
    legs.append((backends[0], {"first": rules[:-1], "second": rules[1:]}))
    rows: list[Row] = []

    def row(core, backend, mode, started, applied) -> Row:
        answers = _answers(core).values()
        answer = Answer(
            "+".join(answer.fingerprint for answer in answers),
            sum(answer.identified for answer in answers),
        )
        tag = mode if len(answers) == 1 else f"{mode}[{len(answers)} tenants]"
        replay = Replay(time.perf_counter() - started, answer)
        return _stream_row(dataset, backend, tag, "match", applied, replay)

    for backend, tenants in legs:
        started = time.perf_counter()
        with tempfile.TemporaryDirectory() as scratch:
            with api.open_shared_core(graph.copy(), _config(backend, workers)) as core:
                for tenant, tenant_rules in tenants.items():
                    core.open_session(tenant, tenant_rules)
                tick(core, before, verify=False)  # the row times the ticks; (b) verifies
                checkpointed = _answers(core)
                state_path = core.save_state(Path(scratch) / "state.pkl")
                rows.append(row(core, backend, "checkpointed", started, len(before)))
            started = time.perf_counter()
            with api.restore_core(state_path, backend=backend) as restored:
                if _answers(restored) != checkpointed:
                    raise AssertionError(
                        f"lifecycle restore diverged on {backend}: "
                        f"{_answers(restored)} != {checkpointed}"
                    )
                rows.append(row(restored, backend, "restored", started, 1))
                tick(restored, [after])

    return rows


# ----------------------------------------------------------------------
# tenant: cross-Σ match sharing over one resident graph
# ----------------------------------------------------------------------
def tenant_rule_slices(
    pool: Sequence[GPAR], num_tenants: int, rules_per_tenant: int
) -> dict[str, tuple[GPAR, ...]]:
    """Stride-1 overlapping Σ slices: tenant k serves ``pool[k-1 : k-1+r]``.

    Adjacent tenants share all but one rule — the workload shape the
    marginal-cost gate is about (the k-th tenant's admission should pay for
    its one novel suffix, not its whole Σ).
    """
    needed = num_tenants - 1 + rules_per_tenant
    if len(pool) < needed:
        raise ValueError(
            f"rule pool of {len(pool)} cannot cut {num_tenants} stride-1 "
            f"slices of {rules_per_tenant} (need {needed})"
        )
    return {
        f"tenant-{index + 1}": tuple(pool[index : index + rules_per_tenant])
        for index in range(num_tenants)
    }


_TENANT_COLUMNS = (
    "tenants",
    "rules",  # the admitted tenant's |Σ| (admit) / Σ over tenants (steady)
    "union_rules",  # distinct canonical representatives the core verifies
    "shared_rules",
    "novel_rules",
    "shared_prefix_hits",
    "backfill_centers",
    "verified_centers",
    "batches",
)


def run_tenant(
    dataset: str,
    graph: Graph,
    pool: Sequence[GPAR],
    *,
    workers: int,
    backends: Sequence[str],
    num_tenants: int,
    rules_per_tenant: int,
    num_batches: int,
    batch_size: int,
    equivalence_tenants: int,
) -> list[Row]:
    """N overlapping tenant Σ over one shared core vs independent runs.

    On ``backends[0]``: a one-tenant core replays the sampled sequence (the
    ``single`` row — the baseline the gates scale against), then one shared
    core admits *num_tenants* stride-1 overlapping rule sets (an ``admit``
    row each: marginal wall, novel vs shared rules, backfilled centres) and
    replays the same sequence (the ``steady`` row), with **every** tenant's
    projection verified against an independent run after the admissions and
    after every batch.  Each remaining backend gets a smaller per-batch leg
    through :func:`repro.testing.multi_tenant_check` (``equivalence`` rows).
    """
    tenants = tenant_rule_slices(pool, num_tenants, rules_per_tenant)
    batches = sample_update_batches(graph, num_batches, batch_size)
    primary, *rest = backends
    first = next(iter(tenants))

    def row(mode, backend, wall, answer: Answer | None = None, **measured) -> Row:
        columns = dict.fromkeys(_TENANT_COLUMNS, 0) | measured
        if answer is None:
            return Row(dataset, backend, mode, wall, columns=columns)
        return Row(dataset, backend, mode, wall, answer.fingerprint,
                   columns | {"identified": answer.identified})

    single = maintain(graph, {first: tenants[first]}, _config(primary, workers), batches)
    shared = maintain(graph, tenants, _config(primary, workers), batches)
    cold = single.admissions[first]
    rows = [
        row("single", primary, single.wall_time, single.answers[first], tenants=1,
            rules=rules_per_tenant, union_rules=cold.novel_rules,
            backfill_centers=cold.backfill_centers, verified_centers=single.rechecked,
            batches=len(batches))
    ]
    union = 0
    for count, (tenant, admission) in enumerate(shared.admissions.items(), start=1):
        union += admission.novel_rules
        rows.append(
            row("admit", primary, admission.wall_time, shared.admitted[tenant], tenants=count,
                rules=len(admission.rules), union_rules=union,
                shared_rules=admission.shared_rules, novel_rules=admission.novel_rules,
                shared_prefix_hits=admission.shared_prefix_hits,
                backfill_centers=admission.backfill_centers)
        )
    rows.append(
        row("steady", primary, shared.wall_time, shared.answers[first], tenants=num_tenants,
            rules=sum(len(tenant_rules) for tenant_rules in tenants.values()),
            union_rules=union, verified_centers=shared.rechecked, batches=len(batches))
    )

    small = dict(list(tenants.items())[:equivalence_tenants])
    for backend in rest:
        started = time.perf_counter()
        divergences = multi_tenant_check(
            graph, small, batches, eta=ETA, num_workers=workers, backends=(backend,)
        )
        if divergences:
            raise AssertionError(f"multi-tenant equivalence failed: {divergences[0].describe()}")
        rows.append(
            row("equivalence", backend, time.perf_counter() - started, tenants=len(small),
                rules=sum(len(tenant_rules) for tenant_rules in small.values()),
                batches=len(batches))
        )
    return rows


# ----------------------------------------------------------------------
# obs: what instrumentation costs, in counters
# ----------------------------------------------------------------------
SPAN_CALIBRATION_LOOPS = 10_000


def span_cost() -> float:
    """Seconds one recorded span costs: the median over a tight loop of
    :data:`SPAN_CALIBRATION_LOOPS` empty spans under an installed tracer."""
    install(Tracer())
    try:
        costs = []
        for _ in range(SPAN_CALIBRATION_LOOPS):
            started = time.perf_counter()
            with span("bench.calibrate"):
                pass
            costs.append(time.perf_counter() - started)
    finally:
        uninstall()
    return statistics.median(costs)


def run_obs(
    dataset: str,
    graph: Graph,
    rules: Sequence[GPAR],
    *,
    workers: int,
    backends: Sequence[str],
    num_batches: int,
    batch_size: int,
    reps: int,
) -> list[Row]:
    """Streaming maintenance with observability fully off (the module-level
    no-op span path) and fully on (installed tracer + ``REPRO_OBS``
    statistics collection), *reps* interleaved pairs.

    The instrumented row reports what the gates need as deterministic
    quantities — ``spans``, ``spans_per_tick`` — plus ``est_overhead_pct`` =
    spans × :func:`span_cost` ÷ the best uninstrumented wall.  The measured
    best-of-reps on/off delta is reported as ``overhead_pct`` and gated by
    nothing: it is a ratio of two sub-second walls and swings ±15 % run to
    run.  Both modes must fingerprint identically (the smoke loop checks).
    """
    batches = sample_update_batches(graph, num_batches, batch_size)
    (backend,) = backends
    config = _config(backend, workers)
    registry().reset()
    runs: dict[bool, list[Maintained]] = {False: [], True: []}
    for _ in range(reps):
        runs[False].append(maintain(graph, {"solo": rules}, config, batches, verify=False))
        tracer = install(Tracer())
        try:
            with counting():  # fresh watermarks: each rep ships full counts
                runs[True].append(maintain(graph, {"solo": rules}, config, batches, verify=False))
        finally:
            uninstall()
    off, on = (min(runs[flag], key=lambda run: run.wall_time) for flag in (False, True))
    spans = len(tracer.records())
    cost = span_cost()

    def row(mode, run, **measured) -> Row:
        fingerprint, identified = run.answers["solo"]
        columns = {"batches": len(batches), "reps": reps, "identified": identified, **measured}
        return Row(dataset, backend, mode, run.wall_time, fingerprint, columns)

    return [
        row("uninstrumented", off),
        row(
            "instrumented",
            on,
            spans=spans,
            spans_per_tick=spans / len(batches),
            counter_series=len(registry().counters("repro_")),
            span_cost_us=cost * 1e6,
            est_overhead_pct=spans * cost / off.wall_time * 100.0,
            overhead_pct=(on.wall_time - off.wall_time) / off.wall_time * 100.0,
        ),
    ]


# ----------------------------------------------------------------------
# storm: adversarial churn through the differential oracle
# ----------------------------------------------------------------------
def run_storm(
    dataset: str,
    graph: Graph,
    rules: Sequence[GPAR],
    *,
    workers: int,
    backends: Sequence[str],
    num_batches: int,
    batch_size: int,
) -> list[Row]:
    """Every storm family × backend through the differential oracle.

    Each family samples its batch sequence once, then a single-backend
    :class:`repro.testing.DifferentialOracle` checks the maintained
    streaming state against fresh recomputes after every batch.  Any
    divergence is distilled to a minimal counterexample and — unless MinHash
    flags it as a near-duplicate of a known case — written to
    ``tests/regressions/`` for the pytest collector to replay forever.
    ``divergences`` counts first-divergences (the smoke gate fails on any),
    ``shrunk_ops`` the op count of the distilled counterexamples,
    ``deduped`` the near-duplicates dropped; ``identified`` is the largest
    identified set the identifier check compared and ``answers`` how many
    distinct ones, ``matched`` the most centres the served antecedent match
    sets held at once and ``match_answers`` how many distinct states of them
    the matches check compared (the gates refuse a run that compared empty or
    unchanging answers only).
    """
    rows: list[Row] = []
    for storm in sorted(STORM_FAMILIES):
        batches = sample_update_batches(graph, num_batches, batch_size, STORM_FAMILIES[storm])
        for backend in backends:
            oracle = DifferentialOracle(rules, eta=ETA, num_workers=workers, backends=(backend,))
            report = oracle.run(graph, batches)
            shrunk_ops = deduped = 0
            known = known_signatures(CASES_DIR)
            for position, divergence in enumerate(report.divergences):
                distilled = distill(graph, batches, oracle.checker_for(divergence))
                shrunk_ops += distilled.num_ops
                if is_duplicate(distilled.signature, known):
                    deduped += 1
                    continue
                known.append(distilled.signature)
                case = from_distilled(
                    f"storm-{dataset}-{storm}-{backend}-{position}",
                    f"storm harness: {storm} family diverged on {backend} "
                    f"({divergence.describe()})",
                    distilled,
                    rules,
                    config={
                        "algorithm": oracle.algorithm,
                        "eta": ETA,
                        "num_workers": workers,
                        "seed": oracle.seed,
                        "backend": backend,
                    },
                )
                write_case(case, CASES_DIR)
            rows.append(
                Row(
                    dataset,
                    backend,
                    wall_time=report.wall_time,
                    columns={
                        "storm": storm,
                        "batches": len(batches),
                        "ops": sum(len(batch) for batch in batches),
                        "checks": report.checks,
                        "checks_per_s": report.checks_per_second,
                        "divergences": len(report.divergences),
                        "shrunk_ops": shrunk_ops,
                        "deduped": deduped,
                        "identified": max(map(len, report.answers), default=0),
                        "answers": len(report.answers),
                        "matched": max(
                            (sum(len(found) for _, found in sets) for sets in report.match_answers),
                            default=0,
                        ),
                        "match_answers": len(report.match_answers),
                    },
                )
            )
    return rows
