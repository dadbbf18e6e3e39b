"""Benchmark smoke runner: one tiny fig5 workload per algorithm family.

Used by the CI benchmark-smoke job to catch pickling and hang regressions in
the execution backends without paying for a full fig5 sweep::

    python -m repro.bench.smoke --family dmine --backend processes --workers 2
    python -m repro.bench.smoke --family match --backend processes --workers 2
    python -m repro.bench.smoke --family stream --workers 2
    python -m repro.bench.smoke --family stream --deletion-bias 0.7 --workers 2
    python -m repro.bench.smoke --family lifecycle --workers 2
    python -m repro.bench.smoke --family obs --workers 2

Each run executes the configuration on the sequential baseline and on the
requested backend, asserts the two produce identical results, prints the
paper-style table and always writes a machine-readable ``BENCH_<family>.json``
to the working directory — the repo root in CI — (same row shape as
``benchmarks/results``) so successive CI runs can track the perf
trajectory; CI uploads them as workflow artifacts.

The ``match`` family additionally runs one large-regime scenario: matching
traffic on a dense graph 250× the smoke scale (100k nodes by default)
through the resident structure; completing under the smoke timeout is that
row's whole gate.

The ``stream`` family is the repair-vs-recompute gate of :mod:`repro.stream`:
one sampled update sequence on the dense workload replayed in *repair* mode
(a maintained :class:`~repro.stream.StreamingIdentifier` /
:class:`~repro.stream.MaintainedMatchView`) and in *recompute* mode (a full
run after every batch), per backend.  Every batch's maintained result is
checked byte-identical to a from-scratch recompute, and the run fails if the
sequential ``repair_speedup`` drops below 1.0.  With ``--deletion-bias`` the
family switches to the deletion-heavy churn variant: one long shrinking
maintenance run recording resident fragment size per batch
(``BENCH_stream_churn.json``), gated on bounded residency (shedding and
log compaction must keep pace — see ``docs/lifecycle.md``).

The ``lifecycle`` family is the checkpoint→restart gate: per backend, an
``api.open_session`` session is ``core.save_state``d, ``api.restore_core``d
and required byte-identical before and after, including one further batch
against a fresh recompute; one leg round-trips a two-tenant core.

The ``serve`` family is the serving-contract gate of :mod:`repro.serve`:
a loopback HTTP server hosts one session on the dense workload while 8
reader threads paginate ``GET /answer`` and a writer POSTs update batches.
The run fails if any pagination pass mixes graph versions (a torn read) or
if any served delta — per-tick response and subscription replay alike —
is not byte-identical to the set-difference of fresh recomputes; the
trajectory rows report p50/p99 read latency and ticks/sec
(``BENCH_serve.json``).

The ``obs`` family is the cost-of-observability gate of :mod:`repro.obs`
(docs/observability.md): the dense streaming workload maintained with
instrumentation fully off (the module-level no-op span path) and fully on
(installed tracer + ``REPRO_OBS`` statistics collection), interleaved
best-of-reps.  The run fails if the instrumented wall regresses more than
5% over the uninstrumented one, if a live ``GET /metrics`` scrape does not
parse under the strict Prometheus parser with the stream/http families
present, or if the trace does not survive its JSON-lines round-trip
(``BENCH_obs.json``).

``--profile`` wraps the whole family in :mod:`cProfile` and prints the top
25 functions by cumulative time — the first stop when a trajectory row
regresses.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
from pathlib import Path

from repro.bench.harness import (
    run_dmine_backends,
    run_eip_backends,
    run_eip_stream_comparison,
    run_lifecycle_roundtrip,
    run_matching_traffic,
    run_matchview_stream_comparison,
    run_obs_overhead,
    run_serve_load,
    run_storm_suite,
    run_stream_churn,
    run_tenant_scaling,
)
from repro.bench.reporting import format_rows, rows_as_json, wall_speedups
from repro.bench.workloads import (
    dense_eip_workload,
    dense_mining_workload,
    eip_workload,
    mining_workload,
    storm_workload,
    stream_workload,
)
from repro.parallel.executor import BACKENDS

FAMILIES = (
    "dmine",
    "match",
    "stream",
    "lifecycle",
    "serve",
    "tenant",
    "storm",
    "obs",
)

# Tiny-but-nontrivial smoke scales: seconds per family, not minutes.
SMOKE_SCALE = 400
SMOKE_SIGMA = 2
SMOKE_RULES = 6

# The match family's large-regime scenario: resident matching traffic on a
# dense graph MATCH_LARGE_FACTOR × the smoke scale (100k nodes at the
# default).  Σ is sampled on the dense graph at the smoke scale — the dense
# generator's label universe is scale-independent, so the same Σ applies.
MATCH_LARGE_FACTOR = 250
MATCH_LARGE_RULES = 4

# The streaming family replays one sampled update sequence in repair and
# recompute mode on the dense 4000-node workload; a few medium batches keep
# the smoke honest (every batch is gate-checked against a full recompute)
# without the recompute half dominating the CI budget.
STREAM_SCALE = 4000
STREAM_RULES = 12
STREAM_BATCHES = 3
STREAM_BATCH_SIZE = 8

# The deletion-heavy churn variant (`--family stream --deletion-bias 0.7`)
# replays enough shrinking batches that unbounded resident growth would be
# visible, and gates on the resident-size trajectory instead of speedups.
CHURN_BATCHES = 50
CHURN_BATCH_SIZE = 16

# The lifecycle family checkpoints a maintained run, restarts it on every
# backend, and gates on byte-identical answers before and after.
LIFECYCLE_BATCHES = 3
LIFECYCLE_BATCH_SIZE = 8

# The serve family runs N concurrent HTTP readers against a hosted session
# on the dense workload while updates tick, gating on the serving contract
# (no torn reads, deltas byte-identical to fresh recomputes) and reporting
# the read-latency distribution and tick throughput.
SERVE_CLIENTS = 8
SERVE_BATCHES = 3
SERVE_BATCH_SIZE = 8

# The tenant family admits TENANT_COUNT stride-1 overlapping rule sets
# (each sharing all but one rule with its neighbour, cut from one mined
# pool) into a shared MultiTenantIdentifier on the dense workload, then
# replays update batches against the shared core and a single-tenant
# baseline.  Every projection is gated byte-identical to an independent
# run inside the runner; the gate here watches the scaling trajectory —
# marginal admission and steady-state cost both at most
# TENANT_MARGINAL_LIMIT x the baseline, a genuinely deduplicated union,
# and non-zero shared-prefix hits.
TENANT_COUNT = 8
TENANT_RULES = 6
TENANT_POOL_RULES = 16
TENANT_BATCHES = 2
TENANT_BATCH_SIZE = 8
TENANT_MARGINAL_LIMIT = 0.5
TENANT_UNION_LIMIT = 0.6

# The obs family maintains the dense streaming workload with observability
# fully off and fully on (installed tracer + REPRO_OBS collection),
# interleaved best-of-reps, and gates the instrumentation overhead at 5%
# alongside the /metrics scrape and trace JSON-lines round-trips.
# Batches are deliberately large: the per-tick instrumentation cost is
# fixed, so deep ticks keep the measured ratio about the instrumentation
# rather than about timer noise on a near-empty wall.
OBS_BATCHES = 6
OBS_BATCH_SIZE = 24
OBS_REPS = 5
OBS_OVERHEAD_LIMIT_PCT = 5.0

# The storm family replays every adversarial churn generator (correlated
# deletions, label flips, hub churn, ball bursts, plus uniform random)
# through the differential oracle on every backend: maintained streaming
# state vs a fresh recompute after every batch, divergences distilled to
# minimal regression cases.  Scale is SMOKE-tier — the oracle's fresh
# recompute per (batch, backend) dominates, not the maintenance itself.
STORM_SCALE = 400
STORM_RULES = 3
STORM_BATCHES = 3
STORM_BATCH_SIZE = 6


def run_smoke(
    family: str,
    backend: str | None,
    workers: int,
    pool_size: int | None = None,
    scale: int | None = None,
    deletion_bias: float | None = None,
) -> list:
    """Run the family's smoke workload on sequential + *backend*; return rows.

    *backend* ``None`` picks the family default: ``processes`` for the
    dmine/match families, *all* backends for the comparison families'
    cross-backend equivalence gates.  An explicit backend restricts the
    comparison families to sequential + that backend.
    ``deletion_bias`` switches the ``stream`` family into its
    deletion-heavy churn variant (resident-size trajectory instead of the
    repair-speedup comparison).
    """
    if scale is None:
        if family in ("stream", "lifecycle", "serve", "tenant", "obs"):
            scale = STREAM_SCALE
        elif family == "storm":
            scale = STORM_SCALE
        else:
            scale = SMOKE_SCALE
    if family in ("dmine", "match") and backend is None:
        backend = "processes"
    if family == "dmine":
        graph, predicate = mining_workload("synthetic", scale)
        return run_dmine_backends(
            "synthetic",
            graph,
            predicate,
            num_workers=workers,
            sigma=SMOKE_SIGMA,
            backends=[backend],
            executor_workers=pool_size,
        )
    if family == "match":
        graph, rules = eip_workload("synthetic", num_rules=SMOKE_RULES, scale=scale)
        rows: list = list(
            run_eip_backends(
                "synthetic",
                graph,
                rules,
                num_workers=workers,
                algorithm="match",
                eta=0.5,
                backends=[backend],
                executor_workers=pool_size,
            )
        )
        large_scale = scale * MATCH_LARGE_FACTOR
        large_graph, _ = dense_mining_workload(large_scale)
        _, dense_rules = stream_workload(scale, STREAM_RULES)
        rows.append(
            run_matching_traffic(
                "synthetic-large",
                large_graph,
                dense_rules[:MATCH_LARGE_RULES],
                "guided",
                reps=1,
                parameter="scale",
                value=large_scale,
            )
        )
        return rows
    if family == "lifecycle":
        backends = (
            BACKENDS
            if backend is None
            else tuple(dict.fromkeys(("sequential", backend)))
        )
        graph, rules = stream_workload(scale, STREAM_RULES)
        return run_lifecycle_roundtrip(
            "synthetic-dense",
            graph,
            rules,
            num_workers=workers,
            backends=backends,
            executor_workers=pool_size,
            num_batches=LIFECYCLE_BATCHES,
            batch_size=LIFECYCLE_BATCH_SIZE,
            eta=0.5,
        )
    if family == "stream":
        backends = (
            BACKENDS
            if backend is None
            else tuple(dict.fromkeys(("sequential", backend)))
        )
        graph, rules = stream_workload(scale, STREAM_RULES)
        if deletion_bias is not None:
            # Churn variant: one long deletion-biased maintenance run with
            # the resident-size trajectory as the measurement.
            return run_stream_churn(
                "synthetic-dense",
                graph,
                rules,
                num_workers=workers,
                num_batches=CHURN_BATCHES,
                batch_size=CHURN_BATCH_SIZE,
                deletion_bias=deletion_bias,
                eta=0.5,
            )
        # Part 1: maintained match sets (MatchStore.repair) vs re-matching.
        rows = list(
            run_matchview_stream_comparison(
                "synthetic-dense",
                graph,
                rules,
                num_batches=STREAM_BATCHES,
                batch_size=STREAM_BATCH_SIZE,
            )
        )
        # Part 2: the StreamingIdentifier vs a full recompute per batch, on
        # every selected backend; each batch is gate-checked for identical
        # results inside the runner.
        rows.extend(
            run_eip_stream_comparison(
                "synthetic-dense",
                graph,
                rules,
                num_workers=workers,
                algorithm="match",
                eta=0.5,
                backends=backends,
                executor_workers=pool_size,
                num_batches=STREAM_BATCHES,
                batch_size=STREAM_BATCH_SIZE,
            )
        )
        return rows
    if family == "storm":
        backends = (
            BACKENDS
            if backend is None
            else tuple(dict.fromkeys(("sequential", backend)))
        )
        graph, rules = storm_workload(scale, STORM_RULES)
        return run_storm_suite(
            "synthetic",
            graph,
            rules,
            num_workers=workers,
            backends=backends,
            num_batches=STORM_BATCHES,
            batch_size=STORM_BATCH_SIZE,
            eta=0.5,
            algorithm="match",
        )
    if family == "obs":
        # Sequential-only by design: the overhead gate compares the no-op
        # instrumentation path against the traced one on a pool-free run,
        # so scheduler variance cannot masquerade as tracer cost.
        graph, rules = stream_workload(scale, STREAM_RULES)
        return run_obs_overhead(
            "synthetic-dense",
            graph,
            rules,
            num_workers=workers,
            num_batches=OBS_BATCHES,
            batch_size=OBS_BATCH_SIZE,
            eta=0.5,
            reps=OBS_REPS,
        )
    if family == "tenant":
        backends = (
            BACKENDS
            if backend is None
            else tuple(dict.fromkeys(("sequential", backend)))
        )
        # The mined pool shares antecedent prefixes by construction, so the
        # stride-1 tenant slices overlap exactly the way real co-hosted rule
        # sets do (shared canonical keys + shared prefixes).
        graph, pool = dense_eip_workload(scale, TENANT_POOL_RULES)
        return run_tenant_scaling(
            "synthetic-dense",
            graph,
            pool,
            num_tenants=TENANT_COUNT,
            rules_per_tenant=TENANT_RULES,
            num_workers=workers,
            algorithm="match",
            eta=0.5,
            backends=backends,
            executor_workers=pool_size,
            num_batches=TENANT_BATCHES,
            batch_size=TENANT_BATCH_SIZE,
        )
    if family == "serve":
        # Σ is regenerated server-side from the same (predicate, params) the
        # stream_workload uses, so the bench's mirror rules match the hosted
        # session's rules exactly (run_serve_load checks this by name).
        graph, rules = stream_workload(scale, STREAM_RULES)
        _, predicate = dense_mining_workload(scale)
        edge = predicate.edges()[0]
        session_request = {
            "predicate": (
                f"{predicate.label(predicate.x)}:{edge.label}:{predicate.label(predicate.y)}"
            ),
            "rules": STREAM_RULES,
            "max_edges": 3,
            "d": 2,
            "seed": 11,
            "eta": 0.5,
            "workers": workers,
            "algorithm": "match",
        }
        return run_serve_load(
            "synthetic-dense",
            graph,
            rules,
            session_request,
            clients=SERVE_CLIENTS,
            num_batches=SERVE_BATCHES,
            batch_size=SERVE_BATCH_SIZE,
        )
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def _check_equivalence(rows) -> None:
    """The smoke's correctness gate: every backend must match sequential.

    Compares the rows' content *fingerprints* (hash of the full rule set /
    identified-entity set), so a backend returning different-but-same-sized
    results fails loudly.
    """
    fingerprints = {row.backend: row.fingerprint for row in rows}
    reference = fingerprints.get("sequential")
    for backend, fingerprint in fingerprints.items():
        if fingerprint != reference:
            raise SystemExit(
                f"backend {backend!r} diverged from sequential: "
                f"result fingerprint {fingerprint} != {reference}"
            )


def _stream_speedups(rows) -> dict[str, float]:
    """``{algorithm@backend: repair_speedup}`` of the repair rows."""
    return {
        f"{row.algorithm}@{row.backend}": row.repair_speedup
        for row in rows
        if getattr(row, "repair_speedup", None) is not None
    }


def _check_stream_gate(rows) -> None:
    """Regression gate: single-threaded streaming repair must beat recompute.

    Per-batch result equivalence already failed inside the comparison
    runners if repair diverged anywhere; this gate watches the perf
    trajectory.  It covers the sequential EIP rows *and* the pool-free
    ``in-process`` maintained-match-set rows, and deliberately skips the
    thread/process rows, whose pool- and routing-dependent costs
    legitimately vary run to run.
    """
    for row in rows:
        speedup = getattr(row, "repair_speedup", None)
        if speedup is None or row.backend not in ("sequential", "in-process"):
            continue
        if speedup < 1.0:
            raise SystemExit(
                f"streaming regression: {row.backend} {row.algorithm} "
                f"repair_speedup {speedup:.2f} < 1.0"
            )


def _check_churn_gate(rows, workers: int) -> None:
    """Regression gate: deletion-heavy churn must keep resident state bounded.

    Two invariants: (a) the resident node count of the run's last quarter
    never exceeds the first quarter's peak (no monotone growth — shedding
    and checkpointing keep pace with the churn), and (b) every batch leaves
    each retained log under the compaction threshold, so total retained log
    operations stay below ``fraction × resident`` plus a per-fragment
    rounding slack.
    """
    from repro.stream import StreamConfig

    if not rows:
        raise SystemExit("churn run produced no rows")
    fraction = StreamConfig().checkpoint_log_fraction
    quarter = max(1, len(rows) // 4)
    early_peak = max(row.resident_nodes for row in rows[:quarter])
    late_peak = max(row.resident_nodes for row in rows[-quarter:])
    if late_peak > early_peak:
        raise SystemExit(
            f"churn regression: resident fragment nodes grew under a "
            f"deletion-heavy workload (early peak {early_peak}, late peak "
            f"{late_peak})"
        )
    slack = fraction * max(1, workers) + 1
    for row in rows:
        bound = fraction * row.resident_nodes + slack
        if row.log_ops > bound:
            raise SystemExit(
                f"churn regression: batch {row.batch} retains {row.log_ops} "
                f"log ops, above the compaction bound {bound:.0f}"
            )


def _check_obs_gate(rows) -> None:
    """Regression gate: observability must stay cheap and round-trip cleanly.

    The runner already failed if instrumentation changed the maintained
    answer; this gate holds the acceptance criteria of the obs layer —
    instrumented-vs-uninstrumented overhead within
    ``OBS_OVERHEAD_LIMIT_PCT``, the live ``GET /metrics`` scrape parsed by
    the strict Prometheus parser with the expected families present, and
    the trace surviving its JSON-lines round-trip.
    """
    instrumented = [row for row in rows if row.mode == "instrumented"]
    if not instrumented:
        raise SystemExit("obs run produced no instrumented row")
    for row in instrumented:
        if not row.scrape_ok:
            raise SystemExit(
                "obs regression: GET /metrics scrape missing the expected "
                "stream/http families (see scrape_ok in BENCH_obs.json)"
            )
        if not row.trace_ok:
            raise SystemExit(
                "obs regression: trace JSON-lines round-trip lost or "
                "mutated spans (see trace_ok in BENCH_obs.json)"
            )
        if row.spans == 0:
            raise SystemExit(
                "obs regression: instrumented run recorded zero spans"
            )
        if row.overhead_pct is not None and row.overhead_pct > OBS_OVERHEAD_LIMIT_PCT:
            raise SystemExit(
                f"obs regression: instrumentation overhead "
                f"{row.overhead_pct:.2f}% > {OBS_OVERHEAD_LIMIT_PCT:.0f}%"
            )


def _check_tenant_gate(rows) -> None:
    """Regression gate: the k-th tenant must ride the shared substrate.

    Cross-Σ result equivalence already failed inside the runner if any
    tenant projection diverged from its independent run; this gate watches
    the scaling trajectory — marginal admission (wall clock *and* backfilled
    centres) at most ``TENANT_MARGINAL_LIMIT ×`` the cold first admission,
    steady-state shared maintenance at most ``TENANT_MARGINAL_LIMIT × k ×``
    the single-tenant baseline (wall clock and per-tick verify count), a
    resident union at most ``TENANT_UNION_LIMIT ×`` the summed tenant Σ
    sizes, and non-zero shared-prefix hits (silent canonicalization death).
    """
    admits = [row for row in rows if row.mode == "admit"]
    single = next((row for row in rows if row.mode == "single"), None)
    steady = next((row for row in rows if row.mode == "steady"), None)
    if len(admits) < 2 or single is None or steady is None:
        raise SystemExit("tenant run produced no admit/single/steady rows")
    cold, last = admits[0], admits[-1]
    if last.wall_time > TENANT_MARGINAL_LIMIT * cold.wall_time:
        raise SystemExit(
            f"tenant regression: admitting tenant {last.tenants} cost "
            f"{last.wall_time:.3f}s, above {TENANT_MARGINAL_LIMIT:.1f} x the "
            f"cold admission ({cold.wall_time:.3f}s)"
        )
    # A warm admission still walks every resident centre, but verifies only
    # the novel suffix against each — so the work unit is centre x rule
    # verifications, not centres.
    cold_work = cold.backfill_centers * max(1, cold.novel_rules)
    last_work = last.backfill_centers * last.novel_rules
    if last_work > TENANT_MARGINAL_LIMIT * cold_work:
        raise SystemExit(
            f"tenant regression: admitting tenant {last.tenants} cost "
            f"{last_work} centre-rule verifications, above "
            f"{TENANT_MARGINAL_LIMIT:.1f} x the cold admission ({cold_work})"
        )
    k = steady.tenants
    if steady.wall_time > TENANT_MARGINAL_LIMIT * k * single.wall_time:
        raise SystemExit(
            f"tenant regression: shared steady state cost {steady.wall_time:.3f}s "
            f"for {k} tenants, above {TENANT_MARGINAL_LIMIT:.1f} x {k} x the "
            f"single-tenant baseline ({single.wall_time:.3f}s)"
        )
    if steady.verified_centers > TENANT_MARGINAL_LIMIT * k * single.verified_centers:
        raise SystemExit(
            f"tenant regression: shared core verified {steady.verified_centers} "
            f"centres for {k} tenants, above {TENANT_MARGINAL_LIMIT:.1f} x {k} x "
            f"the single-tenant baseline ({single.verified_centers})"
        )
    if steady.union_rules > TENANT_UNION_LIMIT * steady.rules:
        raise SystemExit(
            f"tenant regression: resident union of {steady.union_rules} rules "
            f"over {steady.rules} admitted — canonical dedup is not biting "
            f"(gate <= {TENANT_UNION_LIMIT:.1f} x)"
        )
    if sum(row.shared_prefix_hits for row in admits) == 0:
        raise SystemExit(
            "tenant regression: admissions recorded zero shared-prefix hits "
            "on overlapping rule sets — prefix sharing silently died"
        )


def _check_storm_gate(rows) -> None:
    """Regression gate: no storm may leave a surviving divergence.

    Every divergence has already been distilled and (if novel) written to
    ``tests/regressions/`` by the suite runner — the artifact JSON records
    how many; this gate turns any non-zero count into a failed run so CI
    both fails loudly *and* leaves the shrunk counterexample behind.
    """
    if not rows:
        raise SystemExit("storm run produced no rows")
    for row in rows:
        if row.divergences:
            raise SystemExit(
                f"storm regression: {row.storm} storm on backend "
                f"{row.backend} diverged {row.divergences} time(s) "
                f"(distilled to {row.shrunk_ops} ops, {row.deduped} known "
                "duplicates) — see tests/regressions/"
            )


def _report_family(family: str, backend: str | None, workers: int, rows) -> None:
    """Print the family's tables, speedups and gates; exits on a gate failure."""
    if family == "lifecycle":
        shown = "/".join(BACKENDS) if backend is None else f"sequential/{backend}"
        title = f"smoke lifecycle (n={workers}, backends={shown})"
        print(f"== {title} ==")
        print("-- checkpoint -> restart -> byte-identical answers (gated in-run) --")
        print(format_rows(rows))
    elif family == "stream" and rows and hasattr(rows[0], "resident_nodes"):
        title = f"smoke stream churn (n={workers}, deletion-biased)"
        print(f"== {title} ==")
        print("-- resident fragment size under deletion churn (gated bounded) --")
        shown_rows = rows if len(rows) <= 12 else rows[:3] + rows[-9:]
        print(format_rows(shown_rows))
        first, last = rows[0], rows[-1]
        print(
            f"resident nodes {first.resident_nodes} -> {last.resident_nodes}, "
            f"graph nodes {first.graph_nodes} -> {last.graph_nodes}, "
            f"shed total {sum(row.shed for row in rows)}, "
            f"compactions {sum(row.compacted for row in rows)}"
        )
        _check_churn_gate(rows, workers)
    elif family == "stream":
        shown = "/".join(BACKENDS) if backend is None else f"sequential/{backend}"
        title = f"smoke stream (n={workers}, backends={shown})"
        print(f"== {title} ==")
        view_rows = [row for row in rows if row.backend == "in-process"]
        eip_rows = [row for row in rows if row.backend != "in-process"]
        print("-- maintained match sets: MatchStore.repair vs re-matching --")
        print(format_rows(view_rows))
        print("-- streaming EIP: repair vs full recompute per batch (gated) --")
        print(format_rows(eip_rows))
        for name, speedup in sorted(_stream_speedups(rows).items()):
            print(f"repair speedup ({name}): {speedup:.2f}x")
        _check_stream_gate(rows)
    elif family == "storm":
        shown = "/".join(BACKENDS) if backend is None else f"sequential/{backend}"
        title = f"smoke storm (n={workers}, backends={shown})"
        print(f"== {title} ==")
        print("-- adversarial churn x differential oracle (gated on zero divergences) --")
        print(format_rows(rows))
        checks = sum(row.checks for row in rows)
        wall = sum(row.wall_time for row in rows)
        rate = f"{checks / wall:.1f}/s" if wall else "n/a"
        print(
            f"storms {len({row.storm for row in rows})}, combos {len(rows)}, "
            f"oracle checks {checks} ({rate})"
        )
        _check_storm_gate(rows)
    elif family == "obs":
        title = f"smoke obs (n={workers}, sequential, best of {OBS_REPS})"
        print(f"== {title} ==")
        print("-- streaming maintenance, observability off vs on (gated <=5%) --")
        print(format_rows(rows))
        on = next(row for row in rows if row.mode == "instrumented")
        overhead = on.overhead_pct if on.overhead_pct is not None else 0.0
        print(
            f"instrumentation overhead {overhead:.2f}% "
            f"(gate <= {OBS_OVERHEAD_LIMIT_PCT:.0f}%); {on.spans} spans, "
            f"{on.counter_series} counter series; scrape_ok={on.scrape_ok} "
            f"trace_ok={on.trace_ok}"
        )
        _check_obs_gate(rows)
    elif family == "tenant":
        shown = "/".join(BACKENDS) if backend is None else f"sequential/{backend}"
        title = f"smoke tenant (n={workers}, backends={shown})"
        print(f"== {title} ==")
        print("-- shared-core multi-tenant scaling (projections gated in-run) --")
        print(format_rows(rows))
        admits = [row for row in rows if row.mode == "admit"]
        single = next(row for row in rows if row.mode == "single")
        steady = next(row for row in rows if row.mode == "steady")
        cold, last = admits[0], admits[-1]
        marginal = last.wall_time / cold.wall_time if cold.wall_time else 0.0
        shared_cost = (
            steady.wall_time / (steady.tenants * single.wall_time)
            if single.wall_time
            else 0.0
        )
        print(
            f"marginal admission (tenant {last.tenants} vs cold): {marginal:.2f}x; "
            f"steady shared cost vs k x single: {shared_cost:.2f}x; "
            f"union {steady.union_rules} rules over {steady.rules} admitted; "
            f"prefix hits {sum(row.shared_prefix_hits for row in admits)}"
        )
        _check_tenant_gate(rows)
    elif family == "serve":
        row = rows[0]
        title = f"smoke serve (clients={row.clients}, batches={row.batches})"
        print(f"== {title} ==")
        print("-- HTTP serving under update pressure (contract gated in-run) --")
        print(format_rows(rows))
        print(
            f"read latency p50 {row.read_p50_ms:.1f}ms / p99 {row.read_p99_ms:.1f}ms "
            f"over {row.reads} reads x {row.clients} clients; "
            f"{row.ticks_per_sec:.2f} ticks/s; torn reads: {row.torn_reads}"
        )
    else:
        # The match family's large-regime row is in-process matching traffic,
        # not a backend run: report it apart from the equivalence gate.
        large_rows = [row for row in rows if hasattr(row, "patterns_matched")]
        rows = [row for row in rows if not hasattr(row, "patterns_matched")]
        _check_equivalence(rows)
        title = f"smoke {family} (n={workers}, backend={backend})"
        print(f"== {title} ==")
        print(format_rows(rows))
        if large_rows:
            print("-- large-regime scenario (gate: completes under the smoke timeout) --")
            print(format_rows(large_rows))
        speedups = wall_speedups(rows)
        if backend in speedups:
            print(f"wall speedup ({backend} vs sequential): {speedups[backend]:.2f}x")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench-smoke",
        description="Tiny per-family benchmark smoke run for CI.",
    )
    parser.add_argument("--family", choices=list(FAMILIES), required=True)
    parser.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default=None,
        help="backend to compare against sequential (default: processes; "
        "the comparison families run all backends unless one is given)",
    )
    parser.add_argument("--workers", type=int, default=2, help="fragments / BSP workers")
    parser.add_argument("--pool-size", type=int, default=None, dest="pool_size")
    parser.add_argument(
        "--scale",
        type=int,
        default=None,
        help=f"workload node count (default {SMOKE_SCALE}, streaming "
        f"families {STREAM_SCALE})",
    )
    parser.add_argument(
        "--deletion-bias",
        type=float,
        default=None,
        dest="deletion_bias",
        help="switch the stream family to its deletion-heavy churn variant "
        "(e.g. 0.7): one long maintenance run gated on bounded resident "
        "fragment size, persisted as BENCH_stream_churn.json",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run the family under cProfile and print the top 25 functions "
        "by cumulative time",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="JSON output path (default BENCH_<family>.json in the working "
        "directory — the repo root in CI)",
    )
    args = parser.parse_args(argv)

    backend = args.backend
    if backend is None and args.family in ("dmine", "match"):
        backend = "processes"
    if args.deletion_bias is not None and args.family != "stream":
        raise SystemExit("--deletion-bias only applies to the stream family")
    if args.profile:
        profiler = cProfile.Profile()
        profiler.enable()
        rows = run_smoke(
            args.family, backend, args.workers, args.pool_size, args.scale, args.deletion_bias
        )
        profiler.disable()
        buffer = io.StringIO()
        pstats.Stats(profiler, stream=buffer).sort_stats("cumulative").print_stats(25)
        print(f"== cProfile top 25 (family={args.family}) ==")
        print(buffer.getvalue())
    else:
        rows = run_smoke(
            args.family, backend, args.workers, args.pool_size, args.scale, args.deletion_bias
        )

    # Persist the trajectory rows *before* the gates run: a failing gate
    # must still leave the JSON of the run that regressed for diagnosis.
    family_tag = (
        "stream_churn"
        if args.family == "stream" and args.deletion_bias is not None
        else args.family
    )
    title = f"smoke {family_tag} (n={args.workers})"
    out = args.out if args.out is not None else Path(f"BENCH_{family_tag}.json")
    out.write_text(rows_as_json(f"smoke_{family_tag}", title, rows) + "\n")

    _report_family(args.family, backend, args.workers, rows)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
