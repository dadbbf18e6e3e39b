"""Benchmark smoke runner: one scenario table, one run → report → gate loop.

The CI ``bench-smoke`` job runs one family per step::

    python -m repro.bench.smoke --family dmine --backend processes --workers 2
    python -m repro.bench.smoke --family stream --workers 2

:data:`SCENARIOS` maps each family to a :class:`Scenario`: its workload
builder and scale, the :mod:`repro.bench.harness` runner and the constants
it takes, a backend policy, the titled sections its rows print under, its
gates and a one-line summary.  :func:`run_family` is the only loop:

1. build the workload and run it on the backends the policy selects
   (``pair``: sequential + ``--backend``, default ``processes``;
   ``sequential``: just that);
2. write ``BENCH_<family>.json`` **before** any gate, so a failing run
   leaves its numbers behind — CI uploads the files as the perf trajectory;
3. print the summary and each section's table (every column a row reports);
4. apply the generic checks: the rows of a section answer one question and
   share one fingerprint (across backends, restored vs checkpointed,
   instrumentation off vs on), and no row reports an empty
   EIP answer or an empty mined rule set — ``identified`` = 0 or ``rules`` =
   0 would make every such comparison vacuous;
5. apply the family's own gates.  A failed check exits non-zero.

Checks that need more than the rows (maintained = fresh recompute after
every batch, every tenant projection = an independent run, zero storm
divergences) are made inside the runners by :func:`repro.bench.harness.tick`
or :mod:`repro.testing`'s oracles and surface as ``AssertionError``.  Every
streaming family maintains the mined dense Σ of
:func:`~repro.bench.workloads.dense_eip_workload`.  To profile a family:
``python -m cProfile -s cumulative -m repro.bench.smoke --family …``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.bench.harness import (
    Row,
    run_churn,
    run_dmine_backends,
    run_lifecycle,
    run_match_smoke,
    run_obs,
    run_storm,
    run_stream,
    run_tenant,
)
from repro.bench.reporting import format_rows, rows_as_json
from repro.bench.workloads import (
    dense_eip_workload,
    eip_workload,
    mining_workload,
    storm_workload,
)
from repro.parallel.executor import BACKENDS
from repro.stream import StreamConfig

# Tiny-but-nontrivial scales: seconds per family, not minutes.  The
# streaming families need the dense 4000-node graph for a mined Σ that
# identifies entities and updates whose d-hop regions stay local.
SMOKE_SCALE = 400
STREAM_SCALE = 4000
STREAM_RULES = 12

# The match family's large-regime row: guided matching traffic on a dense
# graph MATCH_LARGE_FACTOR × the scale (100k nodes at the default), with Σ
# sampled on the dense graph at the smoke scale — the generator's label
# universe is scale-independent, so the same Σ applies.
MATCH_LARGE_FACTOR = 250
MATCH_LARGE_RULES = 4

# Marginal admission and shared steady state at most this × the baseline's
# verifications; the resident union at most TENANT_UNION_LIMIT × the summed
# tenant Σ sizes.
TENANT_MARGINAL_LIMIT = 0.5
TENANT_UNION_LIMIT = 0.6

# Instrumentation may cost 5 % of the uninstrumented wall, estimated as
# spans × per-span cost; a tick may record OBS_SPANS_PER_TICK spans for the
# coordinator and for each fragment (measured: 5.2 + 4.5 × workers, session
# admission included — about 2× headroom at 1 to 8 workers).
OBS_OVERHEAD_LIMIT_PCT = 5.0
OBS_SPANS_PER_TICK = 10


def _solo_workload(scale: int) -> tuple:
    graph, pool = dense_eip_workload(scale)
    return graph, pool[:STREAM_RULES]


def _match_workload(scale: int) -> tuple:
    graph, rules = eip_workload("synthetic", num_rules=6, scale=scale)
    large_graph, _ = mining_workload("dense", scale * MATCH_LARGE_FACTOR)
    _, sampled = eip_workload("dense", num_rules=12, max_pattern_edges=3, scale=scale, seed=11)
    return graph, rules, large_graph, sampled[:MATCH_LARGE_RULES]


# ----------------------------------------------------------------------
# section selectors, then gates: a gate takes (rows, workers) and raises
# SystemExit on a regression
# ----------------------------------------------------------------------
def _in_process(row: Row) -> bool:
    return row.backend == "in-process"


def _on_backend(row: Row) -> bool:
    return row.backend != "in-process"


def _mode(*modes: str) -> Callable[[Row], bool]:
    return lambda row: row.mode in modes


def _stream_gate(rows: Sequence[Row], workers: int) -> None:
    """Repair must do less than recompute, in counts that cannot flake (no
    wall clock is gated).  The sequential maintained-session row: its ticks
    re-decided fewer centres than re-verifying all of them after every batch
    would, and answered positive pairs from kept witnesses at least four
    times as often as by searching.  Process rows are skipped: which pool
    process holds which fragment's witnesses legitimately varies run to
    run."""
    for row in rows:
        if row.backend != "sequential":
            continue
        name = f"{row.backend} {row['algorithm']}"
        if row["rechecked"] >= row["centres"] * row["batches"]:
            raise SystemExit(
                f"streaming regression: {name} repair re-decided {row['rechecked']} centres "
                f"over {row['batches']} batches of a graph with {row['centres']}"
            )
        if row["witness_hits"] == 0 or row["witness_hits"] < 4 * row["matches_found"]:
            raise SystemExit(
                f"streaming regression: {name} ticks searched {row['matches_found']} positive "
                f"pairs against {row['witness_hits']} answered by a kept witness (< 4x)"
            )


def _churn_gate(rows: Sequence[Row], workers: int) -> None:
    """Deletion-heavy churn must keep resident state bounded: (a) the
    resident node count of the run's last quarter never exceeds the first
    quarter's peak (shedding and checkpointing keep pace), and (b) every
    batch leaves the retained log operations under the compaction threshold
    ``fraction × resident`` plus a per-fragment rounding slack."""
    fraction = StreamConfig().checkpoint_log_fraction
    quarter = max(1, len(rows) // 4)
    early_peak = max(row["resident_nodes"] for row in rows[:quarter])
    late_peak = max(row["resident_nodes"] for row in rows[-quarter:])
    if late_peak > early_peak:
        raise SystemExit(
            f"churn regression: resident fragment nodes grew under a deletion-heavy "
            f"workload (early peak {early_peak}, late peak {late_peak})"
        )
    slack = fraction * max(1, workers) + 1
    for row in rows:
        bound = fraction * row["resident_nodes"] + slack
        if row["log_ops"] > bound:
            raise SystemExit(
                f"churn regression: batch {row['batch']} retains {row['log_ops']} "
                f"log ops, above the compaction bound {bound:.0f}"
            )


def _obs_gate(rows: Sequence[Row], workers: int) -> None:
    """Observability must stay cheap, in quantities that cannot flake: the
    instrumented run records spans, at most ``OBS_SPANS_PER_TICK`` per tick
    for the coordinator and for each fragment, and spans × the calibrated
    per-span cost stays within ``OBS_OVERHEAD_LIMIT_PCT`` of the
    uninstrumented wall."""
    on = next(row for row in rows if row.mode == "instrumented")
    budget = OBS_SPANS_PER_TICK * (workers + 1)
    if on["spans"] == 0:
        raise SystemExit("obs regression: instrumented run recorded zero spans")
    if on["spans_per_tick"] > budget:
        raise SystemExit(
            f"obs regression: {on['spans_per_tick']:.1f} spans per tick, "
            f"above the budget of {budget} for {workers} workers"
        )
    if on["est_overhead_pct"] > OBS_OVERHEAD_LIMIT_PCT:
        raise SystemExit(
            f"obs regression: estimated instrumentation overhead "
            f"{on['est_overhead_pct']:.2f}% > {OBS_OVERHEAD_LIMIT_PCT:.0f}%"
        )


def _tenant_gate(rows: Sequence[Row], workers: int) -> None:
    """The k-th tenant must ride the shared substrate, in counts that cannot
    flake (no wall clock is gated): marginal admission at most
    ``TENANT_MARGINAL_LIMIT ×`` the cold first admission's centre-rule
    verifications, shared steady state at most ``TENANT_MARGINAL_LIMIT × k
    ×`` the single-tenant baseline's verified centres, a resident union at
    most ``TENANT_UNION_LIMIT ×`` the summed tenant Σ sizes, and non-zero
    shared-prefix hits (silent canonicalization death)."""
    admits = [row for row in rows if row.mode == "admit"]
    single = next(row for row in rows if row.mode == "single")
    steady = next(row for row in rows if row.mode == "steady")
    cold, last = admits[0], admits[-1]
    k = steady["tenants"]
    # A warm admission still walks every resident centre, but verifies only
    # the novel suffix against each — so the work unit is centre x rule
    # verifications, not centres.
    cold_work = cold["backfill_centers"] * max(1, cold["novel_rules"])
    last_work = last["backfill_centers"] * last["novel_rules"]
    held = [
        (last_work, TENANT_MARGINAL_LIMIT * cold_work,
         f"admitting tenant {last['tenants']} cost {last_work} centre-rule verifications "
         f"against {cold_work} cold"),
        (steady["verified_centers"], TENANT_MARGINAL_LIMIT * k * single["verified_centers"],
         f"shared core verified {steady['verified_centers']} centres for {k} tenants against "
         f"a single-tenant {single['verified_centers']}"),
        (steady["union_rules"], TENANT_UNION_LIMIT * steady["rules"],
         f"resident union of {steady['union_rules']} rules over {steady['rules']} admitted — "
         f"canonical dedup is not biting"),
    ]
    for measured, limit, what in held:
        if measured > limit:
            raise SystemExit(f"tenant regression: {what} (limit {limit:.3f})")
    if sum(row["shared_prefix_hits"] for row in admits) == 0:
        raise SystemExit(
            "tenant regression: admissions recorded zero shared-prefix hits "
            "on overlapping rule sets — prefix sharing silently died"
        )


def _storm_gate(rows: Sequence[Row], workers: int) -> None:
    """No storm may leave a surviving divergence.  Each has already been
    distilled and (if novel) written to ``tests/regressions/`` by the runner,
    so CI both fails loudly *and* leaves the shrunk counterexample behind.
    And the silence must mean something: some storm has to move the
    identified set (an empty one is refused by the generic checks), and some
    storm has to move the served antecedent match sets."""
    if all(row["answers"] < 2 for row in rows):
        raise SystemExit(
            "storm regression: no storm family changed the identified set, so the "
            "identifier check of the oracle compared one unchanging answer"
        )
    if all(row["match_answers"] < 2 for row in rows):
        raise SystemExit(
            "storm regression: no storm family changed the served antecedent match "
            "sets, so the matches check of the oracle compared one unchanging answer"
        )
    for row in rows:
        if row["divergences"]:
            raise SystemExit(
                f"storm regression: {row['storm']} storm on backend {row.backend} diverged "
                f"{row['divergences']} time(s) (distilled to {row['shrunk_ops']} ops, "
                f"{row['deduped']} known duplicates) — see tests/regressions/"
            )


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Section:
    """A titled sub-table.  Unless ``agree`` is off, its rows answer one
    question and must share one fingerprint."""

    title: str
    select: Callable[[Row], bool] = lambda row: True
    agree: bool = True


@dataclass(frozen=True)
class Scenario:
    about: str  #: one line: what the family guards
    dataset: str
    workload: Callable[[int], tuple]  #: scale → the runner's positional inputs
    scale: int
    runner: Callable[..., list[Row]]
    backends: str  #: "pair" | "sequential"
    sections: tuple[Section, ...]
    params: Mapping[str, object] = field(default_factory=dict)
    gates: tuple[Callable[[Sequence[Row], int], None], ...] = ()


SCENARIOS: dict[str, Scenario] = {
    "dmine": Scenario(
        "DMine mines the same rules on sequential and a pool backend (pickling / hang canary)",
        "synthetic-dense", lambda scale: mining_workload("dense", scale), SMOKE_SCALE,
        run_dmine_backends, "pair",
        (Section("DMine per backend"),),
        {"sigma": 2},
    ),
    "match": Scenario(
        "Match identifies the same entities on both backends; 100k-node matching row completes",
        "synthetic", _match_workload, SMOKE_SCALE,
        run_match_smoke, "pair",
        (
            Section("Match per backend", _on_backend),
            Section("large-regime scenario (gate: completes under the smoke timeout)", _in_process),
        ),
    ),
    "stream": Scenario(
        "repair does less than recompute and equals it after every batch, on every backend",
        "synthetic-dense", _solo_workload, STREAM_SCALE,
        run_stream, "pair",
        (Section("streaming EIP: a maintained session per backend, = recompute per batch"),),
        {"num_batches": 3, "batch_size": 8}, (_stream_gate,),
    ),
    "churn": Scenario(
        "deletion-heavy churn keeps resident fragment state bounded (docs/lifecycle.md)",
        "synthetic-dense", _solo_workload, STREAM_SCALE,
        run_churn, "sequential",
        (Section("resident fragment size under deletion churn", agree=False),),
        {"num_batches": 50, "batch_size": 16, "deletion_bias": 0.7}, (_churn_gate,),
    ),
    "lifecycle": Scenario(
        "checkpoint -> restart -> byte-identical answers, solo and two-tenant",
        "synthetic-dense", _solo_workload, STREAM_SCALE,
        run_lifecycle, "pair",
        (
            Section("solo core per backend", lambda row: "[" not in row.mode),
            Section("two-tenant core", lambda row: "[" in row.mode),
        ),
        {"num_batches": 3, "batch_size": 8},
    ),
    "tenant": Scenario(
        "the k-th overlapping rule set rides the shared core; every projection = its own run",
        "synthetic-dense", dense_eip_workload, STREAM_SCALE,
        run_tenant, "pair",
        (
            Section("admissions, one tenant at a time", _mode("admit"), agree=False),
            Section("steady state vs the single-tenant baseline", _mode("single", "steady")),
            Section("cross-backend projection = independent run", _mode("equivalence")),
        ),
        {"num_tenants": 8, "rules_per_tenant": 6, "num_batches": 2, "batch_size": 8,
         "equivalence_tenants": 3},
        (_tenant_gate,),
    ),
    "storm": Scenario(
        "every adversarial churn generator x backend leaves the differential oracle silent",
        "synthetic-dense", storm_workload, SMOKE_SCALE,
        run_storm, "pair",
        (Section("adversarial churn x differential oracle"),),
        {"num_batches": 4, "batch_size": 12}, (_storm_gate,),
    ),
    # Sequential only: the comparison is the no-op span path against the
    # traced one on a pool-free run.  Batches are deliberately large — the
    # per-tick instrumentation cost is fixed, so deep ticks keep the
    # reported delta about instrumentation rather than timer noise.
    "obs": Scenario(
        "instrumentation changes no answer and costs <= 5% (counted in spans)",
        "synthetic-dense", _solo_workload, STREAM_SCALE,
        run_obs, "sequential",
        (Section("streaming maintenance, observability off vs on"),),
        {"num_batches": 6, "batch_size": 24, "reps": 5}, (_obs_gate,),
    ),
}


# ----------------------------------------------------------------------
# the loop
# ----------------------------------------------------------------------
def _select_backends(policy: str, backend: str | None) -> tuple[str, ...]:
    if policy == "sequential":
        return ("sequential",)
    return tuple(dict.fromkeys(("sequential", backend or "processes")))


def check_rows(scenario: Scenario, rows: Sequence[Row], workers: int) -> None:
    """The generic checks, then the scenario's gates (``SystemExit`` on failure)."""
    if not rows:
        raise SystemExit("the run produced no rows")
    for section in scenario.sections:
        if not section.agree:
            continue
        answers = {
            row.fingerprint: row for row in rows
            if section.select(row) and row.fingerprint is not None
        }
        if len(answers) > 1:
            shown = ", ".join(
                f"{row.backend}/{row.mode}: {fingerprint}" for fingerprint, row in answers.items()
            )
            raise SystemExit(f"results diverged within '{section.title}': {shown}")
    for row in rows:
        for column, what in (("identified", "identified no entity"), ("rules", "mined no rule")):
            if row.columns.get(column) == 0:
                raise SystemExit(
                    f"vacuous run: the {row.backend}/{row.mode} row {what}, "
                    f"so its equivalence checks compared empty answers"
                )
    for gate in scenario.gates:
        gate(rows, workers)


def run_family(
    family: str,
    backend: str | None = None,
    workers: int = 2,
    scale: int | None = None,
    out: Path | None = None,
) -> list[Row]:
    """Build → run → write JSON → print → check one family; returns its rows."""
    scenario = SCENARIOS[family]
    backends = _select_backends(scenario.backends, backend)
    workload = scenario.workload(scenario.scale if scale is None else scale)
    rows = scenario.runner(
        scenario.dataset, *workload, workers=workers, backends=backends, **scenario.params
    )
    title = f"smoke {family} (n={workers}, backends={'/'.join(backends)})"
    out = Path(f"BENCH_{family}.json") if out is None else out
    out.write_text(rows_as_json(f"smoke_{family}", title, rows) + "\n")

    print(f"== {title} ==\n{scenario.about}")
    for section in scenario.sections:
        selected = [row for row in rows if section.select(row)]
        print(f"-- {section.title} --")
        print(format_rows(selected if len(selected) <= 20 else selected[:3] + selected[-9:]))
    print(f"wrote {out}")
    check_rows(scenario, rows, workers)
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench-smoke",
        description="Tiny per-family benchmark smoke run for CI.",
        epilog="\n".join(f"{family}: {scenario.about}" for family, scenario in SCENARIOS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--family", choices=list(SCENARIOS), required=True)
    parser.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default=None,
        help="backend to compare against sequential (default: processes)",
    )
    parser.add_argument("--workers", type=int, default=2, help="fragments / BSP workers")
    parser.add_argument(
        "--scale",
        type=int,
        default=None,
        help=f"workload node count (default {SMOKE_SCALE}; streaming families {STREAM_SCALE})",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="JSON output path (default BENCH_<family>.json in the working directory)",
    )
    args = parser.parse_args(argv)
    run_family(args.family, args.backend, args.workers, args.scale, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
