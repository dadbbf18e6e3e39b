"""End-to-end benchmark of the GPAR reproduction, run from outside the system.

Driver contract (one workload, one pass; the last stdout line is the result)::

    python3 benchmarks/e2e/run.py --workload serve-hub --seed 7 --seconds 12 --trace 0

Everything at once, for people (table on stdout, full document with ``--out``)::

    python3 benchmarks/e2e/run.py [--seeds 7,8,9] [--traced] [--smoke] [--out FILE]
    python3 benchmarks/e2e/run.py --compare A.json B.json

Workloads, metrics and how to read the traced output: ``README.md`` beside
this file.  Metric names, units and bounds are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = HERE / ".work"

#: What each generic end-to-end metric *is* on each workload (issue names).
ALIASES = {
    "batch-mine-identify": {
        "rules_ready_s": "mine_s",
        "refresh_p50_ms": "identify_s x1000",
        "refresh_per_s": "identifies/s",
        "observe_p50_ms": "in-process page read",
    },
    "serve-hub": {
        "rules_ready_s": "second solo session",
        "refresh_p50_ms": "tick_p50_ms",
        "refresh_per_s": "ticks_per_s",
        "observe_p50_ms": "delta_lag_p50_ms",
    },
    "serve-local": {
        "rules_ready_s": "second solo session",
        "refresh_p50_ms": "tick_p50_ms",
        "refresh_per_s": "ticks_per_s",
        "observe_p50_ms": "read_p50_ms",
    },
    "serve-tenants": {
        "rules_ready_s": "admit_warm_s",
        "refresh_p50_ms": "tick_p50_ms",
        "refresh_per_s": "ticks_per_s",
        "observe_p50_ms": "delta_lag_p50_ms",
    },
}


@dataclass
class Result:
    """One pass of one workload."""

    workload: str
    seed: int
    seconds: float
    traced: bool
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    fingerprint: str = ""
    detail: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_pins() -> dict:
    return json.loads((HERE / "pins.json").read_text())


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------
def run_workload(
    name: str, seed: int, seconds: float, traced: bool, smoke: bool, trace_dir: Path | None = None,
    pinned: bool = True,
) -> Result:  # fmt: skip
    """One pass of workload *name*; never raises for a failed run.

    ``pinned=False`` checks against sequential-backend references instead of
    ``pins.json`` (how ``--write-pins`` obtains values worth pinning).

    The system under test and the speed probe share one core: the server
    subprocess on a serving workload, this very process (and the pool worker
    it forks) on the batch one.  The generator keeps to the other cores.
    """
    from loadgen import BenchError, SpeedProbe, cpu_plan
    from workloads import Scale

    scale = Scale.smoke() if smoke else Scale()
    pins = load_pins().get(name, {}) if pinned else {}
    if smoke:  # only the mined top-k is the same load at smoke scale
        pins = {"mined": pins["mined"]} if "mined" in pins else {}
    result = Result(workload=name, seed=seed, seconds=seconds, traced=traced)
    workdir = WORK / f"{os.getpid()}-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    everywhere = os.sched_getaffinity(0)
    sut_cpu, generator_cpus = cpu_plan()
    probe = SpeedProbe(sut_cpu).start()
    try:
        if name == "batch-mine-identify":
            os.sched_setaffinity(0, {sut_cpu})
            _run_batch(result, scale, pins, probe)
        else:
            os.sched_setaffinity(0, generator_cpus)
            _run_serve(result, scale, pins, probe, workdir, trace_dir)
    except BenchError as exc:
        result.problems.append(str(exc))
    finally:
        probe.stop()
        os.sched_setaffinity(0, everywhere)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    result.attempted = max(result.attempted, 1)
    if result.problems:
        result.failed = max(result.failed, 1)
    result.correct = not result.problems and result.failed == 0
    return result


def _check_pin(result: Result, pins: dict) -> None:
    pinned = pins.get(f"{result.seed}@{result.seconds:g}")
    if pinned is not None and pinned != result.fingerprint:
        result.problems.append(
            f"workload drift: generated load {result.fingerprint} differs from the pinned {pinned}"
        )


def _run_serve(result: Result, scale, pins: dict, probe, workdir: Path, trace_dir: Path | None) -> None:
    import layers
    import serving
    from repro.obs import load_trace

    run, server = serving.run_serve(
        result.workload, result.seed, result.seconds, scale, workdir, probe, result.traced
    )
    result.attempted, result.failed = run.counter.attempted, run.counter.failed
    result.problems.extend(run.problems)
    result.fingerprint = serving.fingerprint_of(run)
    _check_pin(result, pins.get("workload", {}))

    timed = [tick.ms for tick in run.timed]
    if run.inputs.spec.companion == "subscriber":
        observed = [
            (arrival - tick.sent) * 1000.0 for (arrival, _), tick in zip(run.arrivals, run.ticks)
        ][serving.WARMUP_TICKS:]
    else:
        observed = run.reads.latencies_ms
    if not timed or not observed or not run.setup or not run.ready:
        result.problems.append("the run produced no timed samples")
        return
    # timings are corrected to the reference speed window by window (see speedprobe.py)
    ready = probe.corrected(run.ready)
    phase = (run.timed[0].sent, run.ticks[-1].done)
    speed = probe.factor(*phase)
    result.metrics = {
        "setup_s": statistics.median(probe.corrected(run.setup)),
        "rules_ready_s": sum(ready) if run.inputs.spec.shared_core else statistics.median(ready),
        "refresh_p50_ms": statistics.median(timed) * speed,
        "refresh_per_s": len(timed) / ((phase[1] - phase[0]) * speed),
        "observe_p50_ms": statistics.median(observed) * speed,
        "rss_peak_mb": run.rss_peak_mb,
    }
    refresh_q, refresh_hi = serving.percentile_hi(timed)
    observe_q, observe_hi = serving.percentile_hi(observed)
    result.detail = {
        "speed_factor": speed,
        "stolen_share": probe.stolen_share(*phase),
        "raw_refresh_p50_ms": statistics.median(timed),
        "raw_observe_p50_ms": statistics.median(observed),
        "timed_ticks": len(timed),
        "observe_samples": len(observed),
        "refresh_hi": f"p{refresh_q * 100:.0f}",
        "observe_hi": f"p{observe_q * 100:.0f}",
        "changed_ticks": run.changed,
        "answer_entities": run.answer_entities,
        "idle_read_p50_ms": statistics.median(run.idle_read_ms) if run.idle_read_ms else None,
        "graph_nodes": run.graph_nodes,
    }
    if result.traced:
        records = load_trace(server.trace_path) if server.trace_path.exists() else []
        if not records:
            result.problems.append("the traced server wrote no trace")
        elif trace_dir is not None:
            trace_dir.mkdir(parents=True, exist_ok=True)
            shutil.copy(server.trace_path, trace_dir / f"{result.workload}-{result.seed}.trace.jsonl")
        hi = {"e2e.refresh_hi_ms": refresh_hi, "e2e.observe_hi_ms": observe_hi}
        result.layers = layers.serve_layers(run, records, hi)


def _run_batch(result: Result, scale, pins: dict, probe) -> None:
    import batch
    import layers
    import serving
    import wraps
    from repro import obs

    tracer = None
    if result.traced:
        tracer = obs.install(obs.Tracer())
        wraps.install()
    try:
        run = batch.run_batch(result.seed, result.seconds, scale, probe)
    finally:
        if tracer is not None:
            obs.uninstall()
    batch.check_outputs(run, result.seed, pins)
    result.attempted, result.failed = run.attempted, run.failed
    result.problems.extend(run.problems)
    result.fingerprint = run.load_fingerprint
    _check_pin(result, pins.get("workload", {}))
    if not run.identify_s:
        return
    result.metrics = batch.metrics_of(run, probe)
    _, refresh_hi = serving.percentile_hi([seconds * 1000.0 for seconds in run.identify_s])
    observe_q, observe_hi = serving.percentile_hi(run.page_ms)
    result.detail = {
        "speed_factor": probe.factor(run.identify[0][0], run.identify[-1][1]),
        "stolen_share": probe.stolen_share(run.mine[0], run.identify[-1][1]),
        "raw_rules_ready_s": run.mine_s,
        "raw_refresh_p50_ms": statistics.median(run.identify_s) * 1000.0,
        "identify_calls": len(run.identify_s),
        "observe_samples": len(run.page_ms),
        "observe_hi": f"p{observe_q * 100:.0f}",
        "answer_entities": len(run.identified.identified),
        "mined_fingerprint": run.mine_fingerprint,
        "identified_fingerprint": run.identify_fingerprint,
    }
    if tracer is not None:
        hi = {"e2e.refresh_hi_ms": refresh_hi, "e2e.observe_hi_ms": observe_hi}
        generate_s = statistics.median(end - start for start, end in run.setup)
        result.layers = layers.batch_layers(run, tracer.records(), hi, generate_s)


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def contract_line(result: Result, spec: dict) -> str:
    """The driver's result object: exactly correct/attempted/failed/metrics."""
    declared = spec["per_layer"] if result.traced else spec["end_to_end"]
    values = result.layers if result.traced else result.metrics
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return json.dumps(
        {"correct": result.correct, "attempted": result.attempted, "failed": result.failed, "metrics": metrics}
    )


def print_result(result: Result, spec: dict) -> None:
    aliases = ALIASES[result.workload]
    mode = "traced" if result.traced else "untraced"
    print(f"== {result.workload}  seed={result.seed}  {mode}  fingerprint={result.fingerprint}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if name in result.metrics:
            alias = f"  ({aliases[name]})" if name in aliases else ""
            print(f"   {name:<28}{result.metrics[name]:>14.4f} {metric['unit']}{alias}")
    for name, value in result.layers.items():
        print(f"   {name:<36}{value:>14.4f}")
    for key, value in result.detail.items():
        print(f"   . {key} = {value}")
    print(f"   ops attempted={result.attempted} failed={result.failed} correct={result.correct}")
    for problem in result.problems:
        print(f"   PROBLEM: {problem}")


def environment() -> dict:
    try:
        import numpy  # noqa: F401

        has_numpy = True
    except ImportError:
        has_numpy = False
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": has_numpy}


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def _spread(values: list[float]) -> float | None:
    """Interquartile distance as a share of the median (needs >= 4 runs)."""
    if len(values) < 4:
        return None
    quartiles = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / middle if middle else None


def compare(path_a: Path, path_b: Path, spec: dict) -> int:
    """Apply each metric's bound to two result documents; 0 when nothing regressed."""
    docs = [json.loads(path.read_text()) for path in (path_a, path_b)]
    bad = 0
    print(f"{'workload':<22}{'metric':<18}{'A (base)':>12}{'B':>12}{'B/A':>8}  verdict")
    for workload in spec_workloads(spec):
        sets = [[run for run in doc["runs"] if run["workload"] == workload] for doc in docs]
        untraced = [[run for run in runs if not run["traced"]] for runs in sets]
        if not all(untraced):
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[run["metrics"][name] for run in runs if name in run["metrics"]] for runs in untraced]
            if not all(values):
                continue
            base, other = statistics.median(values[0]), statistics.median(values[1])
            ratio = other / base if base else float("inf")
            worse = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
            spreads = [s for s in map(_spread, values) if s is not None]
            if worse > bound:
                verdict = "regressed"
                bad += 1
            elif spreads and max(spreads) > bound:
                verdict = f"unresolved (spread {max(spreads):.0%} > bound {bound:.0%})"
            else:
                verdict = "ok"
            print(f"{workload:<22}{name:<18}{base:>12.4f}{other:>12.4f}{ratio:>8.3f}  {verdict}")
        failed = [sum(run["failed"] for run in runs) / max(1, sum(run["attempted"] for run in runs)) for runs in sets]
        if failed[1] > failed[0]:
            print(f"{workload:<22}{'fail_frac':<18}{failed[0]:>12.4f}{failed[1]:>12.4f}{'':>8}  regressed")
            bad += 1
        bad += _compare_counts(workload, sets, spec)
    return 1 if bad else 0


#: Counts that follow how many reads the open-loop reader got in, not the workload alone.
PACED_COUNTS = frozenset({"serve.keepalive_reuses", "serve.resync_410", "obs.spans"})


def _compare_counts(workload: str, sets: list[list[dict]], spec: dict) -> int:
    """Count-type per-layer metrics must repeat exactly, seed by seed."""
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count" and m["name"] not in PACED_COUNTS]
    by_seed = [{run["seed"]: run for run in runs if run["traced"]} for runs in sets]
    mismatches = 0
    for seed in sorted(set(by_seed[0]) & set(by_seed[1])):
        for name in counts:
            a, b = by_seed[0][seed]["layers"].get(name), by_seed[1][seed]["layers"].get(name)
            if a != b:
                print(f"{workload:<22}{name:<18}{a!s:>12}{b!s:>12}{'':>8}  count-mismatch (seed {seed})")
                mismatches += 1
    return mismatches


def spec_workloads(spec: dict) -> list[str]:
    return [workload["name"] for workload in spec["workloads"]]


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run one workload and end with the driver's result line")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seeds", help="comma-separated seeds for a multi-run document (overrides --seed)")
    parser.add_argument("--seconds", type=float, help="measuring budget per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="driver form of --traced")
    parser.add_argument("--traced", action="store_true", help="also (or, with --workload, only) run the traced pass")
    parser.add_argument("--smoke", action="store_true", help="scaled-down sizes; one traced pass per workload")
    parser.add_argument("--out", type=Path, help="write the full result document here")
    parser.add_argument("--trace-dir", type=Path, help="keep each traced server's span JSONL in this directory")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    parser.add_argument(
        "--write-pins", action="store_true", help="re-pin the fingerprints of the default seeds (after a deliberate workload change)"
    )
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    if not (SRC / "repro").is_dir():
        print(f"error: the system under test is not here ({SRC / 'repro'} is missing)", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order decides matcher search order; pin it so that one
        # seed is one workload in every process of the benchmark.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.path[:0] = [str(HERE), str(SRC)]
    # A driver that gives up sends SIGTERM: unwind through the ``finally``
    # blocks so the server subprocess and the work directory do not outlive us.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    names = spec_workloads(spec)
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    if args.smoke:
        seconds = min(seconds, 2.0)
    if args.workload:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; expected one of {names}")
        traced = bool(args.trace) or args.traced
        result = run_workload(args.workload, args.seed, seconds, traced, args.smoke, args.trace_dir)
        print_result(result, spec)
        if not result.metrics or (traced and not result.layers):
            return 1
        print(contract_line(result, spec))
        return 0

    if args.write_pins:
        return write_pins(names, seconds)
    seeds = [int(seed) for seed in args.seeds.split(",")] if args.seeds else [args.seed]
    passes = [True] if args.smoke else ([False, True] if args.traced else [False])
    runs: list[Result] = []
    started = time.perf_counter()
    for seed in seeds:
        for name in names:
            for traced in passes:
                result = run_workload(name, seed, seconds, traced, args.smoke, args.trace_dir)
                print_result(result, spec)
                runs.append(result)
    _print_overhead(runs)
    print(f"{len(runs)} runs in {time.perf_counter() - started:.1f}s")
    if args.out:
        document = {"environment": environment(), "run_seconds": seconds, "smoke": args.smoke,
                    "runs": [asdict(run) for run in runs]}  # fmt: skip
        args.out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0 if all(run.correct for run in runs) else 1


PINNED_SEEDS = (7, 8)


def write_pins(names: list[str], seconds: float) -> int:
    """Run the default seeds unpinned and record what they generated and answered."""
    pins: dict = {}
    for name in names:
        entry: dict = {"workload": {}}
        for seed in PINNED_SEEDS:
            result = run_workload(name, seed, seconds, traced=False, smoke=False, pinned=False)
            if not result.correct:
                print(f"cannot pin {name} seed {seed}: {result.problems}", file=sys.stderr)
                return 1
            entry["workload"][f"{seed}@{seconds:g}"] = result.fingerprint
            if "mined_fingerprint" in result.detail:
                entry["mined"] = result.detail["mined_fingerprint"]
                entry.setdefault("identified", {})[str(seed)] = result.detail["identified_fingerprint"]
        pins[name] = entry
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {HERE / 'pins.json'}")
    return 0


def _print_overhead(runs: list[Result]) -> None:
    """``obs.tracing_overhead_frac`` per workload: traced / untraced refresh_p50 - 1."""
    for name in dict.fromkeys(run.workload for run in runs):
        plain = [r.metrics["refresh_p50_ms"] for r in runs if r.workload == name and not r.traced and r.metrics]
        traced = [r.metrics["refresh_p50_ms"] for r in runs if r.workload == name and r.traced and r.metrics]
        if plain and traced:
            overhead = statistics.median(traced) / statistics.median(plain) - 1.0
            print(f"obs.tracing_overhead_frac  {name:<22}{overhead:>+8.3f}")


if __name__ == "__main__":
    sys.exit(main())
