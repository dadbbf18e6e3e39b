"""Command-line interface for the GPAR reproduction library.

Three subcommands cover the common workflows end to end:

``generate``
    Produce a graph (synthetic, Pokec-like or Google+-like) and write it as a
    JSON document that the other commands can load.
``mine``
    Run DMine on a graph for a predicate given as ``X_LABEL:EDGE:Y_LABEL``
    and print the diversified top-k rules.
``identify``
    Sample a GPAR workload for a predicate and report the potential
    customers identified with confidence ≥ η (EIP).
``stream``
    Maintain the EIP answer across random update batches with the
    streaming subsystem (:mod:`repro.stream`), measuring repaired
    maintenance against a from-scratch recompute per batch.
``serve``
    Run the EIP HTTP service (:mod:`repro.serve`): resident sessions with
    paginated answers, update ticks and delta subscriptions.

Every subcommand is a thin client of the :mod:`repro.api` facade — the
same layer the HTTP service is built on.

Example
-------
::

    python -m repro.cli generate --kind pokec --users 200 --out graph.json
    python -m repro.cli mine graph.json --predicate "user:like_book:personal development" -k 3
    python -m repro.cli identify graph.json --predicate "user:like_book:personal development" --rules 6
    python -m repro.cli stream graph.json --predicate "user:like_book:personal development" --updates 5
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import api
from repro.datasets import generate_gpars, googleplus_like, pokec_like, synthetic_graph
from repro.graph.io import load_graph_json, save_graph_json
from repro.identification import EIPConfig
from repro.mining import DMineConfig
from repro.parallel.executor import BACKENDS
from repro.pattern.pattern import Pattern


def _parse_predicate(text: str) -> Pattern:
    """Parse ``X_LABEL:EDGE_LABEL:Y_LABEL`` into a single-edge predicate."""
    try:
        return api.parse_predicate(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "pokec":
        graph = pokec_like(num_users=args.users, seed=args.seed)
    elif args.kind == "googleplus":
        graph = googleplus_like(num_users=args.users, seed=args.seed)
    else:
        graph = synthetic_graph(args.users, args.users * 3, seed=args.seed)
    save_graph_json(graph, args.out)
    print(f"wrote {graph.num_nodes} nodes / {graph.num_edges} edges to {args.out}")
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    graph = load_graph_json(args.graph)
    config = DMineConfig(
        k=args.k,
        d=args.d,
        sigma=args.sigma,
        lam=args.diversification,
        num_workers=args.workers,
        max_edges=args.max_edges,
        backend=args.backend,
        executor_workers=args.pool_size,
    )
    result = api.mine(graph, args.predicate, config)
    print(
        f"mined {result.num_rules_discovered} rules "
        f"({result.candidates_generated} candidates) in "
        f"{result.rounds_executed} rounds; F(Lk) = {result.objective_value:.3f} "
        f"[backend={config.backend} wall={result.timings.wall_time:.3f}s "
        f"sim={result.timings.simulated_parallel_time:.3f}s]"
    )
    for mined in result.top_k:
        print()
        print(mined.as_row())
        print(mined.rule.describe())
    return 0


def _eip_config_from_args(args: argparse.Namespace, seed: int = 0) -> EIPConfig:
    """Build the explicit EIP config the :mod:`repro.api` layer consumes."""
    return EIPConfig(
        eta=args.eta,
        num_workers=args.workers,
        seed=seed,
        backend=args.backend,
        executor_workers=args.pool_size,
    )


def _cmd_identify(args: argparse.Namespace) -> int:
    graph = load_graph_json(args.graph)
    rules = generate_gpars(
        graph,
        args.predicate,
        count=args.rules,
        max_pattern_edges=args.max_edges,
        d=args.d,
        seed=args.seed,
    )
    config = _eip_config_from_args(args)
    result = api.identify(graph, rules, config, algorithm=args.algorithm)
    print(result.summary())
    preview = sorted(map(str, result.identified))[: args.show]
    print(f"first identified entities: {preview}")
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    import time

    from repro.stream import random_update_batch

    graph = load_graph_json(args.graph)
    rules = generate_gpars(
        graph,
        args.predicate,
        count=args.rules,
        max_pattern_edges=args.max_edges,
        d=args.d,
        seed=args.seed,
    )
    repair_wall = 0.0
    recompute_wall = 0.0
    with api.open_session(
        graph, rules, config=_eip_config_from_args(args, seed=args.seed)
    ) as session:
        print(
            f"streaming match over {graph.num_nodes} nodes / "
            f"{graph.num_edges} edges, |Σ|={len(rules)}, d={session.max_radius} "
            f"[recompute backend={args.backend}]"
        )
        print(f"initial: {session.result.summary().splitlines()[0]}")
        for position in range(args.updates):
            batch = random_update_batch(
                graph,
                size=args.batch_size,
                seed=args.seed * 1000 + position,
                deletion_bias=args.deletion_bias,
            )
            update_report, _delta = session.apply(batch)
            repair_wall += update_report.wall_time
            line = f"batch {position + 1}: {batch.describe()} -> {update_report.as_row()}"
            if args.verify:
                started = time.perf_counter()
                fresh = session.recompute()
                recompute_wall += time.perf_counter() - started
                agree = (
                    fresh.identified == session.result.identified
                    and fresh.rule_confidences == session.result.rule_confidences
                )
                if not agree:
                    print(line)
                    print("DIVERGED from recompute — this is a bug")
                    return 1
                line += f" [recompute {recompute_wall:.3f}s cumulative, identical]"
            print(line)
        if args.save_state is not None:
            saved = session.core.save_state(args.save_state)
            print(f"saved stream state to {saved}")
        result = session.result
    print(result.summary())
    print(f"repair wall over {args.updates} batches: {repair_wall:.3f}s")
    if args.verify and repair_wall:
        print(
            f"recompute wall: {recompute_wall:.3f}s "
            f"(repair speedup {recompute_wall / repair_wall:.2f}x)"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import run_foreground

    if args.access_log:
        import logging

        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter("%(message)s"))
        access = logging.getLogger("repro.serve.access")
        access.addHandler(handler)
        access.setLevel(logging.INFO)
    return run_foreground(args.host, args.port, executor_workers=args.executor_workers)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import load_trace, trace_breakdown

    print(trace_breakdown(load_trace(args.trace)), end="")
    return 0


def _fetch_json(url: str) -> dict:
    import json
    from urllib.request import urlopen

    with urlopen(url, timeout=10) as response:
        return json.loads(response.read().decode("utf-8"))


def _cmd_top(args: argparse.Namespace) -> int:
    from urllib.request import urlopen

    from repro.obs import top_report

    base = args.url.rstrip("/")
    healthz = _fetch_json(f"{base}/healthz")
    sessions = _fetch_json(f"{base}/sessions")
    with urlopen(f"{base}/metrics", timeout=10) as response:
        metrics_text = response.read().decode("utf-8")
    print(top_report(base, healthz, sessions, metrics_text), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Graph-pattern association rules: mining (DMP) and entity identification (EIP).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a graph and save it as JSON")
    generate.add_argument("--kind", choices=["pokec", "googleplus", "synthetic"], default="pokec")
    generate.add_argument("--users", type=int, default=200, help="number of users / nodes")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", type=Path, required=True, help="output JSON path")
    generate.set_defaults(handler=_cmd_generate)

    mine = subparsers.add_parser(
        "mine", aliases=["dmine"], help="mine diversified top-k GPARs (DMine)"
    )
    mine.add_argument("graph", type=Path, help="graph JSON produced by 'generate'")
    mine.add_argument("--predicate", type=_parse_predicate, required=True,
                      help="predicate as x_label:edge_label:y_label")
    mine.add_argument("-k", type=int, default=3, help="size of the diversified top-k set")
    mine.add_argument("-d", type=int, default=2, help="maximum rule radius")
    mine.add_argument("--sigma", type=int, default=5, help="minimum support")
    mine.add_argument("--diversification", type=float, default=0.5, help="lambda in [0, 1]")
    mine.add_argument("--workers", type=int, default=4,
                      help="number of fragments / BSP workers n")
    mine.add_argument("--max-edges", type=int, default=3, dest="max_edges")
    _add_backend_arguments(mine)
    mine.set_defaults(handler=_cmd_mine)

    identify = subparsers.add_parser(
        "identify", aliases=["match"], help="identify potential customers (EIP)"
    )
    identify.add_argument("graph", type=Path)
    identify.add_argument("--predicate", type=_parse_predicate, required=True)
    identify.add_argument("--rules", type=int, default=6, help="size of the sampled rule set Σ")
    identify.add_argument("--eta", type=float, default=1.0, help="confidence bound")
    identify.add_argument("--algorithm", choices=["match", "matchc", "disvf2"], default="match")
    identify.add_argument("--workers", type=int, default=4,
                          help="number of fragments / BSP workers n")
    identify.add_argument("-d", type=int, default=2)
    identify.add_argument("--max-edges", type=int, default=4, dest="max_edges")
    identify.add_argument("--seed", type=int, default=0)
    identify.add_argument("--show", type=int, default=10, help="how many identified entities to list")
    _add_backend_arguments(identify)
    identify.set_defaults(handler=_cmd_identify)

    stream = subparsers.add_parser(
        "stream",
        help="maintain the EIP answer across random update batches (repro.stream)",
    )
    stream.add_argument("graph", type=Path)
    stream.add_argument("--predicate", type=_parse_predicate, required=True)
    stream.add_argument("--rules", type=int, default=6, help="size of the sampled rule set Σ")
    stream.add_argument("--eta", type=float, default=1.0, help="confidence bound")
    stream.add_argument("--workers", type=int, default=4,
                        help="fragments of the --verify recompute (ticks run in process, unpartitioned)")
    stream.add_argument("-d", type=int, default=2)
    stream.add_argument("--max-edges", type=int, default=4, dest="max_edges")
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument("--updates", type=int, default=5,
                        help="number of random update batches to apply")
    stream.add_argument("--batch-size", type=int, default=8, dest="batch_size",
                        help="operations per update batch")
    stream.add_argument(
        "--verify",
        action="store_true",
        help="after every batch, recompute from scratch and check the "
        "maintained answer is identical (reports the repair speedup)",
    )
    stream.add_argument(
        "--deletion-bias",
        type=float,
        default=0.0,
        dest="deletion_bias",
        help="probability that a sampled operation is forced to be a "
        "removal (deletion-heavy churn; see docs/streaming.md)",
    )
    stream.add_argument(
        "--save-state",
        type=Path,
        default=None,
        dest="save_state",
        help="after the last batch, write a durable core checkpoint that "
        "repro.api.restore_core() (or StreamingIdentifier.restore()) resumes",
    )
    _add_backend_arguments(stream)
    stream.set_defaults(handler=_cmd_stream)

    serve = subparsers.add_parser(
        "serve",
        help="run the EIP HTTP service (sessions, paginated answers, "
        "update ticks, delta subscriptions — see docs/serving.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8337)
    serve.add_argument(
        "--executor-workers",
        type=int,
        default=8,
        dest="executor_workers",
        help="thread pool size for blocking session work",
    )
    serve.add_argument(
        "--access-log",
        action="store_true",
        dest="access_log",
        help="emit one JSON access-log line per request on stderr "
        "(logger 'repro.serve.access')",
    )
    serve.set_defaults(handler=_cmd_serve)

    trace = subparsers.add_parser(
        "trace",
        help="render a --trace-out JSON-lines span trace as a per-phase "
        "time breakdown (see docs/observability.md)",
    )
    trace.add_argument("trace", type=Path, help="JSON-lines file written by --trace-out")
    trace.set_defaults(handler=_cmd_trace)

    top = subparsers.add_parser(
        "top",
        help="one-shot status report over a running 'repro serve' "
        "(/healthz + /sessions + /metrics)",
    )
    top.add_argument("url", help="base URL of the service, e.g. http://127.0.0.1:8337")
    top.set_defaults(handler=_cmd_top)
    return parser


def _add_backend_arguments(subparser: argparse.ArgumentParser) -> None:
    """Execution-backend flags shared by the mine and identify subcommands."""
    subparser.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default="sequential",
        help="execution backend: 'processes' uses a persistent multi-core pool",
    )
    subparser.add_argument(
        "--pool-size",
        type=int,
        default=None,
        dest="pool_size",
        help="process pool size (default: min(workers, cpu count))",
    )
    subparser.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        dest="trace_out",
        help="record a span trace of the run and write it as JSON lines "
        "(render with 'repro trace FILE'; see docs/observability.md)",
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_out = getattr(args, "trace_out", None)
    if trace_out is None:
        return args.handler(args)
    from repro.obs.tracing import Tracer, install, uninstall

    tracer = Tracer()
    install(tracer)
    try:
        return args.handler(args)
    finally:
        uninstall()
        tracer.dump_jsonl(trace_out)
        print(f"wrote {len(tracer.records())} trace spans to {trace_out}")


if __name__ == "__main__":
    sys.exit(main())
