"""The three HTTP serving workloads, driven from outside the server process.

One generator process, two threads, two connections: the main thread is
the closed-loop **writer** (one ``POST /updates`` in flight), the companion
thread is either a long-poll **subscriber** (``/subscribe?since=``) or an
open-loop paced **reader** (``GET /answer``, latency from the due time).
The first :data:`workloads.WARMUP_TICKS` ticks are applied but not timed.
Output checks run after the timed phase and are not timed.
"""

from __future__ import annotations

import json
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from loadgen import BenchError, Client, OpCounter, ServerProcess, SpeedProbe
from workloads import (
    PREDICATE,
    SIGMA_SEED,
    WARMUP_TICKS,
    Scale,
    ServeInputs,
    build_serve_inputs,
    with_rules,
)

from repro import api
from repro.datasets import generate_gpars
from repro.graph.io import graph_from_dict
from repro.identification.eip import EIPConfig

SETUP_REPEATS = 5
#: Timed opens of the second rule set on the solo workloads (median).
EXTRA_SIGMA_REPEATS = 9
PAGE_LIMIT = 200
#: Mean rate of the paced reader; arrivals are Poisson (independent users), so
#: reads do not fall into step with the writer's ticks.
READ_RATE_HZ = 10.0
SUBSCRIBE_POLL_S = 2.0
#: Share of timed ticks on which the identified answer must change.
MIN_CHANGED_SHARE = 0.25

#: ``time.monotonic`` is system-wide on Linux: the speed probe stamps its samples on it too.
clock = time.monotonic


@dataclass
class TickRecord:
    """What the writer saw for one ``POST /updates``."""

    sent: float
    done: float
    report: dict
    delta: dict

    @property
    def ms(self) -> float:
        return (self.done - self.sent) * 1000.0


@dataclass
class ReadStats:
    """What the paced reader saw."""

    latencies_ms: list[float] = field(default_factory=list)
    late_ms: list[float] = field(default_factory=list)
    resync_410: int = 0
    torn: int = 0
    passes: int = 0


@dataclass
class ServeRun:
    """Raw observations of one serving run (input to metrics and layers)."""

    inputs: ServeInputs
    #: ``(start, end)`` of every cold ``POST /sessions``.
    setup: list[tuple[float, float]] = field(default_factory=list)
    #: ``(start, end)`` of every open that brings a further rule set into service.
    ready: list[tuple[float, float]] = field(default_factory=list)
    admissions: list[dict] = field(default_factory=list)
    ticks: list[TickRecord] = field(default_factory=list)
    arrivals: list[tuple[float, dict]] = field(default_factory=list)
    reads: ReadStats = field(default_factory=ReadStats)
    idle_read_ms: list[float] = field(default_factory=list)
    answer_entities: int = 0
    accepted_rules: int = 0
    changed: int = 0
    graph_nodes: int = 0
    rule_names: list[str] = field(default_factory=list)
    prometheus: str = ""
    rss_peak_mb: float = 0.0
    bytes_in: int = 0
    bytes_out: int = 0
    counter: OpCounter = field(default_factory=OpCounter)
    problems: list[str] = field(default_factory=list)

    @property
    def timed(self) -> list[TickRecord]:
        return self.ticks[WARMUP_TICKS:]

    @property
    def open_wall_s(self) -> float:
        """Summed client wall of every ``POST /sessions`` (denominator of ``api.open_share``)."""
        return sum(end - start for start, end in self.setup + self.ready)


def percentile_hi(values: list[float]) -> tuple[float, float]:
    """Highest percentile with >= 10 samples beyond it: ``(q, value)``."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return 0.5, statistics.median(ordered)
    index = len(ordered) - 11
    return (index + 1) / len(ordered), ordered[index]


# ----------------------------------------------------------------------
# companions
# ----------------------------------------------------------------------
def _subscribe_loop(
    port: int, path: str, since: int, expected: int, run: ServeRun, counter: OpCounter, stop: threading.Event
) -> None:
    """Hold a long-poll open and stamp each delta's arrival time."""
    client = Client(port, counter)
    try:
        while len(run.arrivals) < expected and not stop.is_set():
            status, doc = client.request(
                "GET", f"{path}/subscribe?since={since}&timeout={SUBSCRIBE_POLL_S}"
            )
            now = clock()
            if status != 200:
                run.problems.append(f"subscriber got {status}: {doc.get('error', doc)}")
                return
            for delta in doc["deltas"]:
                run.arrivals.append((now, delta))
            since = doc["resume_from"]
    finally:
        client.close()


def _read_loop(
    port: int, path: str, seed: int, run: ServeRun, counter: OpCounter, stop: threading.Event
) -> None:
    """Open-loop paced pagination: latency counts from the due time."""
    client = Client(port, counter)
    stats = run.reads
    rng = random.Random(seed * 104_729 + 17)
    cursor = None
    pinned = None
    due = clock()
    try:
        while not stop.is_set():
            wait = due - clock()
            if wait > 0 and stop.wait(wait):
                break
            started = clock()
            query = f"?limit={PAGE_LIMIT}" + (f"&cursor={cursor}" if cursor else "")
            status, doc = client.request("GET", f"{path}/answer{query}", ok=(200, 410))
            finished = clock()
            if status == 0:
                run.problems.append(f"reader transport failure: {doc['error']}")
                return
            stats.latencies_ms.append((finished - due) * 1000.0)
            stats.late_ms.append((started - due) * 1000.0)
            due += rng.expovariate(READ_RATE_HZ)
            if status == 410:
                stats.resync_410 += 1
                cursor = pinned = None
                continue
            if status != 200:
                cursor = pinned = None
                continue
            if pinned is None:
                pinned = doc["graph_version"]
            elif doc["graph_version"] != pinned:
                stats.torn += 1
                counter.failed += 1
            cursor = doc.get("next_cursor")
            if not cursor:
                stats.passes += 1
                pinned = None
    finally:
        client.close()


# ----------------------------------------------------------------------
# helpers over the writer connection
# ----------------------------------------------------------------------
def _paginate(client: Client, path: str) -> tuple[list[dict], int]:
    """One full single-version pagination pass: ``(entries, version)``."""
    entries: list[dict] = []
    cursor = None
    version = None
    while True:
        query = f"?limit={PAGE_LIMIT}" + (f"&cursor={cursor}" if cursor else "")
        status, doc = client.request("GET", f"{path}/answer{query}")
        if status != 200:
            raise BenchError(f"GET {path}/answer failed with {status}: {doc.get('error', doc)}")
        if version is None:
            version = doc["graph_version"]
        elif doc["graph_version"] != version:
            client.counter.failed += 1
            raise BenchError(f"torn pagination on {path}: {version} then {doc['graph_version']}")
        entries.extend(doc["entries"])
        cursor = doc.get("next_cursor")
        if not cursor:
            return entries, version


def _open(client: Client, body: dict) -> tuple[tuple[float, float], dict]:
    """Timed ``POST /sessions``: ``((start, end), 201 document)``; raises on anything else."""
    started = clock()
    status, doc = client.request("POST", "/sessions", body)
    window = (started, clock())
    if status != 201:
        raise BenchError(f"POST /sessions failed with {status}: {doc.get('error', doc)}")
    return window, doc


def _delete(client: Client, session_id: str) -> None:
    status, doc = client.request("DELETE", f"/sessions/{session_id}")
    if status != 200:
        raise BenchError(f"DELETE /sessions/{session_id} failed with {status}: {doc.get('error', doc)}")


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def run_serve(
    name: str, seed: int, seconds: float, scale: Scale, workdir: Path, probe: SpeedProbe, traced: bool = False
) -> tuple[ServeRun, ServerProcess]:
    """Drive serving workload *name*; returns raw observations + the stopped server.

    The server is pinned to the core the running *probe* is on; the probe
    is stopped when the timed phases end.
    """
    inputs = build_serve_inputs(name, seed, seconds, scale, clock)
    spec = inputs.spec
    run = ServeRun(inputs=inputs, graph_nodes=len(inputs.graph_doc["nodes"]))
    history = len(inputs.batches) + 8
    graph_body: dict
    if spec.shared_core:
        graph_path = workdir / "graph.json"
        graph_path.write_text(json.dumps(inputs.graph_doc, sort_keys=True, default=str))
        graph_body = {"graph_path": str(graph_path)}
    else:
        graph_body = {"graph": inputs.graph_doc}

    server = ServerProcess(workdir, probe.cpu, traced=traced).start()
    writer = Client(server.port, run.counter)
    companion_counter = OpCounter()
    stop = threading.Event()
    companion: threading.Thread | None = None
    try:
        # -- set-up: cold opens, the last one stays as the working session
        cold_body = {**inputs.session_request(*spec.tenants[0], history), **graph_body}
        sessions: list[dict] = []
        for repeat in range(SETUP_REPEATS):
            window, doc = _open(writer, cold_body)
            run.setup.append(window)
            if repeat < SETUP_REPEATS - 1:
                _delete(writer, doc["session"])
            else:
                sessions.append(doc)
                run.admissions.append(doc.get("admission", {}))

        # -- bringing further rule sets into service
        if spec.shared_core:
            for rules, max_edges in spec.tenants[1:]:
                window, doc = _open(writer, {**inputs.session_request(rules, max_edges, history), **graph_body})
                run.ready.append(window)
                run.admissions.append(doc.get("admission", {}))
                sessions.append(doc)
        else:
            extra_body = {**inputs.session_request(*spec.extra_sigma, history), **graph_body}
            for _ in range(EXTRA_SIGMA_REPEATS):
                window, doc = _open(writer, extra_body)
                run.ready.append(window)
                _delete(writer, doc["session"])

        paths = [f"/sessions/{doc['session']}" for doc in sessions]
        run.rule_names = sorted({rule for doc in sessions for rule in doc["rules"]})
        initial_entries, _ = _paginate(writer, paths[0])
        baselines = []
        for path in paths:
            status, doc = writer.request("GET", f"{path}/subscribe")
            if status != 200:
                raise BenchError(f"subscribe handshake failed with {status}")
            baselines.append(doc["resume_from"])
        if spec.companion == "reader":
            for _ in range(10):
                started = clock()
                writer.request("GET", f"{paths[0]}/answer?limit={PAGE_LIMIT}")
                run.idle_read_ms.append((clock() - started) * 1000.0)

        # -- the timed phase
        if spec.companion == "subscriber":
            companion = threading.Thread(
                target=_subscribe_loop,
                args=(server.port, paths[-1], baselines[-1], len(inputs.batches), run, companion_counter, stop),
                name="e2e-subscriber",
                daemon=True,
            )
        else:
            companion = threading.Thread(
                target=_read_loop,
                args=(server.port, paths[0], seed, run, companion_counter, stop),
                name="e2e-reader",
                daemon=True,
            )
        companion.start()
        update_path = f"{paths[0]}/updates"
        for batch in inputs.batches:
            body = {"ops": [op.as_dict() for op in batch.ops]}
            sent = clock()
            status, doc = writer.request("POST", update_path, body)
            done = clock()
            if status != 200:
                raise BenchError(f"POST {update_path} failed with {status}: {doc.get('error', doc)}")
            run.ticks.append(TickRecord(sent, done, doc["report"], doc["delta"]))
        if spec.companion == "subscriber":
            companion.join(timeout=4 * SUBSCRIBE_POLL_S)
        stop.set()
        companion.join(timeout=4 * SUBSCRIBE_POLL_S)
        if companion.is_alive():
            run.problems.append("companion thread did not finish")
            companion_counter.failed += 1
        probe.stop()

        # -- untimed output checks
        _check_outputs(run, writer, paths, sessions, baselines, initial_entries)
        run.prometheus = writer.get_text("/metrics")
    except BenchError as exc:
        run.problems.append(str(exc))
        if not server.alive():
            run.problems.append(f"server died: {server.stderr_tail()}")
    finally:
        stop.set()
        if companion is not None and companion.is_alive():
            companion.join(timeout=4 * SUBSCRIBE_POLL_S)
        writer.close()
        server.stop()
    run.counter.merge(companion_counter)
    run.rss_peak_mb = server.rss_peak_mb
    run.bytes_in = writer.bytes_in
    run.bytes_out = writer.bytes_out
    if run.problems and run.counter.failed == 0:
        run.counter.failed = 1  # a wrong output is a failed operation
    return run, server


def _check_outputs(
    run: ServeRun,
    writer: Client,
    paths: list[str],
    sessions: list[dict],
    baselines: list[int],
    initial_entries: list[dict],
) -> None:
    """Final answers, delta chain and subscription replay against the mirror."""
    inputs = run.inputs
    spec = inputs.spec
    problems = run.problems
    initial_graph = graph_from_dict(inputs.graph_doc)
    predicate = api.parse_predicate(PREDICATE)
    config = EIPConfig(eta=spec.eta, num_workers=2, seed=SIGMA_SEED, backend="sequential")

    for (rules, max_edges), path, doc in zip(spec.tenants, paths, sessions):
        sigma = generate_gpars(
            initial_graph, predicate, count=rules, max_pattern_edges=max_edges, d=2, seed=SIGMA_SEED
        )
        if [rule.name for rule in sigma] != doc["rules"]:
            problems.append(f"{path}: server generated a different rule set than the generator")
            continue
        expected = [entry.as_dict() for entry in api.identify(inputs.mirror, sigma, config).answer_entries()]
        served, _ = _paginate(writer, path)
        if served != expected:
            problems.append(
                f"{path}: final answer differs from a fresh identify on the mirror "
                f"({len(served)} served vs {len(expected)} expected entries)"
            )
        if path == paths[0]:
            run.answer_entities = len({entry["entity"] for entry in served})
            status, info = writer.request("GET", path)
            run.accepted_rules = info.get("accepted_rules", 0) if status == 200 else 0
            # the per-tick deltas must carry the initial answer to the final one
            identified = {entry["entity"] for entry in initial_entries}
            for tick in run.ticks:
                identified |= set(tick.delta["identified_entered"])
                identified -= set(tick.delta["identified_left"])
            if identified != {entry["entity"] for entry in served}:
                problems.append("per-tick deltas do not lead from the initial to the final answer")

    # replay of the writer session's feed equals the per-tick responses
    status, doc = writer.request("GET", f"{paths[0]}/subscribe?since={baselines[0]}&timeout=1")
    if status != 200 or doc["deltas"] != [tick.delta for tick in run.ticks]:
        problems.append("subscribe replay differs from the per-tick response deltas")
    if spec.companion == "subscriber":
        status, doc = writer.request("GET", f"{paths[-1]}/subscribe?since={baselines[-1]}&timeout=1")
        if status != 200 or doc["deltas"] != [delta for _, delta in run.arrivals]:
            problems.append("subscriber stream differs from the replay of its feed")

    if run.answer_entities == 0:
        problems.append("vacuous workload: the final identified set is empty")
    run.changed = changed_ticks(run)
    if run.timed and run.changed < MIN_CHANGED_SHARE * len(run.timed):
        problems.append(
            f"vacuous workload: the answer changed on {run.changed} of {len(run.timed)} timed ticks"
        )
    if run.reads.torn:
        problems.append(f"{run.reads.torn} torn (mixed-version) page sequences")


def changed_ticks(run: ServeRun) -> int:
    """Timed ticks whose delta moved any rule's match set or the identified set."""
    return sum(
        1
        for tick in run.timed
        if tick.delta["identified_entered"]
        or tick.delta["identified_left"]
        or any(diff["entered"] or diff["left"] for diff in tick.delta["rules"].values())
    )


def fingerprint_of(run: ServeRun) -> str:
    return with_rules(run.inputs.fingerprint, run.rule_names)
