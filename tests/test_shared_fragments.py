"""Batch identification fragments a graph once per version.

``repro.partition.shared_fragments`` keeps the last fragmentation of each
graph object, pinned to ``Graph.version``; ``MatchC.identify`` (Match,
Matchc and disVF2) takes its fragments from it and compiles their resident
views in the coordinator, so forked pool workers inherit them.  These tests
hold the memo to its contract: a warm call partitions and compiles nothing
and answers as a fresh graph would, every mutation misses, an open batch
neither reads nor writes it, the graph is held weakly, and a dead pool
worker leaves the memo usable.

On the ``processes`` backend the entry also owns the pool forked with its
fragments (``repro.parallel.executor.PooledFragments``): the first call
starts it, later calls reuse it, and it is shut down and joined when the
entry is replaced, the graph is collected, a call on it fails or the
interpreter exits.  The pool tests count forks with
``repro_pool_initializations_total`` and look for leaked processes with
``multiprocessing.active_children``.
"""

from __future__ import annotations

import dataclasses
import gc
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import textwrap
import threading
import time
import weakref
from pathlib import Path

import pytest

from repro import api
from repro.datasets import generate_gpars, pokec_like
from repro.exceptions import WorkerError
from repro.graph.columnar import ColumnarFragment
from repro.identification import EIPConfig, matchc
from repro.obs import registry
from repro.parallel.runtime import RunTimings
from repro.partition import partition_graph, partitioner, shared_fragments
from repro.stream import random_update_batch
from repro.testing import counter_value

PREDICATE = "user:like_book:personal development"
BACKENDS = ("sequential", "processes")

fork_only = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="the pool forks only on Linux"
)
ROOT = Path(__file__).resolve().parents[1]


def _workload(seed: int = 7):
    graph = pokec_like(60, 3, seed=seed)
    rules = generate_gpars(graph, api.parse_predicate(PREDICATE), count=4, max_pattern_edges=3, d=2, seed=5)
    return graph, rules


def _config(backend: str = "sequential", pool_size: int = 1) -> EIPConfig:
    return EIPConfig(eta=0.5, num_workers=2, backend=backend, executor_workers=pool_size)


def _answer(result):
    """The result without its timings (wall clocks differ run to run)."""
    return dataclasses.replace(result, timings=RunTimings())


def _fresh(graph, rules, backend="sequential"):
    """The answer on a copy of *graph*: a new graph object, never in the memo."""
    return _answer(api.identify(graph.copy(), rules, _config(backend)))


def _built() -> float:
    return counter_value(registry(), "repro_partition_built_total")


def _reused() -> float:
    return counter_value(registry(), "repro_partition_reused_total")


def _forked() -> float:
    """Pool processes started so far (each ships one initialization)."""
    return counter_value(registry(), "repro_pool_initializations_total")


def _children() -> set[int]:
    """Live child processes (``active_children`` also reaps finished ones)."""
    return {child.pid for child in multiprocessing.active_children()}


@pytest.fixture
def collecting(monkeypatch):
    """Statistics collection on, in this process and in the pools it forks."""
    monkeypatch.setenv("REPRO_OBS", "1")


@pytest.fixture
def compiles(monkeypatch, tmp_path):
    """``pids()``: the process id of every ``ColumnarFragment`` compile since
    the fixture started, from this process and from forked pool workers."""
    record = tmp_path / "compiles.txt"
    record.touch()
    original = ColumnarFragment._compile

    def counted(self):
        with open(record, "a") as out:
            out.write(f"{os.getpid()}\n")
        original(self)

    monkeypatch.setattr(ColumnarFragment, "_compile", counted)
    return lambda: [int(line) for line in record.read_text().split()]


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_warm_identify_partitions_and_compiles_nothing(backend, compiles):
    if backend == "processes" and not sys.platform.startswith("linux"):
        pytest.skip("the pool forks only on Linux")
    graph, rules = _workload()
    built = _built()
    first = _answer(api.identify(graph, rules, _config(backend)))
    assert first.identified, "the gate is not vacuous"
    assert _built() == built + 1
    # The cold call compiles every fragment once, in this process: a forked
    # worker inherits the views.
    assert compiles() == [os.getpid()] * 2
    built, reused = _built(), _reused()
    second = _answer(api.identify(graph, rules, _config(backend)))
    assert (_built(), _reused()) == (built, reused + 1)
    assert compiles() == [os.getpid()] * 2
    assert second == first == _fresh(graph, rules, backend)


@pytest.mark.parametrize("mutate", ["single", "batch"])
def test_every_mutation_misses(mutate):
    graph, rules = _workload()
    api.identify(graph, rules, _config())
    users = sorted(graph.nodes_with_label("user"), key=str)
    if mutate == "single":
        graph.add_edge(users[0], users[1], "follow")
    else:
        with graph.batch_update() as batch:
            batch.remove_node(users[2])
            batch.add_edge(users[3], users[4], "follow")
    built = _built()
    after = _answer(api.identify(graph, rules, _config()))
    assert _built() == built + 1
    assert after == _fresh(graph, rules)
    assert partitioner._SHARED[graph][0][0] == graph.version


def test_an_open_batch_neither_reads_nor_writes_the_memo():
    graph, rules = _workload()
    api.identify(graph, rules, _config())
    entry = partitioner._SHARED[graph]
    users = sorted(graph.nodes_with_label("user"), key=str)
    built, reused = _built(), _reused()
    with graph.batch_update() as batch:
        batch.remove_node(users[0])
        version = graph.version  # not bumped until the batch closes
        inside = _answer(api.identify(graph, rules, _config()))
        assert graph.version == version == entry[0][0]
        assert inside == _fresh(graph, rules)
    # One fragmentation inside, one for the fresh copy; neither was stored.
    assert (_built(), _reused()) == (built + 2, reused)
    assert partitioner._SHARED[graph] is entry
    assert _answer(api.identify(graph, rules, _config())) == inside


def test_an_entry_whose_fragment_moved_is_not_served():
    graph, rules = _workload()
    key, build = ("user", 2, 2, 0), lambda: partition_graph(graph, 2, graph.nodes_with_label("user"), 2)
    fragments, reused = shared_fragments(graph, key, build)
    assert not reused
    assert shared_fragments(graph, key, build) == (fragments, True)
    fragments[0].graph.add_node("stray", "user")  # a caller broke the contract
    rebuilt, reused = shared_fragments(graph, key, build)
    assert not reused and all(a is not b for a, b in zip(rebuilt, fragments))
    assert not rebuilt[0].graph.has_node("stray")
    assert partitioner._SHARED[graph][1] is rebuilt
    assert _answer(api.identify(graph, rules, _config())) == _fresh(graph, rules)


def test_the_memo_holds_its_graph_weakly():
    graph, rules = _workload(seed=11)
    api.identify(graph, rules, _config())
    fragment_graph = weakref.ref(partitioner._SHARED[graph][1][0].graph)
    graph_ref, entries = weakref.ref(graph), len(partitioner._SHARED)
    del graph
    gc.collect()
    assert graph_ref() is None and fragment_graph() is None
    assert len(partitioner._SHARED) == entries - 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_threads_sharing_one_fragmentation_agree(backend, collecting):
    """More threads than cores, switching often: every answer equals a fresh
    graph's, every call either built or reused, and one entry remains.  On
    ``processes`` the threads racing the first call start one pool, and none
    of its processes outlives the graph."""
    if backend == "processes" and not sys.platform.startswith("linux"):
        pytest.skip("the pool forks only on Linux")
    graph, rules = _workload()
    expected = _fresh(graph, rules)
    threads_count, calls = 4, 3
    barrier = threading.Barrier(threads_count)
    answers, errors = [], []

    def identify():
        try:
            barrier.wait(timeout=30)
            for _ in range(calls):
                answers.append(_answer(api.identify(graph, rules, _config(backend))))
        except Exception as exc:  # reported below
            errors.append(exc)

    built, reused, forked = _built(), _reused(), _forked()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=identify) for _ in range(threads_count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and not errors
    assert len(answers) == threads_count * calls
    assert all(answer == expected for answer in answers)
    assert (_built() - built) + (_reused() - reused) == threads_count * calls
    assert _built() - built >= 1 and partitioner._SHARED[graph][0][0] == graph.version
    assert _forked() - forked == (1 if backend == "processes" else 0)  # a pool of one
    del graph
    gc.collect()
    assert multiprocessing.active_children() == []


def test_a_streaming_session_leaves_the_shared_fragments_alone():
    """A session ticks the graph itself; the fragments batch identify keeps
    for that graph are copies it never touches."""
    graph, rules = _workload()
    api.identify(graph, rules, _config())
    shared = partitioner._SHARED[graph][1]
    versions = [fragment.graph.version for fragment in shared]
    with api.open_session(graph, rules, config=_config()) as session:
        session.apply(random_update_batch(graph, size=4, seed=1))
    assert [fragment.graph.version for fragment in shared] == versions
    assert _answer(api.identify(graph, rules, _config())) == _fresh(graph, rules)


def _die(context, payload):
    """A verify round whose worker process is killed mid-task."""
    os.kill(os.getpid(), signal.SIGKILL)


@fork_only
def test_a_killed_pool_worker_leaves_the_memo_usable(monkeypatch):
    graph, rules = _workload()
    expected = _answer(api.identify(graph, rules, _config("sequential")))
    entry = partitioner._SHARED[graph]
    with monkeypatch.context() as patch:
        patch.setattr(matchc, "verify_worker", _die)
        with pytest.raises(WorkerError, match="died abruptly"):
            api.identify(graph, rules, _config("processes"))
    assert multiprocessing.active_children() == []
    assert partitioner._SHARED[graph] is entry
    reused = _reused()
    assert _answer(api.identify(graph, rules, _config("processes"))) == expected
    assert _reused() == reused + 1


@fork_only
def test_one_pool_serves_every_call_on_a_version(collecting):
    """Eight identical calls fork one pool and reuse one fragmentation; a
    mutation replaces the entry, and the next call starts exactly one new
    pool after the old one has been joined."""
    graph, rules = _workload()
    config = _config("processes", pool_size=2)
    assert not _children()
    forked, reused = _forked(), _reused()
    first = _answer(api.identify(graph, rules, config))
    assert first.identified and first == _fresh(graph, rules)
    assert _forked() - forked == 2  # the pool's size: one initialization each
    pool = _children()
    assert len(pool) == 2
    for call in range(2, 9):
        forked, reused = _forked(), _reused()
        assert _answer(api.identify(graph, rules, config)) == first
        assert (_forked() - forked, _reused() - reused) == (0, 1), call
        assert _children() == pool
    users = sorted(graph.nodes_with_label("user"), key=str)
    graph.add_edge(users[0], users[1], "follow")
    forked = _forked()
    assert _answer(api.identify(graph, rules, config)) == _fresh(graph, rules)
    assert _forked() - forked == 2
    renewed = _children()
    assert len(renewed) == 2 and not renewed & pool


@fork_only
def test_a_collected_graph_takes_its_pool_along():
    graph, rules = _workload()
    api.identify(graph, rules, _config("processes", pool_size=2))
    assert len(_children()) == 2
    del graph
    gc.collect()
    assert multiprocessing.active_children() == []


@fork_only
def test_a_pool_worker_killed_between_calls_is_replaced(collecting):
    """The pool lost a process while idle: the next call notices the broken
    pool, forks a new one and answers; nothing of the old pool survives."""
    graph, rules = _workload()
    config = _config("processes", pool_size=2)
    expected = _fresh(graph, rules)
    assert _answer(api.identify(graph, rules, config)) == expected
    pool = _children()
    victim = min(pool)
    os.kill(victim, signal.SIGKILL)
    # The stdlib marks the pool broken before it ends the survivor, so the
    # whole pool gone means the kill has been seen (and the victim reaped).
    deadline = time.monotonic() + 30
    while _children() & pool and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not _children() & pool
    forked = _forked()
    assert _answer(api.identify(graph, rules, config)) == expected
    assert _forked() - forked == 2
    renewed = _children()
    assert len(renewed) == 2 and not renewed & pool
    del graph
    gc.collect()
    assert multiprocessing.active_children() == []


@fork_only
def test_a_kept_pool_holds_no_descriptor_of_its_coordinator():
    """A pipe the coordinator opened before the fork reaches EOF once the
    coordinator closes its end, though the pool forked with it lives on (a
    subprocess waiting on its stdin would otherwise wait for the pool)."""
    graph, rules = _workload()
    read_end, write_end = os.pipe()
    try:
        api.identify(graph, rules, _config("processes", pool_size=2))
        assert len(_children()) == 2
        os.close(write_end)
        write_end = None
        readable, _, _ = select.select([read_end], [], [], 10)
        assert readable and os.read(read_end, 1) == b""
    finally:
        os.close(read_end)
        if write_end is not None:
            os.close(write_end)


_EXITS_WITH_A_LIVE_POOL = """
import multiprocessing, signal, sys, threading
from repro import api
from repro.datasets import generate_gpars, pokec_like
from repro.identification import EIPConfig

signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
graph = pokec_like(60, 3, seed=7)
predicate = api.parse_predicate({predicate!r})
rules = generate_gpars(graph, predicate, count=4, max_pattern_edges=3, d=2, seed=5)
api.identify(graph, rules, EIPConfig(eta=0.5, num_workers=2, backend="processes", executor_workers=2))
print(" ".join(str(child.pid) for child in multiprocessing.active_children()), flush=True)
if sys.argv[1] == "wait":
    threading.Event().wait(60)
"""


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@fork_only
@pytest.mark.parametrize("ending", ["exit", "sigterm"])
def test_an_interpreter_exit_joins_a_live_pool(ending):
    """The script's last identify leaves its pool live; leaving the
    interpreter, normally or through a SIGTERM handled as ``sys.exit(143)``
    (as the repo benchmark handles it), joins every pool process."""
    environment = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    ))
    script = textwrap.dedent(_EXITS_WITH_A_LIVE_POOL.format(predicate=PREDICATE))
    argument = "wait" if ending == "sigterm" else "exit"
    with subprocess.Popen(
        [sys.executable, "-c", script, argument],
        env=environment, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as child:
        try:
            pids = [int(pid) for pid in child.stdout.readline().split()]
            assert len(pids) == 2, child.stderr.read() if child.poll() is not None else pids
            if ending == "sigterm":
                child.send_signal(signal.SIGTERM)
            returncode = child.wait(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        assert returncode == (143 if ending == "sigterm" else 0), child.stderr.read()
    assert not [pid for pid in pids if _alive(pid)]


_DIES_WITH_LIVE_POOLS = """
import multiprocessing, os, signal
from repro import api
from repro.datasets import generate_gpars, pokec_like
from repro.identification import EIPConfig

graph = pokec_like(60, 3, seed=7)
predicate = api.parse_predicate({predicate!r})
rules = generate_gpars(graph, predicate, count=4, max_pattern_edges=3, d=2, seed=5)
config = EIPConfig(eta=0.5, num_workers=2, backend="processes", executor_workers=2)
api.identify(graph, rules, config)
session = api.open_session(graph.copy(), rules, config=config)
print(" ".join(str(child.pid) for child in multiprocessing.active_children()), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def _running(pid: int) -> bool:
    """Whether *pid* is a process that has not exited: an orphan whose new
    parent has not reaped it yet is a zombie, which holds no descriptor."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@fork_only
def test_a_sigkilled_coordinator_takes_its_pools_along():
    """A coordinator holding a kept identify pool and a streaming session
    opened on ``processes`` (which starts no pool: 2 processes, not 4) dies
    by SIGKILL, so no shutdown code runs: every pool process still exits on
    its own, and the coordinator's stdout, which the pool processes
    inherited, reaches EOF."""
    environment = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    ))
    script = textwrap.dedent(_DIES_WITH_LIVE_POOLS.format(predicate=PREDICATE))
    with subprocess.Popen(
        [sys.executable, "-c", script],
        env=environment, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as child:
        pids = []
        try:
            pids = [int(pid) for pid in child.stdout.readline().split()]
            assert child.wait(timeout=60) == -signal.SIGKILL
            assert len(pids) == 2, (pids, child.stderr.read())
            deadline = time.monotonic() + 30
            while [pid for pid in pids if _running(pid)] and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in pids if _running(pid)]
            readable, _, _ = select.select([child.stdout], [], [], 10)
            assert readable and child.stdout.read() == ""
        finally:
            for pid in pids:  # a failed run must not leak its orphans
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
            if child.poll() is None:
                child.kill()
                child.wait()

