"""Worker-side execution context and the process-pool task runner.

The process backend keeps a **persistent** pool for as long as its owner
holds it — a BSP run of DMine or a streaming session, or, for batch
identification, the fragmentation the pool was forked with (see
:class:`repro.parallel.executor.PooledFragments`).  Each worker process
receives the fragment list exactly once, at pool start, via the
:func:`init_worker` initializer which stores them in a module-level
registry.  Every round ships only a small picklable
``(worker_fn, fragment_id, payload)`` descriptor — never the graph — and the
worker resolves ``fragment_id`` against its local registry.

The initializer also gets each fragment's resident
:class:`repro.graph.columnar.ColumnarFragment` (label buckets, profile
matrix, sketch cache) built unless the solver opted out, so the
matching hot path probes a warm structure that lives with the fragment for
the pool's lifetime and never crosses the pickle boundary.  A forked worker
inherits the views its coordinator compiled (batch identification compiles
them before the fork); a spawned one compiles its own.

Per-fragment scratch state (a ``LocalMiner``, a matcher with warm caches,
the incremental :class:`repro.matching.incremental.MatchStore` holding the
previous level's materialized matches) lives in a :class:`WorkerContext`
that survives across rounds — and, in a kept batch-identification pool,
across calls — for the lifetime of the pool; like the structure, a match
store is fragment-resident and never pickled — it fills during evaluation
and a cold worker simply falls back to full matching.  Because a pool may
route any fragment's task to any of its processes, worker functions must
treat that state strictly as a cache: anything stored there has to be
*deterministically reconstructible* from the fragment and its key, so a
cache miss in a different process yields identical results.  Cross-round
algorithm state, and every report, match set or answer, therefore lives at
the coordinator and travels inside payloads.
"""

from __future__ import annotations

import gc
import os
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.obs.stats import StatisticsBase, collect_process_metrics
from repro.partition.fragment import Fragment

# Registry populated once per worker process by ``init_worker``.
_FRAGMENTS: dict[int, Fragment] = {}
_CONTEXTS: dict[int, "WorkerContext"] = {}
#: The pool's start barrier, installed by ``init_worker`` (see prime_worker).
_START_BARRIER = None

#: Status tags of the tuples :func:`run_task` sends back to the parent.
TASK_OK = "ok"
TASK_ERROR = "error"


@dataclass
class WorkerStatistics(StatisticsBase):
    """A pool process's cold start (``repro_pool_*_total``): counted by
    :func:`init_worker` and shipped like any statistics, with the process's
    first task (:func:`prime_worker` in a pool)."""

    _metric_kind = "pool"

    initializations: int = 0
    init_seconds: float = 0.0


@dataclass
class WorkerContext:
    """One worker's view of its fragment plus pool-lifetime scratch state."""

    fragment: Fragment
    state: dict = field(default_factory=dict)

    def cached(self, key, factory: Callable[[], object]) -> object:
        """Return ``state[key]``, building it with *factory* on first use.

        The value must be a pure function of the fragment and *key*; see the
        module docstring for why.
        """
        try:
            return self.state[key]
        except KeyError:
            value = self.state[key] = factory()
            return value


def open_descriptors() -> tuple[tuple[int, int, int], ...]:
    """``(fd, device, inode)`` of every descriptor open in this process (Linux)."""
    found = []
    for name in os.listdir("/proc/self/fd"):
        try:
            status = os.fstat(int(name))
        except OSError:  # the listing's own descriptor, closed by now
            continue
        found.append((int(name), status.st_dev, status.st_ino))
    return tuple(found)


def _release_descriptors(inherited: Sequence[tuple[int, int, int]]) -> None:
    """Point each of *inherited* above stderr that still names the same file
    at ``/dev/null``.

    A forked worker starts with every descriptor its coordinator had open
    (another subprocess's stdin, a server's socket), and a pool that outlives
    the call would keep that pipe from reaching EOF or that port bound.  The
    pool's own pipes were made after *inherited* was listed: other files,
    even under a reused number, so they stay.
    """
    null = os.open(os.devnull, os.O_RDWR)
    for fd, device, inode in inherited:
        try:
            status = os.fstat(fd)
        except OSError:
            continue
        if fd > 2 and fd != null and (status.st_dev, status.st_ino) == (device, inode):
            os.dup2(null, fd)
    os.close(null)


def _exit_with_coordinator(lifeline: int) -> None:
    """Wait for EOF on the pool's lifeline pipe, then end this process.

    The coordinator holds the only write end, so EOF means it is gone, even
    by SIGKILL, and no task will ever arrive: the worker would otherwise
    block on its call queue for good.  A pool shut down in order has joined
    its workers before it closes the write end.
    """
    os.read(lifeline, 1)
    os._exit(1)


def init_worker(
    fragments: Sequence[Fragment],
    build_resident: bool = True,
    start_barrier=None,
    inherited: Sequence[tuple[int, int, int]] = (),
    lifeline: int | None = None,
) -> None:
    """Pool initializer: install *fragments* in this process's registry.

    With *build_resident* (the default) each fragment's resident
    :class:`~repro.graph.columnar.ColumnarFragment` is looked up here, once
    per worker process, so every round's matching work starts warm: a
    view inherited by fork is found built, any other is compiled.  It counts
    itself in a :class:`WorkerStatistics`.  *start_barrier* is the pool's
    ``multiprocessing.Barrier`` that :func:`prime_worker` waits on;
    *inherited* lists the descriptors the coordinator had open before the
    pool (:func:`open_descriptors`), which a forked worker lets go of;
    *lifeline* is the read end of the pool's lifeline pipe among them, kept
    and watched by a daemon thread (:func:`_exit_with_coordinator`).
    """
    global _START_BARRIER
    _START_BARRIER = start_barrier
    _release_descriptors([entry for entry in inherited if entry[0] != lifeline])
    if lifeline is not None:
        threading.Thread(target=_exit_with_coordinator, args=(lifeline,), daemon=True).start()
    # A forked worker shares the coordinator's heap copy-on-write: frozen, it is
    # never traversed by this process's collections, so its pages stay shared.
    gc.freeze()
    started = time.perf_counter()
    from repro.graph.columnar import columnar_view

    _FRAGMENTS.clear()
    _CONTEXTS.clear()
    for fragment in fragments:
        _FRAGMENTS[fragment.index] = fragment
        if build_resident:
            columnar_view(fragment.graph)
    # Dropped at once: the counts wait, unshipped, for the first task.
    WorkerStatistics(initializations=1, init_seconds=time.perf_counter() - started)


def prime_worker() -> dict | None:
    """A pool process's first task: wait at the start barrier until every
    process of the pool holds one such task, then return what this process
    counted (its cold start) for the coordinator to merge.

    A process blocked at the barrier takes no second task, so each process
    runs exactly one: every cold start ships, however the later tasks spread.
    """
    _START_BARRIER.wait()
    return collect_process_metrics()


def context_for(fragment_id: int) -> WorkerContext:
    """The persistent :class:`WorkerContext` for *fragment_id* (KeyError if unknown)."""
    context = _CONTEXTS.get(fragment_id)
    if context is None:
        context = _CONTEXTS[fragment_id] = WorkerContext(_FRAGMENTS[fragment_id])
    return context


def run_task(worker_fn: Callable, fragment_id: int, payload: object) -> tuple:
    """Execute one task inside a worker process.

    Returns ``("ok", result, seconds, metrics)`` on success or
    ``("error", text, 0.0, None)`` on failure — errors travel back as plain
    strings because the original exception (or its traceback) may not
    survive pickling; the parent wraps them in
    :class:`repro.exceptions.WorkerError`.

    ``metrics`` is what this process counted since its previous task
    (:func:`repro.obs.stats.collect_process_metrics`; ``None`` when nothing
    was) — the coordinator merges it into its global registry, so a
    process-pool run reports its workers' counts like a sequential one.

    The duration is measured *around the worker function only*, so the
    simulated parallel-time accounting excludes pool dispatch and IPC.
    """
    try:
        context = context_for(fragment_id)
        started = time.perf_counter()
        result = worker_fn(context, payload)
        elapsed = time.perf_counter() - started
        return (TASK_OK, result, elapsed, collect_process_metrics())
    except Exception:
        return (TASK_ERROR, traceback.format_exc(), 0.0, None)
