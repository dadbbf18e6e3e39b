"""Execution backends for the BSP runtime.

All backends share one contract: :meth:`Executor.start` receives the
fragments once, :meth:`Executor.run` executes a batch of
:class:`WorkerTask` descriptors — ``(worker_fn, fragment_id, payload)``, no
closures over graphs — and :meth:`Executor.shutdown` releases any pooled
resources.  Worker functions take ``(context, payload)`` where the
:class:`~repro.parallel.worker.WorkerContext` persists across rounds.

* :class:`SequentialExecutor` runs tasks one after another while timing
  each, which is all the simulated-parallel-time model needs (default).
* :class:`ProcessPoolExecutorBackend` gives real multi-core parallelism: a
  persistent ``multiprocessing`` pool whose processes hold the fragments
  from :meth:`~Executor.start` to :meth:`~Executor.shutdown`, so per-round
  messages stay small.  Worker functions must be module-level (picklable by
  reference) and payloads picklable.

DMine and a streaming session start a pool for their run and shut it down
at its end.  Batch identification keeps one per fragmentation instead:
:class:`PooledFragments` is the list ``shared_fragments`` memoises, and its
:class:`FragmentPool` keeps the pool forked with those fragments for as long
as the list lives, so only the first ``processes`` call on a graph version
pays the fork.

Worker exceptions are wrapped in :class:`repro.exceptions.WorkerError`
carrying the fragment id, on every backend.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import time
import weakref
from abc import ABC, abstractmethod
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.exceptions import ExecutorError, WorkerError
from repro.obs.registry import registry
from repro.obs.stats import merge_shipped_counts
from repro.parallel.worker import TASK_OK, WorkerContext, init_worker, prime_worker, run_task
from repro.parallel.worker import open_descriptors
from repro.partition.fragment import Fragment

#: Names accepted by :func:`make_executor` (and the ``--backend`` CLI flag).
BACKENDS = ("sequential", "processes")

#: Held from a pool's descriptor listing to its fork, so that a pool started
#: on another thread never forks holding a lifeline pipe it did not list.
_FORKING = threading.Lock()


def is_int(value: object) -> bool:
    """Whether *value* is an exact ``int``: a ``bool`` is not, nor is a float
    of integral value (code past the config would only reject it halfway)."""
    return isinstance(value, int) and not isinstance(value, bool)


def valid_pool_size(value: object) -> bool:
    """Whether *value* is an accepted ``executor_workers``: ``None`` or an int >= 1."""
    return value is None or is_int(value) and value >= 1


@dataclass(frozen=True)
class WorkerTask:
    """One unit of round work: apply *fn* to a fragment's context.

    ``fn`` must be a module-level callable and ``payload`` picklable for the
    process backend; the sequential backend accepts anything.
    """

    fn: Callable[[WorkerContext, object], object]
    fragment_id: int
    payload: object = None


class Executor(ABC):
    """Runs batches of :class:`WorkerTask` and reports per-task durations.

    ``build_resident`` (default ``True``) makes :meth:`start` compile each
    fragment's resident :class:`repro.graph.columnar.ColumnarFragment` up
    front — in the worker-pool initializer for the process backend,
    in-process for the sequential backend — so every backend begins
    its first round with warm fragments.
    """

    name = "abstract"
    build_resident = True

    @property
    def running(self) -> bool:
        """Whether :meth:`run` needs no :meth:`start` first (a started, unbroken pool)."""
        return False

    @abstractmethod
    def start(self, fragments: Sequence[Fragment]) -> None:
        """Receive the run's fragments; called once before the first round."""

    def shutdown(self) -> None:
        """Release pooled resources; called once after the last round."""

    @abstractmethod
    def run(
        self, tasks: Sequence[WorkerTask]
    ) -> tuple[list[object], list[float], list[dict | None]]:
        """Execute *tasks*; return (results, per-task seconds, shipped counts).

        The third list carries what each task's pool process counted
        (:func:`repro.obs.stats.collect_process_metrics`); the sequential
        backend's entries are ``None``: the global registry pulls in-process
        counts on read.
        """


class SequentialExecutor(Executor):
    """Run tasks one at a time in this process (default backend)."""

    name = "sequential"

    def start(self, fragments: Sequence[Fragment]) -> None:
        self._contexts = {
            fragment.index: WorkerContext(fragment) for fragment in fragments
        }
        if self.build_resident:
            from repro.graph.columnar import columnar_view

            for fragment in fragments:
                columnar_view(fragment.graph)

    def _context(self, fragment_id: int) -> WorkerContext:
        try:
            return self._contexts[fragment_id]
        except (AttributeError, KeyError):
            raise ExecutorError(
                f"unknown fragment id {fragment_id!r}; was start() called with the run's fragments?"
            ) from None

    def run(
        self, tasks: Sequence[WorkerTask]
    ) -> tuple[list[object], list[float], list[dict | None]]:
        results: list[object] = []
        durations: list[float] = []
        for task in tasks:
            context = self._context(task.fragment_id)
            started = time.perf_counter()
            try:
                result = task.fn(context, task.payload)
            except Exception as exc:
                raise WorkerError(task.fragment_id, f"{type(exc).__name__}: {exc}") from exc
            durations.append(time.perf_counter() - started)
            results.append(result)
        return results, durations, [None] * len(tasks)


def _default_start_method() -> str:
    """``fork`` on Linux (cheap, no re-import), else ``spawn``.

    macOS offers ``fork`` but CPython documents it as unsafe there (system
    frameworks may deadlock in forked children), so everything that is not
    Linux gets ``spawn``.
    """
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods and sys.platform.startswith("linux"):
        return "fork"
    return "spawn"


class ProcessPoolExecutorBackend(Executor):
    """Run tasks on a persistent multi-process pool (real parallelism).

    The pool is created by :meth:`start` with the fragments shipped once via
    the :func:`repro.parallel.worker.init_worker` initializer; it stays warm
    until :meth:`shutdown`, so a multi-round BSP run pays the fork/pickle
    cost once rather than per round.  :meth:`start` returns once every
    process has initialized and shipped its cold start through one
    :func:`~repro.parallel.worker.prime_worker` task each.

    A forked pool also gets a *lifeline* pipe whose write end only the
    coordinator holds: every worker exits on its EOF, so no pool process
    outlives a coordinator that dies without shutting the pool down.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to ``min(num_fragments, cpu_count)``.  The start
        method is :func:`_default_start_method`'s.
    """

    name = "processes"

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = max_workers
        self._pool = None
        self._lifeline: tuple[int, ...] = ()

    @property
    def running(self) -> bool:
        # A pool that lost a process stays broken (the stdlib marks it so and
        # fails every later submit): it has to be replaced, not reused.
        return self._pool is not None and not self._pool._broken

    def start(self, fragments: Sequence[Fragment]) -> None:
        self.shutdown()
        fragment_list = list(fragments)
        processes = self.max_workers
        if processes is None:
            processes = min(len(fragment_list), os.cpu_count() or 1)
        processes = max(1, min(processes, len(fragment_list) or 1))
        method = _default_start_method()
        context = multiprocessing.get_context(method)
        with _FORKING:
            # Listed before the pool makes its own pipes, and after the
            # lifeline: what a forked worker (of this pool or a later one)
            # lets go of, all but its own pool's lifeline read end.
            inherited = ()
            if method == "fork":
                self._lifeline = os.pipe()
                inherited = open_descriptors()
            # concurrent.futures rather than multiprocessing.Pool: a worker that
            # dies abruptly (segfault, OOM kill) breaks the pending futures with
            # BrokenProcessPool instead of hanging result retrieval forever.
            self._pool = ProcessPoolExecutor(
                max_workers=processes,
                mp_context=context,
                initializer=init_worker,
                initargs=(
                    fragment_list,
                    self.build_resident,
                    context.Barrier(processes),
                    inherited,
                    self._lifeline[0] if self._lifeline else None,
                ),
            )
            # Without this a process that never wins a task never ships its
            # initialization, and the pool counts would follow task placement.
            # A fork-context pool forks every process in the first submit.
            primed = [self._pool.submit(prime_worker) for _ in range(processes)]
        try:
            merge_shipped_counts(registry(), [future.result() for future in primed])
        except BrokenProcessPool as exc:
            self.shutdown()
            raise ExecutorError(f"a pool process died while starting: {exc}") from exc

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        # Closed after the join: a worker still running must not see EOF.
        for fd in self._lifeline:
            os.close(fd)
        self._lifeline = ()

    def run(
        self, tasks: Sequence[WorkerTask]
    ) -> tuple[list[object], list[float], list[dict | None]]:
        if not tasks:
            return [], [], []
        if self._pool is None:
            raise ExecutorError(
                "process pool not started; call start(fragments) before run()"
            )
        futures = [
            self._pool.submit(run_task, task.fn, task.fragment_id, task.payload)
            for task in tasks
        ]
        results: list[object] = []
        durations: list[float] = []
        metrics: list[dict | None] = []
        for task, future in zip(tasks, futures):
            try:
                status, value, elapsed, delta = future.result()
            except BrokenProcessPool as exc:
                raise WorkerError(
                    task.fragment_id, f"worker process died abruptly: {exc}"
                ) from exc
            if status != TASK_OK:
                raise WorkerError(task.fragment_id, value)
            results.append(value)
            durations.append(elapsed)
            metrics.append(delta)
        return results, durations, metrics


def make_executor(
    backend: str,
    max_workers: int | None = None,
    build_resident: bool = True,
) -> Executor:
    """Instantiate the execution backend named by a config/CLI string.

    *build_resident* controls whether the backend compiles the fragments'
    resident :class:`repro.graph.columnar.ColumnarFragment` at start (see
    :class:`Executor`); solvers whose matchers never probe the fragment
    graphs directly (``MatchC`` searches extracted d-balls) skip it.
    """
    if backend == "sequential":
        executor: Executor = SequentialExecutor()
    elif backend == "processes":
        executor = ProcessPoolExecutorBackend(max_workers=max_workers)
    else:
        raise ExecutorError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    executor.build_resident = build_resident
    return executor


class FragmentPool:
    """The executor kept with one fragmentation (see :class:`PooledFragments`).

    :meth:`lease` hands out an executor for ``(backend, max_workers,
    build_resident)``: on ``sequential`` a new one, which the run starts and
    drops; on ``processes`` the kept pool, started by the first lease that
    needs it (under the lock, so racing first calls start one) and shared by
    concurrent runs.  The pool leaves service when a lease for another key or
    one that finds it broken replaces it, when a run on it fails and at
    :meth:`close`; it is shut down and joined once no run holds it.
    """

    def __init__(self, fragments: Sequence[Fragment]) -> None:
        # A copy: holding the owning list would keep it alive through its finalizer.
        self._fragments = list(fragments)
        self._lock = threading.Lock()
        self._key: tuple | None = None
        self._pool: Executor | None = None
        self._leases: Counter = Counter()

    def lease(self, backend: str, max_workers: int | None, build_resident: bool) -> Executor:
        key = (backend, max_workers, build_resident)
        if backend != "processes":
            return make_executor(*key)
        with self._lock:
            if self._key != key or self._pool is None or not self._pool.running:
                self._retire(self._pool)
                pool = make_executor(*key)
                pool.start(self._fragments)
                self._key, self._pool = key, pool
            self._leases[self._pool] += 1
            return self._pool

    def release(self, executor: Executor, failed: bool = False) -> None:
        """End one run's lease of *executor*; a *failed* run retires it."""
        with self._lock:
            if executor not in self._leases:
                return  # a sequential executor: nothing was kept
            self._leases[executor] -= 1
            if failed or executor is not self._pool:
                self._retire(executor)

    def close(self) -> None:
        """Retire the kept pool (a run still holding it finishes first)."""
        with self._lock:
            self._retire(self._pool)

    def _retire(self, pool: Executor | None) -> None:
        if pool is self._pool:
            self._pool = None
        if pool is not None and not self._leases[pool]:
            del self._leases[pool]
            pool.shutdown()


class PooledFragments(list):
    """A fragmentation that owns the process pool forked with it.

    The list of fragments, plus :attr:`pool`, their :class:`FragmentPool`.
    The pool lives as long as the list: once the list is collected (its
    ``shared_fragments`` entry was replaced or its graph collected, and no
    call holds it) or the interpreter exits, a finalizer closes the pool.
    The finalizer holds the pool, never the list or a graph.
    """

    def __init__(self, fragments: Iterable[Fragment]) -> None:
        super().__init__(fragments)
        self.pool = FragmentPool(self)
        weakref.finalize(self, self.pool.close)
