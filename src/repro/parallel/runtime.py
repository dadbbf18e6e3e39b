"""Bulk-synchronous coordinator/worker runtime with time accounting."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.obs.registry import registry
from repro.obs.stats import merge_shipped_counts
from repro.parallel.executor import Executor, SequentialExecutor, WorkerTask
from repro.parallel.worker import WorkerContext
from repro.partition.fragment import Fragment


@dataclass(frozen=True)
class RoundTiming:
    """Timing of one BSP round."""

    round_index: int
    worker_times: tuple[float, ...]
    coordinator_time: float

    @property
    def parallel_time(self) -> float:
        """Simulated round time: slowest worker plus coordinator work."""
        slowest = max(self.worker_times) if self.worker_times else 0.0
        return slowest + self.coordinator_time

    @property
    def skew(self) -> float:
        """``(max - min) / max`` of worker times (0 when perfectly even)."""
        if not self.worker_times:
            return 0.0
        slowest = max(self.worker_times)
        if slowest == 0:
            return 0.0
        return (slowest - min(self.worker_times)) / slowest


@dataclass
class RunTimings:
    """Accumulated timings of a whole parallel run."""

    rounds: list[RoundTiming] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def simulated_parallel_time(self) -> float:
        """Σ over rounds of (max worker time + coordinator time)."""
        return sum(round_timing.parallel_time for round_timing in self.rounds)


class BSPRuntime:
    """Applies worker functions to fragments round by round.

    A round's work is described by ``(worker_fn, fragment_id, payload)``
    descriptors rather than closures over fragments: the executor owns the
    fragments for the whole run (the process backend ships them to its pool
    exactly once), and each round only sends small per-fragment payloads.
    ``worker_fn(context, payload)`` must be a module-level callable and the
    payloads picklable when a process backend is used.

    Parameters
    ----------
    fragments:
        The fragments produced by :func:`repro.partition.partition_graph`;
        worker i holds ``fragments[i]`` for the whole run.
    executor:
        Execution backend; defaults to :class:`SequentialExecutor`.  The
        runtime starts it unless it is already running, and shuts down only
        an executor it started itself: a kept pool is its owner's
        (:class:`repro.parallel.executor.FragmentPool`).
    """

    def __init__(self, fragments: Sequence[Fragment], executor: Executor | None = None) -> None:
        self.fragments = list(fragments)
        self.executor = executor if executor is not None else SequentialExecutor()
        self.timings = RunTimings()
        self._run_started: float | None = None
        self._owns_executor = False

    def start_run(self) -> None:
        """Mark the start of the run and bring up the execution backend."""
        self._run_started = time.perf_counter()
        self.timings = RunTimings()
        if not (self._owns_executor or self.executor.running):
            self.executor.start(self.fragments)
            self._owns_executor = True

    def finish_run(self) -> RunTimings:
        """Close the run, shut down a backend it started and return the timings.

        Safe to call from a ``finally`` block: a second call is a no-op that
        returns the already-closed timings.
        """
        if self._run_started is not None:
            self.timings.wall_time = time.perf_counter() - self._run_started
            self._run_started = None
        if self._owns_executor:
            self.executor.shutdown()
            self._owns_executor = False
        return self.timings

    def run_round(
        self,
        worker_fn: Callable[[WorkerContext, object], object],
        payloads: Sequence[object] | None = None,
        coordinator_fn: Callable[[list[object]], object] | None = None,
    ) -> object:
        """Run one BSP round.

        *worker_fn* is applied to every fragment's context with the matching
        entry of *payloads* (``None`` payloads when omitted) — the
        "computation" phase; *coordinator_fn* receives the list of worker
        results (the "barrier synchronisation" phase) and its return value is
        the round's result.
        """
        if self._run_started is None:
            self.start_run()
        if payloads is None:
            payloads = [None] * len(self.fragments)
        if len(payloads) != len(self.fragments):
            raise ValueError(
                f"expected {len(self.fragments)} payloads, got {len(payloads)}"
            )
        tasks = [
            WorkerTask(worker_fn, fragment.index, payload)
            for fragment, payload in zip(self.fragments, payloads)
        ]
        worker_results, durations, metrics = self.executor.run(tasks)
        merge_shipped_counts(registry(), metrics)
        coordinator_started = time.perf_counter()
        outcome: object = worker_results
        if coordinator_fn is not None:
            outcome = coordinator_fn(worker_results)
        coordinator_elapsed = time.perf_counter() - coordinator_started
        self.timings.rounds.append(
            RoundTiming(
                round_index=len(self.timings.rounds),
                worker_times=tuple(durations),
                coordinator_time=coordinator_elapsed,
            )
        )
        return outcome
