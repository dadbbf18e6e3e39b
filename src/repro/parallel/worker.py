"""Worker-side execution context and the process-pool task runner.

The process backend keeps a **persistent** pool for a whole BSP run: each
worker process receives the fragment list exactly once, at pool start, via
the :func:`init_worker` initializer which stores them in a module-level
registry.  Every subsequent round ships only a small picklable
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
that survives across rounds for the lifetime of the pool; like the structure,
a match store is fragment-resident and never pickled — it fills during
evaluation and a cold worker simply falls back to full matching.  Because a pool may route any fragment's task to any
of its processes, worker functions must treat that state strictly as a
cache: anything stored there has to be *deterministically reconstructible*
from the fragment and the payload, so a cache miss in a different process
yields identical results.  Cross-round algorithm state therefore lives at
the coordinator and travels inside payloads.
"""

from __future__ import annotations

import gc
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.obs.stats import StatisticsBase, collect_process_metrics
from repro.partition.fragment import Fragment

# Registry populated once per worker process by ``init_worker``.
_FRAGMENTS: dict[int, Fragment] = {}
_CONTEXTS: dict[int, "WorkerContext"] = {}

#: Status tags of the tuples :func:`run_task` sends back to the parent.
TASK_OK = "ok"
TASK_ERROR = "error"


@dataclass
class WorkerStatistics(StatisticsBase):
    """A pool process's cold start (``repro_pool_*_total``): counted by
    :func:`init_worker` and shipped like any statistics, with the process's
    first task."""

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


def init_worker(fragments: Sequence[Fragment], build_resident: bool = True) -> None:
    """Pool initializer: install *fragments* in this process's registry.

    With *build_resident* (the default) each fragment's resident
    :class:`~repro.graph.columnar.ColumnarFragment` is looked up here, once
    per worker process, so every round's matching work starts warm: a
    view inherited by fork is found built, any other is compiled.  It counts
    itself in a :class:`WorkerStatistics`.
    """
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
