"""Worker-side execution context and the process-pool task runner.

The process backend keeps a **persistent** pool for a whole BSP run: each
worker process receives the fragment list exactly once, at pool start, via
the :func:`init_worker` initializer which stores them in a module-level
registry.  Every subsequent round ships only a small picklable
``(worker_fn, fragment_id, payload)`` descriptor — never the graph — and the
worker resolves ``fragment_id`` against its local registry.

The initializer also compiles each fragment's resident
:class:`repro.graph.columnar.ColumnarFragment` (label buckets, profile
matrix, sketch cache) unless the solver opted out, so the
matching hot path probes a warm structure that lives with the fragment for
the pool's lifetime and never crosses the pickle boundary.

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

import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.obs.stats import collect_process_metrics, collection_enabled
from repro.partition.fragment import Fragment

# Registry populated once per worker process by ``init_worker``.
_FRAGMENTS: dict[int, Fragment] = {}
_CONTEXTS: dict[int, "WorkerContext"] = {}
# This process's cold start, shipped with its first task's metrics delta.
_COLD_START: dict[str, float] = {}

#: Status tags of the tuples :func:`run_task` sends back to the parent.
TASK_OK = "ok"
TASK_ERROR = "error"


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
    :class:`~repro.graph.columnar.ColumnarFragment` is compiled here, once
    per worker process, so every round's matching work starts warm.  It
    times itself and notes whether the compile had to import numpy (a forked
    child inherits the parent's): ``pool.init_seconds`` and
    ``pool.numpy_imports``, shipped by the process's first task.
    """
    started, had_numpy = time.perf_counter(), "numpy" in sys.modules
    from repro.graph.columnar import columnar_view

    _FRAGMENTS.clear()
    _CONTEXTS.clear()
    for fragment in fragments:
        _FRAGMENTS[fragment.index] = fragment
        if build_resident:
            columnar_view(fragment.graph)
    _COLD_START.update({
        "pool.init_seconds": time.perf_counter() - started,
        "pool.numpy_imports": int(not had_numpy and "numpy" in sys.modules),
    })


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

    ``metrics`` is the process's watermarked statistics delta
    (:func:`repro.obs.stats.collect_process_metrics`) when ``REPRO_OBS``
    collection is on, else ``None`` — the coordinator merges the shipped
    deltas into its global registry so process-pool runs aggregate exactly
    like sequential ones.

    The duration is measured *around the worker function only*, so the
    simulated parallel-time accounting excludes pool dispatch and IPC.
    """
    try:
        context = context_for(fragment_id)
        started = time.perf_counter()
        result = worker_fn(context, payload)
        elapsed = time.perf_counter() - started
        metrics = None
        if collection_enabled():
            metrics = {**(collect_process_metrics() or {}), **_COLD_START} or None
            _COLD_START.clear()
        return (TASK_OK, result, elapsed, metrics)
    except Exception:
        return (TASK_ERROR, traceback.format_exc(), 0.0, None)
