"""The ``snapshot()``/``merge()`` protocol and cross-process collection.

:class:`StatisticsBase` is the mixin behind every ``*Statistics`` dataclass
(:class:`~repro.matching.base.MatchStatistics`,
:class:`~repro.graph.columnar.ColumnarStatistics`,
:class:`~repro.matching.incremental.StoreStatistics`): ``snapshot()`` is a
plain field dict, ``merge()`` adds one field-wise — replacing the ad-hoc
hand-written accumulation those classes and their consumers used to carry.

On top of the protocol sits *collection*: when enabled (the ``REPRO_OBS``
environment flag, inherited by pool processes at fork/spawn), every
statistics instance registers a weak reference at construction; at each
task boundary :func:`collect_process_metrics` sums the live instances'
snapshots per kind and returns the **delta since the previous collection**
(a per-field watermark under one lock, so tasks of sessions ticking at once
on the HTTP service's thread pool never double-count — every unit of work is
counted exactly once
process-wide).  The executor ships that delta back with the task result and
the coordinator folds it into the global registry as
``repro_<kind>_<field>_total`` counters via :func:`merge_worker_metrics` —
which is what makes a processes-backend run report the same aggregate
counters as a sequential one.

When collection is disabled (the default) nothing registers and nothing is
walked: construction cost is one environment lookup.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import weakref
from typing import Iterable

from repro.obs.registry import MetricsRegistry

__all__ = [
    "StatisticsBase",
    "collect_process_metrics",
    "collection_enabled",
    "disable_collection",
    "enable_collection",
    "merge_worker_metrics",
    "register_collector",
    "reset_collection",
]

#: Environment flag gating statistics collection; exported (not just kept in
#: process memory) so worker pools inherit the setting at fork/spawn time.
ENV_FLAG = "REPRO_OBS"

_FALSEY = ("", "0", "off", "false", "no")

_lock = threading.Lock()
_collectors: list[tuple[str, weakref.ref]] = []
_watermarks: dict[tuple[str, str], float] = {}


def collection_enabled() -> bool:
    """Whether statistics instances register for cross-process collection."""
    return os.environ.get(ENV_FLAG, "").strip().lower() not in _FALSEY


def enable_collection() -> None:
    """Turn collection on for this process and any pool it starts later."""
    os.environ[ENV_FLAG] = "1"


def disable_collection() -> None:
    """Turn collection off (already-registered instances stop being walked
    only once garbage collected; their totals stop shipping immediately)."""
    os.environ[ENV_FLAG] = "0"


def reset_collection() -> None:
    """Forget every registered collector and watermark.

    Watermarks survive the collectors they tracked: a *new* run in the same
    process starts its totals from zero and would see its early increments
    swallowed by the previous run's high-water marks.  Tests and benchmark
    runners call this between runs so each one ships full counts.
    """
    with _lock:
        _collectors.clear()
        _watermarks.clear()


def register_collector(kind: str, stats: "StatisticsBase") -> None:
    """Track *stats* (weakly) under *kind* for process-total collection."""
    ref = weakref.ref(stats)
    with _lock:
        _collectors.append((kind, ref))
        # Amortized pruning keeps a long-lived process from accumulating
        # dead references across many runs.
        if len(_collectors) % 256 == 0:
            _collectors[:] = [entry for entry in _collectors if entry[1]() is not None]


def collect_process_metrics() -> dict[str, float] | None:
    """Delta of live-collector totals since the last call, or ``None``.

    Keys are ``"<kind>.<field>"``.  Totals are watermarked per field: the
    caller gets each increment exactly once, however many threads collect.
    A collector garbage-collected between calls takes its not-yet-collected
    tail with it (the watermark stays put until totals grow past it again) —
    deterministic and identical across backends, since task boundaries are
    collection points and task-live collectors are always reachable.
    """
    with _lock:
        totals: dict[tuple[str, str], float] = {}
        alive: list[tuple[str, weakref.ref]] = []
        for kind, ref in _collectors:
            stats = ref()
            if stats is None:
                continue
            alive.append((kind, ref))
            field_kinds = stats._field_kinds
            for name, value in stats.snapshot().items():
                key = (field_kinds.get(name, kind), name)
                totals[key] = totals.get(key, 0) + value
        _collectors[:] = alive
        delta: dict[str, float] = {}
        for key, value in totals.items():
            previous = _watermarks.get(key, 0)
            if value > previous:
                delta[f"{key[0]}.{key[1]}"] = value - previous
                _watermarks[key] = value
        return delta or None


def merge_worker_metrics(
    registry: MetricsRegistry, metrics: Iterable[dict | None]
) -> None:
    """Fold shipped per-task deltas into *registry* as ``repro_*_total``."""
    for delta in metrics:
        if not delta:
            continue
        for key, value in delta.items():
            kind, _, field = key.partition(".")
            registry.inc(
                f"repro_{kind}_{field}_total",
                value,
                help=f"total {field.replace('_', ' ')} across all {kind} statistics",
            )


class StatisticsBase:
    """Mixin giving a counter dataclass the snapshot/merge protocol.

    Subclasses set ``_metric_kind`` (the registry/collection namespace) and
    stay plain ``@dataclass``-es of integer counter fields; the generated
    ``__init__`` calls :meth:`__post_init__`, which registers the instance
    for collection when the ``REPRO_OBS`` flag is on.
    """

    _metric_kind = "stats"
    #: ``field -> kind`` for counters published under another namespace than
    #: ``_metric_kind`` (a merged class keeping the metric names of its parts).
    _field_kinds = {}

    def __post_init__(self) -> None:
        if collection_enabled():
            register_collector(self._metric_kind, self)

    def snapshot(self) -> dict[str, float]:
        """Plain picklable ``{field: value}`` dict of every counter."""
        names = type(self).__dict__.get("_snapshot_fields")
        if names is None:
            # Cached per concrete class: snapshot() runs at every task
            # boundary while collection is on, and dataclass reflection is
            # too slow for that loop.
            names = tuple(field.name for field in dataclasses.fields(self))
            type(self)._snapshot_fields = names
        return {name: getattr(self, name) for name in names}

    def merge(self, other) -> None:
        """Accumulate counters from another instance (or a snapshot dict)."""
        values = other.snapshot() if hasattr(other, "snapshot") else other
        for name, value in values.items():
            setattr(self, name, getattr(self, name) + value)
