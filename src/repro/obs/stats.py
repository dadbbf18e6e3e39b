"""The ``snapshot()``/``merge()`` protocol and the one collection channel.

:class:`StatisticsBase` is the mixin behind every ``*Statistics`` dataclass
(:class:`~repro.matching.base.MatchStatistics`,
:class:`~repro.graph.columnar.ColumnarStatistics`,
:class:`~repro.matching.incremental.StoreStatistics`): ``snapshot()`` is a
plain field dict, ``merge()`` adds one field-wise.

On top sits *collection*, which ships every count exactly once.  When the
``REPRO_OBS`` environment flag is on (pool processes inherit it), a
statistics object registers at construction and remembers what it has
shipped; :func:`collect_process_metrics` returns what every registered object
counted since it last shipped.  An object that dies first leaves its
unshipped tail behind, and ``merge()`` moves counts (the source is marked
shipped for what it handed over), so no count depends on how long its object
lived and none ships twice.  Counts reach a registry one way: the global
registry pulls this process's on read (:mod:`repro.obs.registry`), and a pool
worker ships its own with each task result, merged by
:func:`merge_shipped_counts`.  A forked process drops what it inherited:
those counts are its parent's to ship.

``REPRO_OBS`` decides only whether new objects register; off (the default),
construction costs one environment lookup.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import weakref
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from repro.obs.registry import MetricsRegistry

__all__ = [
    "StatisticsBase",
    "collect_process_metrics",
    "collection_enabled",
    "enable_collection",
    "merge_shipped_counts",
]

#: Environment flag gating statistics collection; exported (not just kept in
#: process memory) so worker pools inherit the setting at fork/spawn time.
ENV_FLAG = "REPRO_OBS"

_FALSEY = ("", "0", "off", "false", "no")

_lock = threading.Lock()
#: ``id(values) -> (((field, "kind.field"), ...), values, shipped)`` per
#: registered object; ``values`` is its ``__dict__``, which outlives it.
_live: dict[int, tuple[tuple, dict, dict]] = {}
#: Keys of entries whose object died, appended by a finalizer without the
#: lock: the garbage collector may run it inside a collection.
_dead: list[int] = []
#: Dead objects' tails, drained from ``_live``, not yet collected.
_pending: dict[str, float] = {}


def collection_enabled() -> bool:
    """Whether new statistics instances register for collection."""
    return os.environ.get(ENV_FLAG, "").strip().lower() not in _FALSEY


def enable_collection() -> None:
    """Turn collection on for this process and any pool it starts later."""
    os.environ[ENV_FLAG] = "1"


def _ship(entry: tuple, out: dict[str, float]) -> None:
    keys, values, shipped = entry
    for name, key in keys:
        value = values[name]
        if value != shipped[name]:
            out[key] = out.get(key, 0) + value - shipped[name]
            shipped[name] = value


def _drain() -> None:
    """Move dead objects' tails to ``_pending`` (the caller holds the lock)."""
    while _dead:
        _ship(_live.pop(_dead.pop()), _pending)


def collect_process_metrics() -> dict[str, float] | None:
    """``{"<kind>.<field>": count}`` counted in this process since the last
    call, or ``None``: each increment once, however many threads collect."""
    global _pending
    with _lock:
        _drain()
        for entry in _live.values():
            _ship(entry, _pending)
        delta, _pending = _pending, {}
    return delta or None


def _drop_inherited() -> None:
    """In a forked child: replace the lock (a parent thread may have held it
    across the fork) and mark everything inherited shipped."""
    global _lock
    _lock = threading.Lock()
    collect_process_metrics()


if hasattr(os, "register_at_fork"):  # POSIX; elsewhere pools spawn
    os.register_at_fork(after_in_child=_drop_inherited)


def merge_shipped_counts(
    registry: "MetricsRegistry", metrics: Iterable[dict | None]
) -> None:
    """Fold collected counts into *registry* as ``repro_<kind>_<field>_total``."""
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
        if not collection_enabled():
            return
        values, names = self.__dict__, self._fields()
        kinds = self._field_kinds
        keys = tuple((name, f"{kinds.get(name, self._metric_kind)}.{name}") for name in names)
        weakref.finalize(self, _dead.append, id(values)).atexit = False
        with _lock:
            _live[id(values)] = (keys, values, dict.fromkeys(names, 0))
            if len(_dead) >= 256:  # bounded in a process that never collects
                _drain()

    @classmethod
    def _fields(cls) -> tuple[str, ...]:
        names = cls.__dict__.get("_snapshot_fields")
        if names is None:  # cached per class: dataclass reflection is slow
            names = cls._snapshot_fields = tuple(field.name for field in dataclasses.fields(cls))
        return names

    def snapshot(self) -> dict[str, float]:
        """Plain picklable ``{field: value}`` dict of every counter."""
        return {name: getattr(self, name) for name in self._fields()}

    def merge(self, other) -> None:
        """Accumulate counters from another instance (or a snapshot dict).

        From an instance the counts move: what *other* had shipped counts as
        shipped here, and *other* ships none of them again.
        """
        values = other.snapshot() if isinstance(other, StatisticsBase) else other
        with _lock:
            for name, value in values.items():
                setattr(self, name, getattr(self, name) + value)
            target = _live.get(id(self.__dict__))
            source = _live.get(id(other.__dict__)) if isinstance(other, StatisticsBase) else None
            if target is not None and source is not None:
                for name, _ in source[0]:
                    target[2][name] += source[2][name]
                    source[2][name] = values[name]
