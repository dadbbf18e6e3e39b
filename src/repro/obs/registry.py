"""Process-wide metrics registry: counters, gauges and histograms.

One :class:`MetricsRegistry` (usually the process-global one returned by
:func:`registry`) holds named metric *families*; a family fans out into
*series* keyed by label values, exactly like the Prometheus data model the
:meth:`MetricsRegistry.render` exposition follows.  Three kinds exist:

* **counter** — monotonically increasing totals (``*_total`` by convention);
* **gauge** — point-in-time values, overwritten at will;
* **histogram** — observation counts over *fixed* bucket boundaries chosen
  at family creation, plus a running sum and count.

:meth:`MetricsRegistry.snapshot` produces a plain picklable dict of every
family.  Counts cross processes as ``*Statistics`` deltas
(:func:`repro.obs.stats.merge_shipped_counts`), not as registry snapshots.

The process-global registry pulls on read: :meth:`snapshot` and
:meth:`render` first fold in the statistics this process counted and
nobody collected yet (:mod:`repro.obs.stats`).

Everything is guarded by one registry-level lock; individual increments are
a dict lookup plus an integer add, cheap enough for per-round and
per-request call sites (per-candidate hot loops keep using the plain
``*Statistics`` dataclasses, which this registry absorbs when it is read).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Iterable, Mapping

from repro.obs.stats import collect_process_metrics, merge_shipped_counts

__all__ = [
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
    "registry",
]

#: Default histogram bucket upper bounds (seconds), chosen for HTTP/round
#: latencies: sub-millisecond reads through multi-second verification ticks.
DEFAULT_BUCKETS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_KINDS = ("counter", "gauge", "histogram")


class _Histogram:
    """One histogram series: cumulative-free bucket counts + sum + count."""

    __slots__ = ("counts", "sum", "count")

    def __init__(self, num_buckets: int) -> None:
        # counts[i] observations fell in bucket i; the trailing slot is +Inf.
        self.counts = [0] * (num_buckets + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, boundaries: tuple[float, ...], value: float) -> None:
        self.counts[bisect_left(boundaries, value)] += 1
        self.sum += value
        self.count += 1


class _Family:
    """One named metric family: kind, help, label names, series by values."""

    __slots__ = ("name", "kind", "help", "labelnames", "buckets", "series")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: tuple[str, ...],
        buckets: tuple[float, ...] | None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = labelnames
        self.buckets = buckets
        self.series: dict[tuple, object] = {}


def _label_values(family: _Family, labels: Mapping[str, object]) -> tuple:
    if tuple(sorted(labels)) != tuple(sorted(family.labelnames)):
        raise ValueError(
            f"metric {family.name!r} expects labels {sorted(family.labelnames)}, "
            f"got {sorted(labels)}"
        )
    return tuple(str(labels[name]) for name in family.labelnames)


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class MetricsRegistry:
    """A named collection of counter/gauge/histogram families (see module)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    # ------------------------------------------------------------------
    # family declaration / lookup
    # ------------------------------------------------------------------
    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Iterable[str],
        buckets: tuple[float, ...] | None = None,
    ) -> _Family:
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = _Family(
                name, kind, help, tuple(labelnames), buckets
            )
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {family.kind}, not a {kind}"
            )
        return family

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1, help: str = "", **labels) -> None:
        """Add *amount* to the counter series ``name{**labels}``."""
        with self._lock:
            family = self._family(name, "counter", help, sorted(labels))
            key = _label_values(family, labels)
            family.series[key] = family.series.get(key, 0) + amount

    def set_gauge(self, name: str, value: float, help: str = "", **labels) -> None:
        """Set the gauge series ``name{**labels}`` to *value*."""
        with self._lock:
            family = self._family(name, "gauge", help, sorted(labels))
            family.series[_label_values(family, labels)] = value

    def observe(
        self,
        name: str,
        value: float,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels,
    ) -> None:
        """Record *value* into the histogram series ``name{**labels}``."""
        with self._lock:
            family = self._family(name, "histogram", help, sorted(labels), tuple(buckets))
            key = _label_values(family, labels)
            series = family.series.get(key)
            if series is None:
                series = family.series[key] = _Histogram(len(family.buckets))
            series.observe(family.buckets, value)

    def _pull_uncollected(self) -> None:
        """The global registry's reads first take in this process's counts."""
        if self is _GLOBAL:
            merge_shipped_counts(self, [collect_process_metrics()])

    # ------------------------------------------------------------------
    # snapshot / merge
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Picklable copy of every family: feed to :meth:`merge`."""
        self._pull_uncollected()
        with self._lock:
            out: dict = {}
            for family in self._families.values():
                series: dict = {}
                for key, value in family.series.items():
                    if family.kind == "histogram":
                        series[key] = {
                            "counts": list(value.counts),
                            "sum": value.sum,
                            "count": value.count,
                        }
                    else:
                        series[key] = value
                out[family.name] = {
                    "kind": family.kind,
                    "help": family.help,
                    "labelnames": family.labelnames,
                    "buckets": family.buckets,
                    "series": series,
                }
            return out

    def clear(self, name: str) -> None:
        """Drop every series of family *name* (stale labelled gauges).

        Gauge families whose label sets track live objects — per-session
        gauges on the serving path — are cleared and re-set on each scrape,
        so closed sessions do not linger as frozen series.
        """
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                family.series.clear()

    # ------------------------------------------------------------------
    # exposition
    # ------------------------------------------------------------------
    def render(self) -> str:
        """Prometheus text exposition (version 0.0.4) of the whole registry."""
        self._pull_uncollected()
        lines: list[str] = []
        with self._lock:
            for name in sorted(self._families):
                family = self._families[name]
                if family.help:
                    lines.append(f"# HELP {name} {family.help}")
                lines.append(f"# TYPE {name} {family.kind}")
                for key in sorted(family.series):
                    value = family.series[key]
                    pairs = [
                        f'{label}="{_escape(text)}"'
                        for label, text in zip(family.labelnames, key)
                    ]
                    if family.kind == "histogram":
                        cumulative = 0
                        bounds = list(family.buckets) + [float("inf")]
                        for bound, count in zip(bounds, value.counts):
                            cumulative += count
                            bucket_pairs = pairs + [f'le="{_format_value(bound)}"']
                            lines.append(
                                f"{name}_bucket{{{','.join(bucket_pairs)}}} {cumulative}"
                            )
                        suffix = f"{{{','.join(pairs)}}}" if pairs else ""
                        lines.append(f"{name}_sum{suffix} {_format_value(value.sum)}")
                        lines.append(f"{name}_count{suffix} {value.count}")
                    else:
                        suffix = f"{{{','.join(pairs)}}}" if pairs else ""
                        lines.append(f"{name}{suffix} {_format_value(value)}")
        return "\n".join(lines) + "\n"


_GLOBAL = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-global registry every subsystem records into."""
    return _GLOBAL
