"""Unified observability: metrics registry, span tracing, stats collection.

Three cooperating pieces (full model in ``docs/observability.md``):

* :mod:`repro.obs.registry` — process-wide counters/gauges/histograms with
  ``snapshot()``/``merge()`` composition and Prometheus text exposition;
* :mod:`repro.obs.tracing` — deterministic-id span tracer with a module
  level no-op fallback and JSON-lines dumps;
* :mod:`repro.obs.stats` — the snapshot/merge protocol of the
  ``*Statistics`` dataclasses plus collection (``REPRO_OBS``): every object
  ships what it counted exactly once, pulled by the global registry on read
  or shipped by a pool worker with its task result.

Instrumentation is off the hot path when disabled: no tracer installed
means :func:`span` costs a global read; collection disabled means
statistics construction costs one environment lookup.  The ``obs`` smoke
gate holds the enabled overhead to ≤5 %.
"""

from repro.obs.registry import DEFAULT_BUCKETS, MetricsRegistry, registry
from repro.obs.report import (
    parse_prometheus,
    quantile_from_buckets,
    top_report,
    trace_breakdown,
)
from repro.obs.stats import (
    StatisticsBase,
    collect_process_metrics,
    collection_enabled,
    enable_collection,
    merge_shipped_counts,
)
from repro.obs.tracing import (
    Tracer,
    active,
    event,
    install,
    load_trace,
    span,
    uninstall,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
    "StatisticsBase",
    "Tracer",
    "active",
    "collect_process_metrics",
    "collection_enabled",
    "enable_collection",
    "event",
    "install",
    "load_trace",
    "merge_shipped_counts",
    "parse_prometheus",
    "quantile_from_buckets",
    "registry",
    "span",
    "top_report",
    "trace_breakdown",
    "uninstall",
]
