"""Unified observability: metrics registry, span tracing, stats collection.

Three cooperating pieces (full model in ``docs/observability.md``):

* :mod:`repro.obs.registry` — process-wide counters/gauges/histograms with
  ``snapshot()``/``merge()`` composition and Prometheus text exposition;
* :mod:`repro.obs.tracing` — deterministic-id span tracer with a module
  level no-op fallback, JSON-lines dumps and worker-span adoption;
* :mod:`repro.obs.stats` — the snapshot/merge protocol of the four
  ``*Statistics`` dataclasses plus watermarked cross-process collection
  (``REPRO_OBS``), shipped per task and merged coordinator-side.

Instrumentation is off the hot path when disabled: no tracer installed
means :func:`span` costs a thread-local read; collection disabled means
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
    disable_collection,
    enable_collection,
    merge_worker_metrics,
    register_collector,
    reset_collection,
)
from repro.obs.tracing import (
    Tracer,
    active,
    event,
    install,
    load_trace,
    override_tracer,
    span,
    tracing_enabled,
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
    "disable_collection",
    "enable_collection",
    "event",
    "install",
    "load_trace",
    "merge_worker_metrics",
    "override_tracer",
    "parse_prometheus",
    "quantile_from_buckets",
    "register_collector",
    "registry",
    "reset_collection",
    "span",
    "top_report",
    "trace_breakdown",
    "tracing_enabled",
    "uninstall",
]
