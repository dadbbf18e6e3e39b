"""Text rendering over traces and metrics: ``repro trace`` / ``repro top``.

Pure functions over already-fetched data — the CLI owns I/O.  Includes a
small parser for the Prometheus text exposition produced by
:meth:`repro.obs.registry.MetricsRegistry.render` (and served at
``GET /metrics``), used both by ``repro top`` and by the tests' scrape
round-trip assertions.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping

__all__ = [
    "parse_prometheus",
    "quantile_from_buckets",
    "top_report",
    "trace_breakdown",
]

_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$")
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape(value: str) -> str:
    return value.replace('\\"', '"').replace("\\n", "\n").replace("\\\\", "\\")


def parse_prometheus(text: str) -> dict[str, list[tuple[dict[str, str], float]]]:
    """Parse Prometheus text exposition into ``{name: [(labels, value)]}``.

    Histogram series appear under their ``_bucket``/``_sum``/``_count``
    sample names, exactly as exposed.  Raises ``ValueError`` on a line that
    is neither a comment nor a well-formed sample — the tests use that
    strictness as the scrape round-trip gate.
    """
    out: dict[str, list[tuple[dict[str, str], float]]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError(f"malformed exposition line: {line!r}")
        name, label_text, raw = match.groups()
        labels = {
            key: _unescape(value) for key, value in _LABEL.findall(label_text or "")
        }
        value = float("inf") if raw == "+Inf" else float(raw)
        out.setdefault(name, []).append((labels, value))
    return out


def quantile_from_buckets(
    samples: Iterable[tuple[Mapping[str, str], float]], q: float
) -> float | None:
    """Estimate quantile *q* from one series' ``_bucket`` samples.

    Returns the upper bound of the first bucket whose cumulative count
    reaches ``q * total`` (the usual Prometheus-side estimate), or ``None``
    when the series is empty.
    """
    buckets = sorted(
        ((float(labels["le"]) if labels["le"] != "+Inf" else float("inf")), count)
        for labels, count in samples
        if "le" in labels
    )
    if not buckets:
        return None
    total = buckets[-1][1]
    if total <= 0:
        return None
    threshold = q * total
    for bound, cumulative in buckets:
        if cumulative >= threshold:
            return bound
    return buckets[-1][0]


# ----------------------------------------------------------------------
# repro trace
# ----------------------------------------------------------------------
def _span_paths(records: list[dict]) -> dict[tuple[str, ...], list[float]]:
    """Aggregate span durations by their root→leaf name path."""
    by_id = {record["span_id"]: record for record in records}
    durations: dict[tuple[str, ...], list[float]] = {}
    for record in records:
        names: list[str] = []
        seen: set[str] = set()
        cursor: dict | None = record
        while cursor is not None and cursor["span_id"] not in seen:
            names.append(cursor["name"])
            seen.add(cursor["span_id"])
            parent_id = cursor.get("parent_id")
            cursor = by_id.get(parent_id) if parent_id else None
        path = tuple(reversed(names))
        durations.setdefault(path, []).append(record["duration"])
    return durations


def trace_breakdown(records: list[dict]) -> str:
    """Render a per-phase time breakdown of a span trace as a text tree.

    Spans aggregate by their name path (all ``stream.tick → stream.verify``
    spans fold into one row); every row shows call count, total seconds,
    mean, and share of the trace's root time.
    """
    if not records:
        return "empty trace\n"
    durations = _span_paths(records)
    root_total = sum(
        sum(values) for path, values in durations.items() if len(path) == 1
    )
    lines = [
        f"{len(records)} spans, {len(durations)} distinct phases, "
        f"root time {root_total:.3f}s",
        f"{'phase':<48} {'count':>7} {'total_s':>9} {'mean_ms':>9} {'share':>7}",
    ]

    def render(prefix: tuple[str, ...], depth: int) -> None:
        children = sorted(
            (
                (path, values)
                for path, values in durations.items()
                if len(path) == depth + 1 and path[:depth] == prefix
            ),
            key=lambda item: -sum(item[1]),
        )
        for path, values in children:
            total = sum(values)
            share = (total / root_total) if root_total else 0.0
            label = "  " * depth + path[-1]
            lines.append(
                f"{label:<48} {len(values):>7} {total:>9.3f} "
                f"{1000 * total / len(values):>9.3f} {share:>6.1%}"
            )
            render(path, depth + 1)

    render((), 0)
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# repro top
# ----------------------------------------------------------------------
def top_report(url: str, healthz: dict, sessions: dict, metrics_text: str) -> str:
    """One-shot ``top``-style text report over a running ``repro serve``."""
    metrics = parse_prometheus(metrics_text)
    lines = [f"repro top — {url}"]
    lines.append(
        "health: {} sessions={} resident_nodes={} oldest_retained_version={}".format(
            "ok" if healthz.get("ok") else "DOWN",
            healthz.get("sessions", "?"),
            healthz.get("resident_nodes", "?"),
            healthz.get("oldest_retained_version", "-"),
        )
    )
    session_docs = sessions.get("sessions", [])
    if session_docs:
        lines.append("sessions:")
        for doc in session_docs:
            lines.append(
                "  {session:<6} graph={graph} algo={algorithm} version={graph_version} "
                "identified={identified} batches={batches_applied}".format(**doc)
            )
    requests = metrics.get("repro_http_requests_total", [])
    if requests:
        lines.append("http requests:")
        latency_buckets = metrics.get("repro_http_request_seconds_bucket", [])
        by_route: dict[tuple[str, str], float] = {}
        for labels, value in requests:
            key = (labels.get("method", "?"), labels.get("route", "?"))
            by_route[key] = by_route.get(key, 0) + value
        for (method, route), count in sorted(by_route.items(), key=lambda kv: -kv[1]):
            series = [
                (labels, value)
                for labels, value in latency_buckets
                if labels.get("method") == method and labels.get("route") == route
            ]
            p50 = quantile_from_buckets(series, 0.50)
            p99 = quantile_from_buckets(series, 0.99)
            quantiles = ""
            if p50 is not None:
                quantiles = f"  p50<={1000 * p50:g}ms p99<={1000 * p99:g}ms"
            lines.append(f"  {method:<6} {route:<32} {int(count):>7}{quantiles}")
    def total(name: str) -> float:
        return sum(value for _labels, value in metrics.get(name, ()))

    def section(title: str, prefixes: tuple[str, ...]) -> None:
        names = sorted(name for name in metrics if name.startswith(prefixes))
        if names:
            lines.append(f"{title}:")
            lines.extend(f"  {name:<44} {total(name):g}" for name in names)

    section("stream", ("repro_stream_",))
    hits, searched = total("repro_match_witness_hits_total"), total("repro_match_matches_found_total")
    profiled = total("repro_match_profile_matches_total")
    positives = hits + searched + profiled
    if positives:
        lines.append(
            f"matching: {positives:g} positive verdicts, {hits / positives:.0%} "
            f"by a kept witness ({total('repro_match_witness_invalidated_total'):g} invalidated), "
            f"{profiled / positives:.0%} by the anchor's profile, "
            f"{total('repro_match_candidates_considered_total'):g} candidates considered"
        )
    section("tenants", ("repro_tenant_", "repro_shared_cores"))
    return "\n".join(lines) + "\n"
