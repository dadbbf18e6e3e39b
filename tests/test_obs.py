"""The :mod:`repro.obs` observability layer, end to end.

Covers the three cooperating pieces of docs/observability.md:

* the metrics registry — counter/gauge/histogram families, Prometheus text
  exposition, and the ``snapshot()``/``merge()`` composition that makes
  histogram merging associative (hypothesis-checked);
* the span tracer — deterministic ids, per-thread parent stacks, worker
  record adoption, the JSON-lines round-trip, and the module-level no-op
  fast path used when nothing is installed;
* cross-process statistics collection — the ``snapshot()``/``merge()``
  protocol on the four ``*Statistics`` dataclasses, watermarked deltas,
  and the headline contract: a processes-backend DMine run reports the
  **same aggregate matching counters** as a sequential run of the same
  configuration.

A traced streaming tick is pinned against the acceptance criterion that
coordinator and worker phases appear in one tree whose summed child time
never exceeds its parent span's time.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import generate_gpars, most_frequent_predicates, synthetic_graph
from repro.mining import DMineConfig, dmine
from repro.obs import (
    MetricsRegistry,
    Tracer,
    active,
    collect_process_metrics,
    disable_collection,
    enable_collection,
    install,
    load_trace,
    merge_worker_metrics,
    override_tracer,
    parse_prometheus,
    quantile_from_buckets,
    registry,
    reset_collection,
    span,
    top_report,
    trace_breakdown,
    tracing_enabled,
    uninstall,
)
from repro.obs.tracing import NOOP_SPAN


@pytest.fixture(autouse=True)
def _pristine_observability():
    """Every test starts and ends with observability fully off."""
    uninstall()
    disable_collection()
    reset_collection()
    registry().reset()
    yield
    uninstall()
    disable_collection()
    reset_collection()
    registry().reset()


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counters_accumulate_per_label_set(self):
        reg = MetricsRegistry()
        reg.inc("requests_total", route="/a", method="GET")
        reg.inc("requests_total", 2, route="/a", method="GET")
        reg.inc("requests_total", route="/b", method="GET")
        assert reg.counter_value("requests_total", route="/a", method="GET") == 3
        assert reg.counter_value("requests_total", route="/b", method="GET") == 1
        assert reg.counter_value("requests_total", route="/c", method="GET") == 0
        assert reg.counter_value("absent_total") == 0

    def test_label_names_are_fixed_at_family_creation(self):
        reg = MetricsRegistry()
        reg.inc("requests_total", route="/a")
        with pytest.raises(ValueError, match="expects labels"):
            reg.inc("requests_total", method="GET")

    def test_kind_conflicts_rejected(self):
        reg = MetricsRegistry()
        reg.inc("thing")
        with pytest.raises(ValueError, match="is a counter"):
            reg.set_gauge("thing", 1.0)

    def test_gauges_overwrite(self):
        reg = MetricsRegistry()
        reg.set_gauge("sessions", 3)
        reg.set_gauge("sessions", 1)
        assert reg.snapshot()["sessions"]["series"][()] == 1

    def test_histogram_buckets_and_quantiles(self):
        reg = MetricsRegistry()
        for value in (0.0005, 0.003, 0.003, 0.2, 99.0):
            reg.observe("latency_seconds", value)
        text = reg.render()
        samples = parse_prometheus(text)
        buckets = samples["latency_seconds_bucket"]
        # Cumulative counts, ending in +Inf == count.
        by_le = {labels["le"]: count for labels, count in buckets}
        assert by_le["0.001"] == 1
        assert by_le["0.005"] == 3
        assert by_le["+Inf"] == 5
        assert samples["latency_seconds_count"][0][1] == 5
        assert samples["latency_seconds_sum"][0][1] == pytest.approx(99.2065)
        assert quantile_from_buckets(buckets, 0.5) == 0.005
        assert math.isinf(quantile_from_buckets(buckets, 0.99))

    def test_render_is_valid_prometheus_text(self):
        reg = MetricsRegistry()
        reg.inc("a_total", 2, help="a counter")
        reg.set_gauge("b", 1.5, session='s"1\n')
        reg.observe("c_seconds", 0.3)
        text = reg.render()
        assert "# TYPE a_total counter" in text
        assert "# HELP a_total a counter" in text
        assert "# TYPE b gauge" in text
        assert "# TYPE c_seconds histogram" in text
        assert '\\"' in text and "\\n" in text  # label escaping
        parsed = parse_prometheus(text)
        assert parsed["a_total"] == [({}, 2.0)]
        assert parsed["b"][0][0] == {"session": 's"1\n'}

    def test_parse_prometheus_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_prometheus("what even is this line")

    def test_clear_drops_one_family_series(self):
        reg = MetricsRegistry()
        reg.set_gauge("per_session", 1, session="a")
        reg.inc("kept_total")
        reg.clear("per_session")
        reg.clear("never_existed")  # no-op, not an error
        assert reg.snapshot()["per_session"]["series"] == {}
        assert reg.counter_value("kept_total") == 1

    def test_snapshot_merge_counters_add_gauges_overwrite(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.inc("a_total", 2)
        left.set_gauge("g", 1)
        right.inc("a_total", 3)
        right.set_gauge("g", 7)
        left.merge(right.snapshot())
        assert left.counter_value("a_total") == 5
        assert left.snapshot()["g"]["series"][()] == 7

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(0, 20), max_size=30),
        st.lists(st.floats(0, 20), max_size=30),
        st.lists(st.floats(0, 20), max_size=30),
    )
    def test_histogram_merge_is_associative(self, a, b, c):
        """(A ⊕ B) ⊕ C == A ⊕ (B ⊕ C): exact on bucket counts, approximate
        on the float sums."""

        def observed(values):
            reg = MetricsRegistry()
            for value in values:
                reg.observe("h_seconds", value)
                reg.inc("n_total")
            return reg

        regs = [observed(values) for values in (a, b, c)]

        left = MetricsRegistry()
        left.merge(regs[0].snapshot())
        left.merge(regs[1].snapshot())
        left.merge(regs[2].snapshot())

        bc = MetricsRegistry()
        bc.merge(regs[1].snapshot())
        bc.merge(regs[2].snapshot())
        right = MetricsRegistry()
        right.merge(regs[0].snapshot())
        right.merge(bc.snapshot())

        left_series = left.snapshot().get("h_seconds", {}).get("series", {})
        right_series = right.snapshot().get("h_seconds", {}).get("series", {})
        assert set(left_series) == set(right_series)
        for key, series in left_series.items():
            other = right_series[key]
            assert series["counts"] == other["counts"]
            assert series["count"] == other["count"]
            assert series["sum"] == pytest.approx(other["sum"])
        assert left.counter_value("n_total") == right.counter_value("n_total")
        assert left.counter_value("n_total") == len(a) + len(b) + len(c)


# ----------------------------------------------------------------------
# span tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_nesting_and_deterministic_ids(self):
        tracer = Tracer()
        with tracer.span("outer", phase=1) as outer:
            with tracer.span("inner") as inner:
                inner.set(rows=3)
            assert outer.elapsed >= 0.0
        records = tracer.records()
        assert [r["name"] for r in records] == ["inner", "outer"]
        inner_rec, outer_rec = records
        assert outer_rec["span_id"] == "s1" and inner_rec["span_id"] == "s2"
        assert inner_rec["parent_id"] == "s1" and outer_rec["parent_id"] is None
        assert outer_rec["attrs"] == {"phase": 1}
        assert inner_rec["attrs"] == {"rows": 3}
        assert inner_rec["duration"] <= outer_rec["duration"]
        assert inner_rec["start"] >= outer_rec["start"]

    def test_event_is_a_zero_duration_span(self):
        tracer = Tracer()
        with tracer.span("tick"):
            tracer.event("checkpoint", fragment=2)
        checkpoint = tracer.records()[0]
        assert checkpoint["name"] == "checkpoint"
        assert checkpoint["duration"] == 0.0
        assert checkpoint["parent_id"] == "s1"
        assert checkpoint["attrs"] == {"fragment": 2}

    def test_adopt_reparents_and_prefixes(self):
        worker = Tracer()
        with worker.span("worker.verify"):
            with worker.span("index.refresh"):
                pass
        coordinator = Tracer()
        with coordinator.span("round") as round_span:
            coordinator.adopt(
                worker.records(), parent_id=round_span.span_id, prefix="t1.w0."
            )
        adopted = {r["span_id"]: r for r in coordinator.records()}
        verify = adopted["t1.w0.s1"]
        refresh = adopted["t1.w0.s2"]
        assert verify["parent_id"] == "s1"  # root re-parented under the round
        assert refresh["parent_id"] == "t1.w0.s1"  # subtree intact
        # The resulting tree renders as one breakdown with the worker phases
        # nested below the coordinator's round.
        breakdown = trace_breakdown(coordinator.records())
        assert "round" in breakdown and "worker.verify" in breakdown

    def test_jsonl_round_trip_is_lossless(self, tmp_path):
        tracer = Tracer()
        with tracer.span("tick", batch=1):
            tracer.event("migration", centers=2)
        path = tracer.dump_jsonl(tmp_path / "trace.jsonl")
        assert load_trace(path) == tracer.records()

    def test_module_helpers_are_noop_without_tracer(self):
        assert not tracing_enabled()
        with span("anything", x=1) as handle:
            assert handle is NOOP_SPAN
            assert handle.set(y=2) is NOOP_SPAN
            assert handle.elapsed == 0.0

    def test_install_and_override_precedence(self):
        installed = Tracer()
        overriding = Tracer()
        install(installed)
        try:
            assert active() is installed
            with override_tracer(overriding):
                assert active() is overriding
                with span("routed"):
                    pass
                # ``None`` masks the installed tracer for this thread.
                with override_tracer(None):
                    assert not tracing_enabled()
            assert active() is installed
        finally:
            uninstall()
        assert [r["name"] for r in overriding.records()] == ["routed"]
        assert installed.records() == []

    def test_trace_breakdown_empty(self):
        assert trace_breakdown([]) == "empty trace\n"


# ----------------------------------------------------------------------
# statistics snapshot/merge + cross-process collection
# ----------------------------------------------------------------------
class TestStatisticsProtocol:
    def _all_statistics(self):
        from repro.graph.columnar import ColumnarStatistics
        from repro.matching.base import MatchStatistics
        from repro.matching.incremental import StoreStatistics

        return [
            MatchStatistics,
            ColumnarStatistics,
            StoreStatistics,
        ]

    def test_every_statistics_class_snapshots_and_merges(self):
        for cls in self._all_statistics():
            stats = cls()
            snap = stats.snapshot()
            assert snap and all(value == 0 for value in snap.values())
            first = next(iter(snap))
            setattr(stats, first, 3)
            other = cls()
            other.merge(stats)  # from an instance
            other.merge(stats.snapshot())  # and from a plain dict
            assert getattr(other, first) == 6

    def test_collection_ships_each_increment_exactly_once(self):
        from repro.matching.base import MatchStatistics

        enable_collection()
        stats = MatchStatistics()
        stats.candidates_considered = 5
        delta = collect_process_metrics()
        assert delta["match.candidates_considered"] == 5
        assert collect_process_metrics() is None  # watermarked: no re-ship
        stats.candidates_considered += 2
        assert collect_process_metrics() == {"match.candidates_considered": 2}

    def test_disabled_collection_registers_nothing(self):
        from repro.matching.base import MatchStatistics

        stats = MatchStatistics()
        stats.candidates_considered = 9
        assert collect_process_metrics() is None
        del stats

    def test_merge_worker_metrics_folds_into_counters(self):
        reg = MetricsRegistry()
        merge_worker_metrics(
            reg,
            [
                {"match.candidates_considered": 4},
                None,
                {"match.candidates_considered": 2, "index.builds": 1},
            ],
        )
        assert reg.counter_value("repro_match_candidates_considered_total") == 6
        assert reg.counter_value("repro_index_builds_total") == 1

    def test_reset_collection_clears_watermarks(self):
        from repro.matching.base import MatchStatistics

        enable_collection()
        stats = MatchStatistics()
        stats.candidates_considered = 5
        collect_process_metrics()
        del stats
        reset_collection()
        fresh = MatchStatistics()
        fresh.candidates_considered = 2
        # Without the reset the old watermark (5) would swallow this delta.
        assert collect_process_metrics() == {"match.candidates_considered": 2}


class TestCrossBackendCounters:
    """A processes-backend run must aggregate like a sequential one."""

    @pytest.fixture(scope="class")
    def workload(self):
        graph = synthetic_graph(200, 600, num_node_labels=6, num_edge_labels=4, seed=9)
        predicate = most_frequent_predicates(graph, top=1)[0]
        return graph, predicate

    def _mine_counters(self, graph, predicate, backend):
        reset_collection()
        registry().reset()
        enable_collection()
        try:
            dmine(
                graph,
                predicate,
                DMineConfig(
                    k=3,
                    d=2,
                    sigma=2,
                    num_workers=3,
                    max_edges=2,
                    backend=backend,
                    # The fragment match stores' hit rates depend on pool
                    # routing (a cold process re-matches in full), so pin
                    # the pool to one process: every fragment's store then
                    # sees the in-process hit sequence and the matching
                    # counters are the deterministic aggregate this test
                    # pins — still shipped across the process boundary.
                    executor_workers=1,
                ),
            )
        finally:
            disable_collection()
        return registry().counters("repro_match_")

    def test_processes_report_identical_match_counters(self, workload):
        graph, predicate = workload
        sequential = self._mine_counters(graph, predicate, "sequential")
        processes = self._mine_counters(graph, predicate, "processes")
        assert sequential and any(sequential.values())
        assert processes == sequential

    @staticmethod
    def _tick_counters(backend):
        """``repro_match_*`` after one served tick (``Match``'s statistics die
        with each verification, so they travel on the fragment reports)."""
        from repro import api
        from repro.datasets import pokec_like
        from repro.identification import EIPConfig
        from repro.stream import random_update_batch

        graph = pokec_like(40, 3, seed=7)
        predicate = api.parse_predicate("user:like_book:personal development")
        rules = generate_gpars(graph, predicate, count=6, max_pattern_edges=3, d=2, seed=5)
        reset_collection()
        registry().reset()
        enable_collection()
        try:
            config = EIPConfig(eta=0.5, num_workers=2, backend=backend, executor_workers=1)
            with api.open_session(graph, rules, config=config) as session:
                registry().reset()  # the tick alone, not the initial verification
                session.apply(random_update_batch(session.core.graph, size=6, seed=1))
        finally:
            disable_collection()
        return registry().counters("repro_match_")

    def test_streaming_tick_surfaces_match_counters_on_every_backend(self):
        sequential = self._tick_counters("sequential")
        processes = self._tick_counters("processes")
        for name in ("candidates_considered", "prefix_pool_hits"):
            assert sequential[f"repro_match_{name}_total"] > 0
        assert processes == sequential


# ----------------------------------------------------------------------
# traced streaming tick (the acceptance criterion)
# ----------------------------------------------------------------------
class TestTracedStreamingTick:
    def test_tick_tree_covers_coordinator_and_worker_phases(self):
        from repro.identification import EIPConfig
        from repro.stream import StreamingIdentifier, random_update_batch

        graph = synthetic_graph(120, 380, num_node_labels=5, num_edge_labels=3, seed=3)
        predicate = most_frequent_predicates(graph, top=1)[0]
        rules = generate_gpars(
            graph, predicate, count=4, max_pattern_edges=3, d=2, seed=3
        )
        tracer = install(Tracer())
        try:
            with StreamingIdentifier(
                graph, rules, config=EIPConfig(eta=0.5, num_workers=2)
            ) as identifier:
                batch = random_update_batch(graph, size=6, seed=31)
                identifier.apply(batch)
        finally:
            uninstall()
        records = tracer.records()
        by_id = {record["span_id"]: record for record in records}
        names = {record["name"] for record in records}
        # Coordinator phases of the tick...
        assert {
            "stream.tick",
            "stream.apply_batch",
            "stream.slice_build",
            "stream.verify",
            "stream.assemble",
        } <= names
        # ...and adopted worker phases in the same tree.
        assert "stream.worker.verify" in names
        ticks = [r for r in records if r["name"] == "stream.tick"]
        assert len(ticks) == 1
        # Every span's children sum to no more than the span itself.
        children_total: dict[str, float] = {}
        for record in records:
            parent = record["parent_id"]
            if parent:
                children_total[parent] = (
                    children_total.get(parent, 0.0) + record["duration"]
                )
        for span_id, total in children_total.items():
            assert total <= by_id[span_id]["duration"] + 1e-6
        # Worker spans hang off a coordinator verify phase: the __init__
        # round adopts under stream.initial_verify, the tick under
        # stream.verify (which itself sits below the tick root).
        verify = next(r for r in records if r["name"] == "stream.verify")
        initial = next(r for r in records if r["name"] == "stream.initial_verify")
        worker_roots = [
            r for r in records if r["name"] == "stream.worker.verify"
        ]
        assert worker_roots
        adoption_points = {verify["span_id"], initial["span_id"]}
        assert {r["parent_id"] for r in worker_roots} <= adoption_points
        assert any(r["parent_id"] == verify["span_id"] for r in worker_roots)
        assert verify["parent_id"] == ticks[0]["span_id"]

    def test_tick_keeps_the_benchmark_instrument_names(self):
        """The names ``benchmarks/e2e/layers.py`` reads off a traced tick.

        One resident structure reports its delta and sketch-cache work under
        the historic ``repro_index_*`` names, its filters under
        ``repro_columnar_*``, and its one refresh per stale fragment inside
        a ``stream.worker.index_refresh`` span.
        """
        from repro.identification import EIPConfig
        from repro.stream import StreamingIdentifier, random_update_batch

        graph = synthetic_graph(300, 900, num_node_labels=5, num_edge_labels=3, seed=3)
        predicate = most_frequent_predicates(graph, top=1)[0]
        rules = generate_gpars(
            graph, predicate, count=4, max_pattern_edges=3, d=2, seed=3
        )
        enable_collection()
        tracer = install(Tracer())
        try:
            with StreamingIdentifier(
                graph, rules, config=EIPConfig(eta=0.5, num_workers=2)
            ) as identifier:
                for seed in (31, 32):
                    identifier.apply(random_update_batch(graph, size=4, seed=seed))
        finally:
            uninstall()
            disable_collection()
        counters = {
            name: registry().counter_value(name)
            for name in (
                "repro_index_delta_applies_total",
                "repro_index_sketches_built_total",
                "repro_columnar_row_filters_total",
            )
        }
        assert all(value > 0 for value in counters.values()), counters
        records = tracer.records()
        refreshes = [r for r in records if r["name"] == "stream.worker.index_refresh"]
        assert refreshes
        inner = [r for r in records if r["name"].endswith(".refresh")]
        assert {r["name"] for r in inner} == {"columnar.refresh"}
        # One refresh per stale fragment per tick, each under its wrapper.
        assert sorted(r["parent_id"] for r in inner) == sorted(
            r["span_id"] for r in refreshes
        )


# ----------------------------------------------------------------------
# report rendering
# ----------------------------------------------------------------------
class TestTopReport:
    def test_renders_health_sessions_and_latency(self):
        reg = MetricsRegistry()
        reg.inc("repro_http_requests_total", 4, method="GET", route="/healthz", status=200)
        for value in (0.001, 0.002, 0.2):
            reg.observe(
                "repro_http_request_seconds", value, method="GET", route="/healthz"
            )
        reg.inc("repro_stream_ticks_total", 2)
        report = top_report(
            "http://127.0.0.1:1",
            {
                "ok": True,
                "sessions": 1,
                "resident_nodes": 42,
                "oldest_retained_version": 7,
            },
            {
                "sessions": [
                    {
                        "session": "abc123",
                        "graph": "synthetic",
                        "algorithm": "match",
                        "graph_version": 9,
                        "identified": 4,
                        "batches_applied": 2,
                    }
                ]
            },
            reg.render(),
        )
        assert "repro top" in report
        assert "abc123" in report
        assert "/healthz" in report
        assert "42" in report
        assert "matching:" not in report  # nothing verified yet: no matching row

    def test_matching_row_shows_the_witness_hit_ratio(self):
        reg = MetricsRegistry()
        reg.inc("repro_stream_ticks_total", 3)
        reg.inc("repro_match_witness_hits_total", 170)
        reg.inc("repro_match_matches_found_total", 30)
        reg.inc("repro_match_witness_invalidated_total", 12)
        reg.inc("repro_match_candidates_considered_total", 400)
        reg.inc("repro_tenant_admissions_total", 2)
        report = top_report("http://127.0.0.1:1", {"ok": True}, {}, reg.render())
        (row,) = [line for line in report.splitlines() if line.startswith("matching:")]
        assert "200 positive verdicts" in row and "85% by a kept witness" in row
        assert "12 invalidated" in row and "400 candidates considered" in row
        lines = report.splitlines()
        assert lines.index("stream:") < lines.index(row) < lines.index("tenants:")

    def test_matching_row_counts_profile_verdicts_as_positives(self):
        reg = MetricsRegistry()
        reg.inc("repro_match_witness_hits_total", 50)
        reg.inc("repro_match_matches_found_total", 25)
        reg.inc("repro_match_profile_matches_total", 25)
        report = top_report("http://127.0.0.1:1", {"ok": True}, {}, reg.render())
        (row,) = [line for line in report.splitlines() if line.startswith("matching:")]
        assert "100 positive verdicts" in row and "50% by a kept witness" in row
        assert "25% by the anchor's profile" in row
