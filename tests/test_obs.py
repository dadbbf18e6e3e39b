"""The :mod:`repro.obs` observability layer, end to end.

Covers the three cooperating pieces of docs/observability.md:

* the metrics registry — counter/gauge/histogram families, Prometheus text
  exposition, and the ``snapshot()``/``merge()`` composition that makes
  histogram merging associative (hypothesis-checked);
* the span tracer — deterministic ids, per-thread parent stacks, worker
  record adoption, the JSON-lines round-trip, and the module-level no-op
  fast path used when nothing is installed;
* statistics collection — the ``snapshot()``/``merge()`` protocol on the
  ``*Statistics`` dataclasses, every count shipped exactly once (by a dead
  object too, under merges and concurrent collectors), the global registry
  pulling on read, and the headline contract: a processes-backend run
  reports the **same aggregate counters** as a sequential run of the same
  configuration (with a pool of one process).

A traced streaming tick is pinned against the acceptance criterion that
coordinator and worker phases appear in one tree whose summed child time
never exceeds its parent span's time.
"""

from __future__ import annotations

import gc
import math
import sys
import threading

from dataclasses import dataclass

import pytest

from repro.datasets import generate_gpars, most_frequent_predicates, synthetic_graph
from repro.mining import DMineConfig, dmine
from repro.obs import (
    MetricsRegistry,
    StatisticsBase,
    Tracer,
    active,
    collect_process_metrics,
    enable_collection,
    install,
    load_trace,
    merge_shipped_counts,
    parse_prometheus,
    quantile_from_buckets,
    registry,
    span,
    top_report,
    trace_breakdown,
    uninstall,
)
from repro.obs.tracing import NOOP_SPAN
from repro.testing import counter_value, counters, disable_collection, reset_metrics


@pytest.fixture(autouse=True)
def _pristine_observability():
    """Every test starts and ends with observability fully off."""
    uninstall()
    disable_collection()
    reset_metrics(registry())
    yield
    uninstall()
    disable_collection()
    reset_metrics(registry())


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counters_accumulate_per_label_set(self):
        reg = MetricsRegistry()
        reg.inc("requests_total", route="/a", method="GET")
        reg.inc("requests_total", 2, route="/a", method="GET")
        reg.inc("requests_total", route="/b", method="GET")
        assert counter_value(reg, "requests_total", route="/a", method="GET") == 3
        assert counter_value(reg, "requests_total", route="/b", method="GET") == 1
        assert counter_value(reg, "requests_total", route="/c", method="GET") == 0
        assert counter_value(reg, "absent_total") == 0

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
        assert counter_value(reg, "kept_total") == 1


# ----------------------------------------------------------------------
# span tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_nesting_and_deterministic_ids(self):
        tracer = Tracer()
        with tracer.span("outer", phase=1) as outer:
            with tracer.span("inner") as inner:
                inner.set(rows=3)
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

    def test_jsonl_round_trip_is_lossless(self, tmp_path):
        tracer = Tracer()
        with tracer.span("tick", batch=1):
            tracer.event("migration", centers=2)
        path = tracer.dump_jsonl(tmp_path / "trace.jsonl")
        assert load_trace(path) == tracer.records()

    def test_module_helpers_are_noop_without_tracer(self):
        assert active() is None
        with span("anything", x=1) as handle:
            assert handle is NOOP_SPAN
            assert handle.set(y=2) is NOOP_SPAN

    def test_install_and_override_precedence(self):
        installed = Tracer()
        install(installed)
        try:
            assert active() is installed
            with span("routed"):
                pass
        finally:
            assert uninstall() is installed
        assert active() is None
        assert [r["name"] for r in installed.records()] == ["routed"]

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
        assert collect_process_metrics() is None  # no re-ship
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
        merge_shipped_counts(
            reg,
            [
                {"match.candidates_considered": 4},
                None,
                {"match.candidates_considered": 2, "index.builds": 1},
            ],
        )
        assert counter_value(reg, "repro_match_candidates_considered_total") == 6
        assert counter_value(reg, "repro_index_builds_total") == 1

    def test_a_successor_ships_in_full_without_a_reset(self):
        from repro.matching.base import MatchStatistics

        enable_collection()
        stats = MatchStatistics()
        stats.candidates_considered = 100
        collect_process_metrics()
        del stats
        successor = MatchStatistics()
        successor.candidates_considered = 50
        # A high-water mark of 100 swallowed all 50.
        assert collect_process_metrics() == {"match.candidates_considered": 50}

    def test_a_dead_object_ships_its_tail(self):
        from repro.matching.base import MatchStatistics

        enable_collection()
        stats = MatchStatistics()
        stats.states_expanded = 3
        collect_process_metrics()
        stats.states_expanded += 4
        del stats
        assert collect_process_metrics() == {"match.states_expanded": 4}

    def test_merge_moves_counts(self):
        from repro.matching.base import MatchStatistics

        enable_collection()
        outer, inner = MatchStatistics(), MatchStatistics()
        inner.states_expanded = 5
        assert collect_process_metrics() == {"match.states_expanded": 5}
        inner.states_expanded += 2
        outer.merge(inner)
        del inner
        outer.states_expanded += 1
        assert outer.states_expanded == 8
        assert collect_process_metrics() == {"match.states_expanded": 3}
        assert collect_process_metrics() is None

    def test_the_global_registry_pulls_on_read(self):
        from repro.matching.base import MatchStatistics

        enable_collection()
        stats = MatchStatistics()
        stats.backtracks = 2
        assert counter_value(registry(), "repro_match_backtracks_total") == 2
        stats.backtracks += 1
        assert "repro_match_backtracks_total 3" in registry().render()
        stats.backtracks += 4
        reset_metrics(registry())  # drops what it pulls
        assert counters(registry(), "repro_match_") == {}
        assert collect_process_metrics() is None
        assert counters(MetricsRegistry()) == {}  # another registry pulls nothing

    def test_threads_creating_dropping_and_collecting_ship_exact_totals(self):
        from repro.matching.base import MatchStatistics

        enable_collection()
        collected: list = []
        kept: list = []
        start = threading.Barrier(4)

        def work(seed: int) -> None:
            outer = MatchStatistics()
            start.wait()
            for round_ in range(300):
                # Each object dies when the next replaces it: unshipped, or
                # after a ship mid-count; every seventh lives to the end, and
                # every fourth hands its count to ``outer`` first.
                stats = MatchStatistics()
                for _ in range(seed + 1):
                    stats.states_expanded += 1
                    if round_ % 3 == 0:
                        collected.append(collect_process_metrics())
                if round_ % 4 == 0:
                    outer.merge(stats)
                if round_ % 7 == 0:
                    kept.append(stats)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        gc.collect()
        collected.append(collect_process_metrics())
        shipped = sum((delta or {}).get("match.states_expanded", 0) for delta in collected)
        assert shipped == 300 * (1 + 2 + 3 + 4)


class TestCrossBackendCounters:
    """A processes-backend run must aggregate like a sequential one."""

    @pytest.fixture(scope="class")
    def workload(self):
        graph = synthetic_graph(200, 600, num_node_labels=6, num_edge_labels=4, seed=9)
        predicate = most_frequent_predicates(graph, top=1)[0]
        return graph, predicate

    def _mine_counters(self, graph, predicate, backend):
        reset_metrics(registry())
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
        return counters(registry(), "repro_match_")

    def test_processes_report_identical_match_counters(self, workload):
        graph, predicate = workload
        sequential = self._mine_counters(graph, predicate, "sequential")
        processes = self._mine_counters(graph, predicate, "processes")
        assert sequential and any(sequential.values())
        assert processes == sequential

    @staticmethod
    def _tick_counters(backend):
        """``repro_match_*`` after one served tick (``Match``'s statistics die
        with each verification: their tails ship all the same)."""
        from repro import api
        from repro.datasets import pokec_like
        from repro.identification import EIPConfig
        from repro.stream import random_update_batch

        graph = pokec_like(40, 3, seed=7)
        predicate = api.parse_predicate("user:like_book:personal development")
        rules = generate_gpars(graph, predicate, count=6, max_pattern_edges=3, d=2, seed=5)
        reset_metrics(registry())
        enable_collection()
        try:
            config = EIPConfig(eta=0.5, num_workers=2, backend=backend, executor_workers=1)
            with api.open_session(graph, rules, config=config) as session:
                reset_metrics(registry())  # the tick alone, not the initial verification
                session.apply(random_update_batch(session.core.graph, size=6, seed=1))
        finally:
            disable_collection()
        return counters(registry(), "repro_match_")

    @pytest.mark.parametrize("backend", ["sequential", "processes"])
    def test_a_warm_identify_reports_its_reused_fragmentation(self, backend):
        """The partition counters and the span's ``reused`` attribute; the
        resident compiles are counted once, by the coordinator, on both
        backends (a forked worker inherits the views, not their counts)."""
        from repro import api
        from repro.identification import EIPConfig

        graph = synthetic_graph(120, 360, num_node_labels=5, num_edge_labels=3, seed=4)
        predicate = most_frequent_predicates(graph, top=1)[0]
        rules = generate_gpars(graph, predicate, count=4, max_pattern_edges=3, d=2, seed=5)
        config = EIPConfig(eta=0.5, num_workers=2, backend=backend, executor_workers=1)
        tracer = install(Tracer())
        enable_collection()
        for _ in range(2):
            api.identify(graph, rules, config)
        disable_collection()
        partitions = [record for record in tracer.records() if record["name"] == "eip.partition"]
        assert [record["attrs"]["reused"] for record in partitions] == [False, True]
        assert counters(registry(), "repro_partition_") == {
            "repro_partition_built_total": 1,
            "repro_partition_reused_total": 1,
        }
        assert counter_value(registry(), "repro_columnar_builds_total") == 2

    def test_streaming_tick_surfaces_match_counters_on_every_backend(self):
        sequential = self._tick_counters("sequential")
        processes = self._tick_counters("processes")
        for name in ("candidates_considered", "prefix_pool_hits"):
            assert sequential[f"repro_match_{name}_total"] > 0
        assert processes == sequential


@dataclass
class _Probe(StatisticsBase):
    """Counts nothing but what a test sets: a marker for one count's path."""

    _metric_kind = "probe"

    pending: int = 0


class TestOneChannel:
    """Every run ships all it counted, whatever ran before it in the process
    and on either backend; a forked pool never ships its parent's counts."""

    KINDS = ("repro_match_", "repro_index_", "repro_columnar_", "repro_store_")

    @pytest.fixture(scope="class")
    def workload(self):
        from repro import api
        from repro.datasets import pokec_like

        graph = pokec_like(40, 3, seed=7)
        predicate = api.parse_predicate("user:like_book:personal development")
        rules = generate_gpars(graph, predicate, count=6, max_pattern_edges=3, d=2, seed=5)
        return graph, predicate, rules

    def _moved(self, run) -> dict:
        """The counters *run* moved, with collection on."""
        reset_metrics(registry())
        enable_collection()
        try:
            run()
        finally:
            disable_collection()
        moved: dict = {}
        for kind in self.KINDS:
            moved.update(counters(registry(), kind))
        return moved

    @staticmethod
    def _session(workload, backend="sequential"):
        from repro import api
        from repro.identification import EIPConfig
        from repro.stream import random_update_batch

        graph, _predicate, rules = workload
        config = EIPConfig(eta=0.5, num_workers=2, backend=backend, executor_workers=1)
        with api.open_session(graph.copy(), rules, config=config) as session:
            session.apply(random_update_batch(session.core.graph, size=6, seed=1))

    @staticmethod
    def _mine(workload, backend="sequential"):
        from repro import api

        graph, predicate, _rules = workload
        api.mine(graph, predicate, DMineConfig(
            k=2, sigma=2, max_edges=2, num_workers=2, backend=backend, executor_workers=1,
        ))

    @staticmethod
    def _identify(workload, backend="sequential"):
        from repro import api
        from repro.identification import EIPConfig

        graph, _predicate, rules = workload
        config = EIPConfig(eta=0.5, num_workers=2, backend=backend, executor_workers=1)
        api.identify(graph.copy(), rules, config)

    def test_identical_sessions_move_equal_counters(self, workload):
        runs = [self._moved(lambda: self._session(workload)) for _ in range(3)]
        assert runs[0]["repro_index_sketches_built_total"] > 0
        assert runs[0] == runs[1] == runs[2]

    def test_identical_mines_move_equal_counters(self, workload):
        runs = [self._moved(lambda: self._mine(workload)) for _ in range(3)]
        assert runs[0]["repro_store_delta_extensions_total"] > 0
        assert runs[0] == runs[1] == runs[2]

    def test_a_mixed_sequence_counts_alike_on_both_backends(self, workload):
        def mixed(backend):
            self._session(workload, backend)
            self._identify(workload, backend)
            self._mine(workload, backend)

        sequential = self._moved(lambda: mixed("sequential"))
        processes = self._moved(lambda: mixed("processes"))
        assert sequential["repro_columnar_builds_total"] > 0
        assert processes == sequential

    @pytest.mark.parametrize("run", ["_mine", "_session"])
    def test_pools_do_not_reship_the_coordinators_pending_counts(self, workload, run):
        reset_metrics(registry())
        enable_collection()
        try:
            alive = _Probe(pending=7)
            _Probe(pending=5)  # dies at once: its tail waits in the queue
            getattr(self, run)(workload, "processes")
        finally:
            disable_collection()
        assert counter_value(registry(), "repro_probe_pending_total") == 12
        del alive


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
            name: counter_value(registry(), name)
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
