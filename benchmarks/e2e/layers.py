"""Per-layer attribution from the traced pass.

Layers are the ``src/repro`` packages.  A traced run yields a span forest
(the server's, or this process's for the batch workload), the ``/metrics``
scrape and whatever the responses reported; this module turns them into
the ``per_layer`` metrics of ``BENCHMARK.json``.

Timing attribution is expressed as **shares** (``%``) of the workload's
blocking wall time *D* — the writer's summed round trips on a serving
workload, ``mine + Σ identify`` on the batch one — because a layer a
workload never enters has an exact share of 0 there, while the few
absolute times kept (``*_ms``) are of operations every workload performs.
A layer's share is the summed **self time** of its spans (duration minus
direct children) inside the trees that block *D*; the nine
``<layer>.self_share`` values add up to 100 %.  Multiply a share by the
traced ``obs.traced_refresh_total_ms`` to get milliseconds back.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from repro.obs import parse_prometheus

LAYERS = ("serve", "api", "stream", "partition", "parallel", "graph", "matching", "identification", "mining")

#: name → unit of every per-layer metric, in reporting order.
PER_LAYER: dict[str, str] = {
    **{f"{layer}.self_share": "%" for layer in LAYERS},
    # serve
    "serve.http_share": "%",
    "serve.handler_share": "%",
    "serve.codec_share": "%",
    "serve.bytes_in": "bytes",
    "serve.bytes_out": "bytes",
    "serve.read_late_frac": "ratio",
    "serve.resync_410": "count",
    "serve.keepalive_reuses": "count",
    # api
    "api.answer_share": "%",
    "api.open_share": "%",
    # stream
    "stream.tick_share": "%",
    "stream.apply_batch_share": "%",
    "stream.slice_build_share": "%",
    "stream.verify_share": "%",
    "stream.assemble_share": "%",
    "stream.project_share": "%",
    "stream.rechecked_centers": "count",
    "stream.verifications": "count",
    "stream.touched_nodes": "count",
    "stream.region_nodes": "count",
    "stream.changed_ticks": "count",
    "stream.union_rules": "count",
    "stream.shared_prefix_hits": "count",
    "stream.backfill_centers": "count",
    # partition
    "partition.derive_batch_share": "%",
    "partition.partition_graph_ms": "ms",
    "partition.resident_nodes": "count",
    "partition.replication": "ratio",
    "partition.entered_nodes": "count",
    "partition.shed_nodes": "count",
    "partition.migrated_centers": "count",
    "partition.compacted_fragments": "count",
    # parallel
    "parallel.run_round_ms": "ms",
    "parallel.round_overhead_share": "%",
    "parallel.rounds": "count",
    "parallel.worker_skew": "ratio",
    "parallel.simulated_speedup": "ratio",
    # graph
    "graph.index_refresh_share": "%",
    "graph.columnar_refresh_share": "%",
    "graph.ball_share": "%",
    "graph.index_delta_applies": "count",
    "graph.index_sketches_built": "count",
    "graph.columnar_row_filters": "count",
    "graph.columnar_mask_filters": "count",
    # matching
    "matching.worker_verify_share": "%",
    "matching.candidates_examined": "count",
    "matching.prefix_pool_hits": "count",
    # identification / mining
    "identification.partition_share": "%",
    "identification.verify_share": "%",
    "identification.assemble_share": "%",
    "identification.answer_entities": "count",
    "identification.accepted_rules": "count",
    "mining.propose_share": "%",
    "mining.evaluate_share": "%",
    "mining.rounds": "count",
    "mining.candidates_generated": "count",
    "mining.candidates_pruned": "count",
    "mining.rules_discovered": "count",
    # the instrument itself
    "obs.traced_refresh_p50_ms": "ms",
    "obs.traced_refresh_total_ms": "ms",
    "obs.spans": "count",
    "datasets.generate_ms": "ms",
    "e2e.refresh_hi_ms": "ms",
    "e2e.observe_hi_ms": "ms",
}


def layer_of(name: str) -> str:
    """The ``src/repro`` package a span's time belongs to."""
    if name.startswith("stream.worker.verify"):
        return "matching"
    if name.startswith(("stream.worker.index_refresh", "stream.worker.columnar_refresh", "index.", "columnar.")):
        return "graph"
    if name.startswith(("stream.worker.catch_up", "lifecycle.")):
        return "partition"
    if name.startswith("eip."):
        return "identification"
    if name.startswith("dmine."):
        return "mining"
    return name.split(".", 1)[0]


class SpanForest:
    """Span records indexed for self-time and subtree queries."""

    def __init__(self, records: list[dict]) -> None:
        self.records = records
        self.by_id = {record["span_id"]: record for record in records}
        self.children: dict[str | None, list[dict]] = defaultdict(list)
        for record in records:
            self.children[record["parent_id"]].append(record)
        self._reparent_workers()

    def _reparent_workers(self) -> None:
        """Hang adopted worker spans under the round that ran them.

        ``StreamingIdentifier`` adopts shipped worker spans under
        ``stream.verify``; on the sequential backend they ran *inside* the
        ``parallel.run_round`` child of that span, so leaving them as its
        siblings would subtract the same interval twice.
        """
        for parent_id, kids in list(self.children.items()):
            rounds = [kid for kid in kids if kid["name"] == "parallel.run_round"]
            workers = [kid for kid in kids if kid["name"].startswith("stream.worker.")]
            if len(rounds) == 1 and workers:
                self.children[parent_id] = [kid for kid in kids if kid not in workers]
                self.children[rounds[0]["span_id"]].extend(workers)

    def self_time(self, record: dict) -> float:
        covered = sum(child["duration"] for child in self.children.get(record["span_id"], ()))
        return max(0.0, record["duration"] - covered)

    def roots(self, name: str) -> list[dict]:
        """Spans called *name* that no span of the same thread encloses."""
        return [record for record in self.records if record["name"] == name and record["parent_id"] is None]

    def subtree(self, roots: list[dict]) -> list[dict]:
        out: list[dict] = []
        frontier = list(roots)
        while frontier:
            record = frontier.pop()
            out.append(record)
            frontier.extend(self.children.get(record["span_id"], ()))
        return out

    def total(self, records: list[dict], *names: str) -> float:
        return sum(record["duration"] for record in records if record["name"] in names)

    def layer_self(self, records: list[dict]) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for record in records:
            out[layer_of(record["name"])] += self.self_time(record)
        return out


def _counter(prom: dict, name: str, **labels: str) -> float:
    return sum(
        value
        for sample_labels, value in prom.get(name, ())
        if all(sample_labels.get(key) == wanted for key, wanted in labels.items())
    )


def _share(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0


def _mean_ms(records: list[dict], name: str) -> float:
    durations = [record["duration"] for record in records if record["name"] == name]
    return statistics.mean(durations) * 1000.0 if durations else 0.0


def blank() -> dict[str, float]:
    return {name: 0.0 for name in PER_LAYER}


UPDATES_ROUTE = "/sessions/{session_id}/updates"


def serve_layers(run, records: list[dict], hi: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced serving run (``run`` is a ``ServeRun``)."""
    out = blank()
    forest = SpanForest(records)
    prom = parse_prometheus(run.prometheus) if run.prometheus else {}
    ticks = run.ticks
    total = sum(tick.done - tick.sent for tick in ticks)  # D, seconds
    tick_roots = forest.roots("api.apply")
    tree = forest.subtree(tick_roots)
    in_session = sum(root["duration"] for root in tick_roots)
    handler = _counter(prom, "repro_http_request_seconds_sum", route=UPDATES_ROUTE)

    by_layer = forest.layer_self(tree)
    by_layer["serve"] += max(0.0, total - in_session)
    for layer in LAYERS:
        out[f"{layer}.self_share"] = _share(by_layer.get(layer, 0.0), total)

    # serve
    out["serve.http_share"] = _share(total - handler, total)
    out["serve.handler_share"] = _share(handler, total)
    if tick_roots:
        window = (min(r["start"] for r in tick_roots), max(r["start"] + r["duration"] for r in tick_roots))
        codec = sum(
            record["duration"]
            for record in records
            if record["name"] in ("serve.decode", "serve.encode") and window[0] <= record["start"] <= window[1]
        )
        out["serve.codec_share"] = _share(codec, total)
    out["serve.bytes_in"] = float(run.bytes_out)  # the server's inbound is the writer's outbound
    out["serve.bytes_out"] = float(run.bytes_in)
    reads = run.reads
    if reads.late_ms:
        out["serve.read_late_frac"] = sum(1 for late in reads.late_ms if late > 1.0) / len(reads.late_ms)
    out["serve.resync_410"] = float(reads.resync_410)
    out["serve.keepalive_reuses"] = _counter(prom, "repro_http_keepalive_reuses_total")

    # api
    if reads.latencies_ms:
        answered = sum(root["duration"] for root in forest.roots("api.answer"))
        out["api.answer_share"] = _share(answered * 1000.0, sum(reads.latencies_ms) + sum(run.idle_read_ms))
    opened = sum(root["duration"] for name in ("api.open_session", "api.admit") for root in forest.roots(name))
    out["api.open_share"] = _share(opened, run.open_wall_s)

    # stream
    for phase in ("tick", "apply_batch", "slice_build", "verify", "assemble"):
        out[f"stream.{phase}_share"] = _share(forest.total(tree, f"stream.{phase}"), total)
    out["stream.project_share"] = _share(forest.total(tree, "stream.tenant_project"), total)
    # a shared core verifies the distinct canonical antecedents: every admission's novel ones
    union_rules = sum(a.get("novel_rules", 0) for a in run.admissions) or len(run.rule_names)
    rechecked = sum(tick.report["rechecked_centers"] for tick in ticks)
    out["stream.rechecked_centers"] = float(rechecked)
    out["stream.verifications"] = float(rechecked * union_rules)
    out["stream.touched_nodes"] = float(
        sum(r["attrs"].get("touched", 0) for r in tree if r["name"] == "stream.apply_batch")
    )
    out["stream.region_nodes"] = float(
        sum(r["attrs"].get("region", 0) for r in tree if r["name"] == "stream.slice_build")
    )
    out["stream.changed_ticks"] = float(run.changed)
    out["stream.union_rules"] = float(union_rules)
    out["stream.shared_prefix_hits"] = float(sum(a.get("shared_prefix_hits", 0) for a in run.admissions))
    out["stream.backfill_centers"] = float(sum(a.get("backfill_centers", 0) for a in run.admissions))

    # partition
    out["partition.derive_batch_share"] = _share(forest.total(tree, "partition.derive_batch"), total)
    out["partition.partition_graph_ms"] = _mean_ms(records, "partition.partition_graph")
    resident = _counter(prom, "repro_session_resident_nodes")
    if run.inputs.spec.shared_core:
        resident /= len(run.inputs.spec.tenants)  # every tenant session reports the shared core
    out["partition.resident_nodes"] = resident
    out["partition.replication"] = resident / run.graph_nodes if run.graph_nodes else 0.0
    for field in ("entered_nodes", "shed_nodes", "migrated_centers"):
        out[f"partition.{field}"] = float(sum(tick.report[field] for tick in ticks))
    out["partition.compacted_fragments"] = _counter(prom, "repro_stream_compacted_fragments_total")

    # parallel (sequential backend: a round's self time is its dispatch overhead)
    rounds = [record for record in tree if record["name"] == "parallel.run_round"]
    out["parallel.run_round_ms"] = _mean_ms(tree, "parallel.run_round")
    out["parallel.round_overhead_share"] = _share(sum(forest.self_time(r) for r in rounds), total)
    out["parallel.rounds"] = float(len(rounds))
    skews, work, critical = [], 0.0, 0.0
    for round_span in rounds:
        per_worker: dict[str, float] = defaultdict(float)
        for worker in forest.children.get(round_span["span_id"], ()):
            per_worker[worker["span_id"].rsplit(".", 1)[0]] += worker["duration"]
        if per_worker:
            slowest = max(per_worker.values())
            skews.append((slowest - min(per_worker.values())) / slowest if slowest else 0.0)
            work += sum(per_worker.values())
            critical += slowest
    out["parallel.worker_skew"] = max(skews, default=0.0)
    out["parallel.simulated_speedup"] = work / critical if critical else 0.0

    # graph
    out["graph.index_refresh_share"] = _share(forest.total(tree, "stream.worker.index_refresh"), total)
    out["graph.columnar_refresh_share"] = _share(forest.total(tree, "stream.worker.columnar_refresh"), total)
    out["graph.ball_share"] = _share(forest.total(tree, "graph.ball"), total)
    out["graph.index_delta_applies"] = _counter(prom, "repro_index_delta_applies_total")
    out["graph.index_sketches_built"] = _counter(prom, "repro_index_sketches_built_total")
    out["graph.columnar_row_filters"] = _counter(prom, "repro_columnar_row_filters_total")
    out["graph.columnar_mask_filters"] = _counter(prom, "repro_columnar_mask_filters_total")

    # matching (repro_match_* / repro_store_* do not surface on the streaming path)
    out["matching.worker_verify_share"] = _share(forest.total(tree, "stream.worker.verify"), total)
    out["matching.candidates_examined"] = _counter(prom, "repro_match_candidates_considered_total")
    out["matching.prefix_pool_hits"] = _counter(prom, "repro_match_prefix_pool_hits_total")

    out["identification.answer_entities"] = float(run.answer_entities)
    out["identification.accepted_rules"] = float(run.accepted_rules)

    timed = [tick.ms for tick in run.timed]
    out["obs.traced_refresh_p50_ms"] = statistics.median(timed) if timed else 0.0
    out["obs.traced_refresh_total_ms"] = total * 1000.0
    out["obs.spans"] = float(len(records))
    out["datasets.generate_ms"] = run.inputs.generate_s * 1000.0
    out.update(hi)
    return out


def batch_layers(run, records: list[dict], hi: dict[str, float], generate_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced batch run (``run`` is a ``BatchRun``)."""
    out = blank()
    forest = SpanForest(records)
    total = run.mine_s + sum(run.identify_s)  # D, seconds
    mine_roots, identify_roots = forest.roots("api.mine"), forest.roots("api.identify")
    tree = forest.subtree(mine_roots + identify_roots)
    by_layer = forest.layer_self(tree)

    # Pool workers record no spans and the barrier function runs inside
    # ``run_round`` unspanned, so a round's self time is split with the
    # RoundTiming the results carry: the workers' time is matching, the
    # barrier's belongs to the algorithm that supplied it, the rest is the
    # transport.  The pool holds one process, so a round's fragment tasks
    # queue behind each other and its critical path is their sum.
    mine_rounds = list(run.mined.timings.rounds)
    identify_rounds = [r for result in run.identify_results for r in result.timings.rounds]
    rounds = mine_rounds + identify_rounds
    in_workers = sum(sum(r.worker_times) for r in rounds)
    in_barrier = {
        "mining": sum(r.coordinator_time for r in mine_rounds),
        "identification": sum(r.coordinator_time for r in identify_rounds),
    }
    round_wall = forest.total(tree, "parallel.run_round")
    overhead = max(0.0, round_wall - in_workers - sum(in_barrier.values()))
    by_layer["parallel"] += overhead - round_wall
    by_layer["matching"] += in_workers
    for layer, seconds in in_barrier.items():
        by_layer[layer] += seconds
    for layer in LAYERS:
        out[f"{layer}.self_share"] = _share(by_layer.get(layer, 0.0), total)

    out["partition.partition_graph_ms"] = _mean_ms(tree, "partition.partition_graph")

    out["parallel.run_round_ms"] = _mean_ms(tree, "parallel.run_round")
    out["parallel.round_overhead_share"] = _share(overhead, total)
    out["parallel.rounds"] = float(len(rounds))
    out["parallel.worker_skew"] = max((r.skew for r in rounds), default=0.0)
    slowest = sum(max(r.worker_times, default=0.0) for r in rounds)
    out["parallel.simulated_speedup"] = in_workers / slowest if slowest else 0.0
    out["matching.worker_verify_share"] = _share(in_workers, total)
    out["matching.candidates_examined"] = float(run.identified.candidates_examined)
    out["matching.prefix_pool_hits"] = float(run.identified.prefix_pool_hits)

    for phase in ("partition", "verify", "assemble"):
        out[f"identification.{phase}_share"] = _share(forest.total(tree, f"eip.{phase}"), total)
    out["identification.answer_entities"] = float(len(run.identified.identified))
    out["identification.accepted_rules"] = float(len(run.identified.accepted_rules))
    for phase in ("propose", "evaluate"):
        out[f"mining.{phase}_share"] = _share(forest.total(tree, f"dmine.{phase}"), total)
    out["mining.rounds"] = float(run.mined.rounds_executed)
    out["mining.candidates_generated"] = float(run.mined.candidates_generated)
    out["mining.candidates_pruned"] = float(run.mined.candidates_pruned)
    out["mining.rules_discovered"] = float(run.mined.num_rules_discovered)

    out["obs.traced_refresh_p50_ms"] = statistics.median(run.identify_s) * 1000.0
    out["obs.traced_refresh_total_ms"] = total * 1000.0
    out["obs.spans"] = float(len(records))
    out["datasets.generate_ms"] = generate_s * 1000.0
    out.update(hi)
    return out
