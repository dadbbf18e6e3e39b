"""Tests for graph fragmentation and the BSP runtime."""

import random

import pytest

from repro.datasets import synthetic_graph
from repro.exceptions import ExecutorError, PartitionError, WorkerError
from repro.graph import ball, neighborhood
from repro.graph.neighborhood import Neighborhoods, uses_masks
from repro.parallel import (
    BSPRuntime,
    SequentialExecutor,
    WorkerTask,
)
from repro.partition import fragmentation_report, partition_graph, partitioner
from repro.testing import reference_balance


def _num_nodes(context, payload):
    """Module-level worker: node count of the fragment (payload unused)."""
    return context.fragment.graph.num_nodes


def _num_edges(context, payload):
    return context.fragment.graph.num_edges


def _echo_payload(context, payload):
    return (context.fragment.index, payload)


def _boom(context, payload):
    raise ValueError("boom")


class TestPartitioner:
    def test_every_center_owned_exactly_once(self, g1):
        centers = g1.nodes_with_label("cust")
        fragments = partition_graph(g1, 3, centers=centers, d=2, seed=0)
        owned = [node for fragment in fragments for node in fragment.owned_centers]
        assert sorted(owned) == sorted(centers)
        assert len(owned) == len(set(owned))

    def test_d_ball_preserved_in_owning_fragment(self, g1):
        """The defining property: Gd(vx) lives inside vx's fragment."""
        centers = g1.nodes_with_label("cust")
        for d in (1, 2):
            fragments = partition_graph(g1, 3, centers=centers, d=d, seed=0)
            for fragment in fragments:
                for center in fragment.owned_centers:
                    for node in ball(g1, center, d):
                        assert fragment.graph.has_node(node)

    def test_fragment_edges_are_graph_edges(self, g1):
        fragments = partition_graph(g1, 2, centers=g1.nodes_with_label("cust"), d=1, seed=0)
        for fragment in fragments:
            for edge in fragment.graph.edges():
                assert g1.has_edge(edge.source, edge.target, edge.label)

    def test_requested_number_of_fragments(self, g1):
        fragments = partition_graph(g1, 5, centers=g1.nodes_with_label("cust"), d=1, seed=0)
        assert len(fragments) == 5

    def test_more_fragments_than_centers(self, g1):
        fragments = partition_graph(g1, 10, centers=["cust1"], d=1, seed=0)
        assert len(fragments) == 10
        assert sum(len(fragment.owned_centers) for fragment in fragments) == 1

    def test_invalid_arguments(self, g1):
        with pytest.raises(PartitionError):
            partition_graph(g1, 0, centers=["cust1"], d=1)
        with pytest.raises(PartitionError):
            partition_graph(g1, 2, centers=["cust1"], d=-1)
        with pytest.raises(PartitionError):
            partition_graph(g1, 2, centers=["ghost"], d=1)

    def test_deterministic_for_fixed_seed(self, g1):
        centers = g1.nodes_with_label("cust")
        first = partition_graph(g1, 3, centers=centers, d=1, seed=7)
        second = partition_graph(g1, 3, centers=centers, d=1, seed=7)
        assert [f.owned_centers for f in first] == [f.owned_centers for f in second]

    def test_balance_on_social_graph(self, small_pokec):
        centers = small_pokec.nodes_with_label("user")
        fragments = partition_graph(small_pokec, 4, centers=centers, d=1, seed=0)
        report = fragmentation_report(small_pokec, fragments)
        assert report.num_fragments == 4
        assert report.max_size > 0
        # Greedy balancing keeps the skew moderate (paper reports <= 14.4%).
        assert report.skew <= 0.5
        assert "fragments=4" in report.as_row()

    def test_report_counts_replication(self, g1):
        fragments = partition_graph(g1, 3, centers=g1.nodes_with_label("cust"), d=2, seed=0)
        report = fragmentation_report(g1, fragments)
        total_local = sum(fragment.graph.num_nodes for fragment in fragments)
        assert report.replicated_nodes == total_local - len(
            {node for fragment in fragments for node in fragment.graph.nodes()}
        )

    def test_empty_report(self, g1):
        report = fragmentation_report(g1, [])
        assert report.max_size == 0
        assert report.skew == 0.0


def _layout(fragments) -> list:
    return [(fragment.owned_centers, set(fragment.graph.nodes())) for fragment in fragments]


class TestBalanceOnHandles:
    """The greedy on kernel handles against :func:`reference_balance`, which
    decodes every ball into a set: same owned centres, same node sets."""

    @staticmethod
    def _workload(seed: int):
        rng = random.Random(seed)
        size = rng.randint(20, 90)
        graph = synthetic_graph(size, rng.randint(size // 2, 3 * size), num_node_labels=3, num_edge_labels=2, seed=seed)
        centers = sorted(graph.nodes_with_label(sorted(graph.node_labels())[0]), key=str)
        rng.shuffle(centers)
        return graph, centers, rng.randint(1, 4)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("seed", range(12))
    def test_random_graphs_on_both_kernel_sides(self, monkeypatch, seed, d):
        graph, centers, parts = self._workload(seed)
        for sets in (False, True):
            with monkeypatch.context() as patch:
                if sets:
                    patch.setattr(neighborhood, "uses_masks", lambda num_nodes, num_edges: False)
                hoods = Neighborhoods(graph)
                assert hoods.masks is not sets
                expected = reference_balance(hoods, centers, d, parts)
                assert partitioner._balance(hoods, centers, d, parts) == expected
                fragments = partition_graph(graph, parts, centers=centers, d=d, seed=seed)
                patch.setattr(partitioner, "_balance", reference_balance)
                assert _layout(fragments) == _layout(partition_graph(graph, parts, centers=centers, d=d, seed=seed))

    @pytest.mark.parametrize("d", [1, 2])
    def test_a_graph_above_the_mask_rule(self, monkeypatch, d):
        graph = synthetic_graph(2000, 1000, num_node_labels=4, seed=1)
        assert not uses_masks(graph.num_nodes, graph.num_edges)
        centers = graph.nodes_with_label(sorted(graph.node_labels())[0])
        fragments = partition_graph(graph, 3, centers=centers, d=d, seed=0)
        monkeypatch.setattr(partitioner, "_balance", reference_balance)
        assert _layout(fragments) == _layout(partition_graph(graph, 3, centers=centers, d=d, seed=0))


class TestExecutors:
    def _started(self, executor, g1):
        fragments = partition_graph(g1, 2, centers=g1.nodes_with_label("cust"), d=1, seed=0)
        executor.start(fragments)
        return executor, fragments

    def test_sequential_executor(self, g1):
        executor, fragments = self._started(SequentialExecutor(), g1)
        tasks = [WorkerTask(_echo_payload, f.index, i) for i, f in enumerate(fragments)]
        results, durations, metrics = executor.run(tasks)
        assert results == [(0, 0), (1, 1)]
        assert len(durations) == 2
        assert all(duration >= 0 for duration in durations)
        assert metrics == [None, None]  # REPRO_OBS collection is off

    def test_sequential_executor_propagates_worker_errors(self, g1):
        executor, fragments = self._started(SequentialExecutor(), g1)
        with pytest.raises(WorkerError) as excinfo:
            executor.run([WorkerTask(_boom, fragments[1].index, None)])
        assert excinfo.value.fragment_id == fragments[1].index
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_unknown_fragment_id(self, g1):
        executor, _fragments = self._started(SequentialExecutor(), g1)
        with pytest.raises(ExecutorError):
            executor.run([WorkerTask(_echo_payload, 99, None)])


class TestBSPRuntime:
    def _fragments(self, g1):
        return partition_graph(g1, 3, centers=g1.nodes_with_label("cust"), d=1, seed=0)

    def test_round_applies_worker_to_every_fragment(self, g1):
        runtime = BSPRuntime(self._fragments(g1))
        sizes = runtime.run_round(_num_nodes)
        assert len(sizes) == 3
        assert all(isinstance(size, int) for size in sizes)

    def test_round_ships_per_fragment_payloads(self, g1):
        runtime = BSPRuntime(self._fragments(g1))
        results = runtime.run_round(_echo_payload, ["a", "b", "c"])
        assert results == [(0, "a"), (1, "b"), (2, "c")]

    def test_payload_count_mismatch(self, g1):
        runtime = BSPRuntime(self._fragments(g1))
        with pytest.raises(ValueError):
            runtime.run_round(_echo_payload, ["only-one"])

    def test_coordinator_phase(self, g1):
        runtime = BSPRuntime(self._fragments(g1))
        total = runtime.run_round(_num_nodes, None, sum)
        assert total == sum(f.graph.num_nodes for f in self._fragments(g1))

    def test_timings_accumulate(self, g1):
        runtime = BSPRuntime(self._fragments(g1))
        runtime.start_run()
        runtime.run_round(_num_nodes)
        runtime.run_round(_num_edges)
        timings = runtime.finish_run()
        assert timings.num_rounds == 2
        assert timings.simulated_parallel_time <= timings.sequential_time + 1e-9
        assert timings.speedup >= 1.0
        assert timings.wall_time > 0
        assert 0.0 <= timings.max_worker_skew() <= 1.0

    def test_round_timing_properties(self, g1):
        runtime = BSPRuntime(self._fragments(g1))
        runtime.run_round(_num_nodes)
        round_timing = runtime.timings.rounds[0]
        assert round_timing.parallel_time == pytest.approx(
            max(round_timing.worker_times) + round_timing.coordinator_time
        )
        assert round_timing.sequential_time >= round_timing.parallel_time

    def test_num_workers(self, g1):
        assert BSPRuntime(self._fragments(g1)).num_workers == 3
