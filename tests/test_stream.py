"""Unit tests of the streaming update subsystem (repro.stream + batch_update).

Covers the update-ingestion layer (``Graph.batch_update`` single-tick
semantics, net-delta recording, the one-tick ``remove_node`` fix), the
delta-maintenance layer (``ColumnarFragment.apply_delta``), the resident
structure's refusal to refresh under an open batch, and the
:class:`~repro.stream.StreamingIdentifier` lifecycle.  The seeded
equivalence sweeps live in ``tests/test_stream_equivalence.py``.
"""

from __future__ import annotations

import pytest

from repro.datasets import generate_gpars, most_frequent_predicates, synthetic_graph
from repro.exceptions import GraphError, StreamError
from repro.graph import ColumnarFragment, Graph, registered_columnar
from repro.identification import identify_entities
from repro.identification.eip import EIPConfig
from repro.graph.graph import GraphDelta
from repro.stream import (
    StreamingIdentifier,
    UpdateBatch,
    UpdateOp,
    random_update_batch,
)
from repro.testing import resident_sketch


def toy_graph() -> Graph:
    g = Graph(name="toy")
    g.add_node("alice", "cust")
    g.add_node("bob", "cust")
    g.add_node("carol", "cust")
    g.add_node("cafe", "restaurant")
    g.add_edge("alice", "bob", "friend")
    g.add_edge("bob", "carol", "friend")
    g.add_edge("alice", "cafe", "visit")
    g.add_edge("bob", "cafe", "visit")
    return g


class TestBatchUpdate:
    def test_single_version_bump_and_touched(self):
        g = toy_graph()
        before = g.version
        with g.batch_update() as tx:
            tx.add_edge("carol", "cafe", "visit")
            tx.remove_edge("alice", "bob", "friend")
            tx.relabel_node("carol", "vip")
        assert g.version == before + 1
        assert tx.delta.touched == {"alice", "bob", "carol", "cafe"}
        delta = tx.delta
        assert delta.added_edges == {("carol", "cafe", "visit")}
        assert delta.removed_edges == {("alice", "bob", "friend")}
        assert delta.relabeled_nodes == {"carol"}
        assert delta.base_version == before
        assert delta.result_version == before + 1

    def test_empty_batch_does_not_tick(self):
        g = toy_graph()
        before = g.version
        with g.batch_update() as tx:
            pass
        assert g.version == before
        assert tx.delta.net_empty
        assert g.deltas_since(before) == []

    def test_cancelled_operations_are_net_empty_but_tick(self):
        g = toy_graph()
        before = g.version
        with g.batch_update() as tx:
            tx.add_edge("carol", "cafe", "visit")
            tx.remove_edge("carol", "cafe", "visit")
        assert g.version == before + 1  # work happened, consumers must look
        assert tx.delta.net_empty  # ...but nothing changed, nothing to patch
        assert g.deltas_since(before) == [tx.delta]

    def test_direct_mutations_inside_batch_are_recorded(self):
        g = toy_graph()
        with g.batch_update() as tx:
            g.add_node("dave", "cust")  # bypassing the proxy on purpose
            tx.add_edge("dave", "cafe", "visit")
        assert tx.delta.added_nodes == {"dave"}
        assert tx.delta.added_edges == {("dave", "cafe", "visit")}

    def test_nested_batches_join_the_outer_tick(self):
        g = toy_graph()
        before = g.version
        with g.batch_update() as outer:
            outer.add_edge("carol", "cafe", "visit")
            with g.batch_update() as inner:
                inner.relabel_node("carol", "vip")
            with pytest.raises(GraphError):
                inner.delta  # joined the outer batch: no delta of its own
        assert g.version == before + 1
        assert outer.delta.touched == {"carol", "cafe"}

    def test_delta_unavailable_while_open(self):
        g = toy_graph()
        with g.batch_update() as tx:
            tx.add_edge("carol", "cafe", "visit")
            with pytest.raises(GraphError):
                tx.delta

    def test_remove_node_is_one_tick_and_touches_neighbours(self):
        g = toy_graph()
        before = g.version
        g.remove_node("bob")  # three incident edges + the node itself
        assert g.version == before + 1
        delta = g.deltas_since(before)[0]
        assert delta.removed_nodes == {"bob"}
        assert delta.touched == {"alice", "bob", "carol", "cafe"}
        assert ("alice", "bob", "friend") in delta.removed_edges

    def test_every_single_mutation_is_one_tick(self):
        g = toy_graph()
        for mutate in (
            lambda: g.add_node("dave", "cust"),
            lambda: g.add_edge("dave", "cafe", "visit"),
            lambda: g.relabel_node("dave", "vip"),
            lambda: g.remove_edge("dave", "cafe", "visit"),
            lambda: g.remove_node("dave"),
        ):
            before = g.version
            mutate()
            assert g.version == before + 1

    def test_deltas_since_chains_and_gives_up(self):
        g = toy_graph()
        base = g.version
        g.add_node("d1", "cust")
        with g.batch_update() as tx:
            tx.add_edge("d1", "cafe", "visit")
            tx.relabel_node("d1", "vip")
        chain = g.deltas_since(base)
        assert [d.base_version for d in chain] == [base, base + 1]
        assert chain[-1].result_version == g.version
        assert chain[1] is tx.delta
        # Version older than the bounded log reaches: None, rebuild needed.
        from repro.graph.graph import DELTA_LOG_SIZE

        for serial in range(DELTA_LOG_SIZE + 1):
            g.add_node(f"spam-{serial}", "cust")
        assert g.deltas_since(base) is None

    def test_failed_op_keeps_delta_truthful(self):
        g = toy_graph()
        before = g.version
        with pytest.raises(GraphError):
            with g.batch_update() as tx:
                tx.add_edge("carol", "cafe", "visit")
                tx.remove_edge("ghost", "cafe", "visit")  # raises
        # The batch closed: the applied prefix is one tick, truthfully logged.
        assert g.version == before + 1
        assert tx.delta.added_edges == {("carol", "cafe", "visit")}
        assert g.has_edge("carol", "cafe", "visit")


class TestUpdateBatchValues:
    def test_apply_returns_net_delta(self):
        g = toy_graph()
        batch = UpdateBatch.of(
            UpdateOp.add_node("dave", "cust", {"age": 33}),
            UpdateOp.add_edge("dave", "cafe", "visit"),
            UpdateOp.remove_edge("bob", "cafe", "visit"),
            UpdateOp.relabel_node("carol", "vip"),
        )
        delta = batch.apply(g)
        assert isinstance(delta, GraphDelta)
        assert delta.added_nodes == {"dave"}
        assert g.node_attrs("dave") == {"age": 33}
        assert delta.removed_edges == {("bob", "cafe", "visit")}
        assert delta.relabeled_nodes == {"carol"}
        assert len(batch) == 4 and list(batch)

    def test_describe_and_unknown_kind(self):
        batch = UpdateBatch.of(
            UpdateOp.add_edge("a", "b", "e"), UpdateOp.remove_node("c")
        )
        assert "add_edge=1" in batch.describe()
        assert "remove_node=1" in batch.describe()
        assert "remove_node('c')" == str(UpdateOp.remove_node("c"))
        with pytest.raises(StreamError):
            UpdateOp(kind="explode").apply(toy_graph())

    @pytest.mark.parametrize("seed", range(10))
    def test_random_batches_apply_cleanly(self, seed):
        g = synthetic_graph(60, 180, num_node_labels=4, num_edge_labels=3, seed=seed)
        for position in range(3):
            batch = random_update_batch(g, size=7, seed=seed * 10 + position)
            assert len(batch) == 7
            batch.apply(g)  # raises on any inconsistency

    def test_random_batch_rejects_bad_arguments(self):
        g = toy_graph()
        with pytest.raises(StreamError):
            random_update_batch(g, size=0)
        with pytest.raises(StreamError):
            random_update_batch(g, structural_fraction=1.5)
        with pytest.raises(StreamError):
            random_update_batch(Graph())

    def test_random_batch_fails_loudly_on_starved_sampling(self):
        # One node, no edges, edge churn only: no branch can ever progress.
        g = Graph()
        g.add_node("only", "x")
        with pytest.raises(StreamError, match="too small"):
            random_update_batch(g, size=1, structural_fraction=0.0)


class TestIndexUnderBatches:
    def test_refresh_mode_refuses_half_applied_state(self):
        g = toy_graph()
        index = ColumnarFragment(g)
        with pytest.raises(GraphError):
            with g.batch_update() as tx:
                tx.add_node("dave", "cust")
                index.nodes_with_label("cust")
        # After the batch closes the same index recovers by itself.
        assert "dave" in index.nodes_with_label("cust")

    def test_probe_before_any_mutation_inside_batch_is_safe(self):
        g = toy_graph()
        index = ColumnarFragment(g)
        with g.batch_update():
            assert "alice" in index.nodes_with_label("cust")

    def test_refresh_patches_instead_of_rebuilding(self):
        g = synthetic_graph(80, 240, num_node_labels=4, num_edge_labels=3, seed=0)
        index = ColumnarFragment(g)
        for node in sorted(g.nodes(), key=str)[:20]:
            resident_sketch(index, node, 2)
        UpdateBatch.of(
            UpdateOp.add_node("fresh", "L0"),
            UpdateOp.add_edge("fresh", sorted(g.nodes(), key=str)[0], "e0"),
        ).apply(g)
        index.refresh()
        assert index.statistics.builds == 1  # patched, not rebuilt
        assert index.statistics.delta_applies == 1
        assert not index.is_stale

    def test_apply_delta_rejects_wrong_base(self):
        g = toy_graph()
        index = ColumnarFragment(g)
        g.add_node("d1", "cust")
        g.add_node("d2", "cust")
        deltas = g.deltas_since(index._built_version)
        assert index.apply_delta(deltas[1]) is False  # out of order
        assert index.apply_delta(deltas[0]) is True
        assert index.apply_delta(deltas[1]) is True
        assert not index.is_stale

    def test_big_delta_falls_back_to_rebuild(self):
        g = synthetic_graph(40, 120, num_node_labels=4, num_edge_labels=3, seed=1)
        index = ColumnarFragment(g)
        with g.batch_update() as tx:
            for node in sorted(g.nodes(), key=str)[:30]:
                tx.relabel_node(node, "L0")
        index.refresh()
        assert index.statistics.builds == 2  # touched most of the graph
        assert not index.is_stale


class TestStreamingIdentifierLifecycle:
    def _workload(self, seed=0):
        graph = synthetic_graph(100, 300, num_node_labels=5, num_edge_labels=3, seed=seed)
        predicate = most_frequent_predicates(graph, top=1)[0]
        rules = generate_gpars(graph, predicate, count=3, max_pattern_edges=3, d=2, seed=seed)
        return graph, rules

    def test_edged_free_component_is_maintained_via_component_census(self):
        graph, _rules = self._workload()
        from repro.pattern.pattern import Pattern
        from repro.pattern.gpar import GPAR

        predicate = most_frequent_predicates(graph, top=1)[0]
        x_label = predicate.label(predicate.x)
        y_label = predicate.label(predicate.y)
        # A disconnected part that carries an edge has no bounded ball and
        # no label census — the coordinator-held component census maintains
        # it against the authoritative graph instead of rejecting it.
        edged_free = GPAR(
            Pattern(
                nodes={"x": x_label, "y": y_label, "v1": x_label, "v2": y_label},
                edges=[("x", "v1", "e0"), ("y", "v2", "e0")],
                x="x",
                y="y",
            ),
            consequent_label=predicate.edges()[0].label,
            validate=False,
        )
        config = EIPConfig(eta=0.5, num_workers=2)
        with StreamingIdentifier(graph, [edged_free], config=config) as identifier:
            assert edged_free in identifier._census_parts
            entry = identifier._census_plan.entries[0]
            assert entry.components, "edge-carrying free part takes the component route"
            for _ in range(2):
                identifier.apply(random_update_batch(graph, size=6, seed=11))
                maintained = identifier.result
                fresh = identifier.recompute()
                assert maintained.identified == fresh.identified
                assert maintained.rule_confidences == fresh.rule_confidences

    def test_free_y_rule_is_maintained_via_census(self):
        graph, _rules = self._workload()
        from repro.pattern.pattern import Pattern
        from repro.pattern.gpar import GPAR

        predicate = most_frequent_predicates(graph, top=1)[0]
        x_label = predicate.label(predicate.x)
        y_label = predicate.label(predicate.y)
        free_y = GPAR(
            Pattern(
                nodes={"x": x_label, "y": y_label, "v1": x_label},
                edges=[("x", "v1", "e0")],
                x="x",
                y="y",
            ),
            consequent_label=predicate.edges()[0].label,
            validate=False,
        )
        with StreamingIdentifier(
            graph, [free_y], config=EIPConfig(eta=0.5, num_workers=2)
        ) as identifier:
            assert free_y in identifier._census_parts
            identifier.apply(random_update_batch(graph, size=5, seed=3))
            identifier.result  # maintained without StreamError

    def test_external_mutation_is_detected(self):
        graph, rules = self._workload()
        with StreamingIdentifier(
            graph, rules, config=EIPConfig(eta=0.5, num_workers=2)
        ) as identifier:
            identifier.result  # fine
            graph.add_node("sneaky", "outsider")
            with pytest.raises(StreamError):
                identifier.result
            with pytest.raises(StreamError):
                identifier.apply(UpdateBatch.of(UpdateOp.remove_node("sneaky")))

    def test_closed_identifier_rejects_apply(self):
        graph, rules = self._workload()
        identifier = StreamingIdentifier(
            graph, rules, config=EIPConfig(eta=0.5, num_workers=2)
        )
        identifier.close()
        identifier.close()  # idempotent
        with pytest.raises(StreamError):
            identifier.apply(random_update_batch(graph, size=3, seed=1))

    def test_worker_index_is_patched_not_rebuilt(self):
        graph, rules = self._workload()
        with StreamingIdentifier(
            graph, rules, config=EIPConfig(eta=0.5, num_workers=2)
        ) as identifier:
            fragment_graphs = [fragment.graph for fragment in identifier.fragments]
            indexes = [registered_columnar(g) for g in fragment_graphs]
            assert all(index is not None for index in indexes)
            builds_before = [index.statistics.builds for index in indexes]
            identifier.apply(random_update_batch(graph, size=5, seed=7))
            assert [index.statistics.builds for index in indexes] == builds_before
            assert any(index.statistics.delta_applies > 0 for index in indexes)

    def test_resident_session_keeps_one_round_timing(self):
        """A session lives for as many ticks as it is served: the runtime must
        not keep a ``RoundTiming`` (and, with ``REPRO_OBS`` on, the workers'
        metric dicts it pins) per tick, nor hang the growing list on results."""
        graph, rules = self._workload()
        with StreamingIdentifier(
            graph, rules[:2], config=EIPConfig(eta=0.5, num_workers=2)
        ) as identifier:
            for position in range(200):
                identifier.apply(UpdateBatch.of(UpdateOp.add_node(f"far-{position}", "offside")))
                if position == 100:
                    identifier.admit_rules(rules[2:])
            assert len(identifier.runtime.timings.rounds) <= 1
            assert len(identifier.result.timings.rounds) <= 1
            assert identifier.batches_applied == 200
        batch = identify_entities(graph, rules, eta=0.5, num_workers=2)
        assert len(batch.timings.rounds) == 1  # a batch result keeps its full per-round list
