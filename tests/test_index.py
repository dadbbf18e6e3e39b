"""Unit tests of the resident structure's index role (repro.graph.columnar).

Label buckets, decoded profiles, the memoised frozen adjacency views, the
k-hop sketch cache with its isolated-node fast path, probe-time
invalidation and the per-process registry of
:class:`repro.graph.columnar.ColumnarFragment`; the array kernels
(pool masks, patch overlays) are covered in tests/test_columnar.py.
"""

from __future__ import annotations

import pytest

from repro.datasets import synthetic_graph
from repro.exceptions import GraphError, NodeNotFoundError
from repro.graph import (
    ColumnarFragment,
    Graph,
    build_sketch,
    columnar,
    columnar_view,
    empty_sketch,
    registered_columnar,
)
from repro.graph.neighborhood import Neighborhoods
from repro.matching.candidates import adjacency_profile
from repro.stream import random_update_batch
from repro.testing import discard_columnar, resident_label, resident_sketch


def toy_graph() -> Graph:
    g = Graph(name="toy")
    g.add_node("alice", "cust")
    g.add_node("bob", "cust")
    g.add_node("cafe", "restaurant")
    g.add_node("loner", "cust")
    g.add_edge("alice", "cafe", "visit")
    g.add_edge("bob", "cafe", "visit")
    g.add_edge("alice", "bob", "friend")
    return g


class TestVersionCounter:
    def test_every_mutation_bumps_version(self):
        g = Graph()
        v = g.version
        g.add_node("a", "x")
        assert g.version > v
        v = g.version
        g.add_node("b", "x")
        g.add_edge("a", "b", "e")
        assert g.version > v
        v = g.version
        g.remove_edge("a", "b", "e")
        assert g.version > v
        v = g.version
        g.relabel_node("a", "y")
        assert g.version > v
        v = g.version
        g.remove_node("b")
        assert g.version > v

    def test_noop_mutations_do_not_bump(self):
        g = toy_graph()
        v = g.version
        g.add_node("alice", "cust")  # re-add, same label
        g.add_edge("alice", "cafe", "visit")  # duplicate edge
        g.relabel_node("alice", "cust")  # same label
        assert g.version == v

    def test_relabel_updates_label_buckets(self):
        g = toy_graph()
        g.relabel_node("loner", "vip")
        assert g.nodes_with_label("vip") == {"loner"}
        assert "loner" not in g.nodes_with_label("cust")

    def test_relabel_unknown_node_raises(self):
        with pytest.raises(NodeNotFoundError):
            toy_graph().relabel_node("ghost", "x")


class TestIndexLayers:
    def test_label_layer_matches_graph(self):
        g = toy_graph()
        index = ColumnarFragment(g)
        assert index.nodes_with_label("cust") == g.nodes_with_label("cust")
        assert len(index.nodes_with_label("restaurant")) == 1
        assert index.nodes_with_label("missing") == frozenset()
        assert resident_label(index, "cafe") == "restaurant"
        with pytest.raises(NodeNotFoundError):
            resident_label(index, "ghost")

    def test_profiles_match_unindexed_computation(self):
        g = synthetic_graph(60, 180, num_node_labels=5, num_edge_labels=3, seed=11)
        index = ColumnarFragment(g)
        for node in g.nodes():
            assert index.profile(node) == adjacency_profile(g, node)
            assert adjacency_profile(g, node, index) == adjacency_profile(g, node)
        with pytest.raises(NodeNotFoundError):
            index.profile("ghost")

    def test_adjacency_views_match_graph(self):
        g = toy_graph()
        index = ColumnarFragment(g)
        assert index.out_neighbors("alice", "visit") == g.out_neighbors("alice", "visit")
        assert index.in_neighbors("cafe", "visit") == {"alice", "bob"}
        assert index.out_neighbors("loner", "visit") == frozenset()
        assert index.ball("alice", 1) == g.neighbors("alice") | {"alice"}
        # Memoised: the same frozen object answers every repeat.
        assert index.out_neighbors("alice", "visit") is index.out_neighbors("alice", "visit")
        with pytest.raises(NodeNotFoundError):
            index.out_neighbors("ghost", "visit")
        with pytest.raises(NodeNotFoundError):
            index.ball("ghost", 1)

    def test_sketches_match_direct_builds(self):
        g = synthetic_graph(40, 120, num_node_labels=4, num_edge_labels=2, seed=3)
        index = ColumnarFragment(g)
        for node in list(g.nodes())[:10]:
            assert resident_sketch(index, node, 2) == build_sketch(g, node, 2)
        # Memoised: a repeat probe builds nothing.
        node = next(iter(g.nodes()))
        built = index.statistics.sketches_built
        assert resident_sketch(index, node, 2) == resident_sketch(index, node, 2)
        assert index.statistics.sketches_built == built

    def test_invalid_construction_arguments(self):
        g = toy_graph()
        with pytest.raises(ValueError):
            resident_sketch(ColumnarFragment(g), "alice", 0)


class TestSketchFastPath:
    def test_isolated_node_skips_bfs(self, monkeypatch):
        g = toy_graph()
        index = ColumnarFragment(g)

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("BFS ran for an isolated node")

        monkeypatch.setattr(Neighborhoods, "reach", boom)
        sketch = resident_sketch(index, "loner", 2)
        assert sketch == empty_sketch("loner", 2)
        assert sketch.total == 0
        assert index.statistics.sketch_fast_paths == 1
        assert index.statistics.sketches_built == 0
        # Memoised as well: the second probe is a cache hit, not another
        # fast-path materialisation.
        assert resident_sketch(index, "loner", 2) == sketch
        assert index.statistics.sketch_fast_paths == 1

    def test_connected_node_takes_bfs_path(self):
        g = toy_graph()
        index = ColumnarFragment(g)
        resident_sketch(index, "alice", 2)
        assert index.statistics.sketches_built == 1
        assert index.statistics.sketch_fast_paths == 0

    def test_empty_sketch_shape(self):
        sketch = empty_sketch("n", 3)
        assert sketch.hops == 3
        assert sketch.prefix == ({}, {}, {})
        with pytest.raises(ValueError):
            empty_sketch("n", 0)


class TestInvalidation:
    """A stale read must be impossible: every stale probe refreshes first."""

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda g: g.add_node("new", "cust"),
            lambda g: g.add_edge("bob", "alice", "friend"),
            lambda g: g.remove_edge("alice", "cafe", "visit"),
            lambda g: g.relabel_node("bob", "vip"),
            lambda g: g.remove_node("loner"),
        ],
        ids=["add-node", "add-edge", "remove-edge", "relabel", "remove-node"],
    )
    def test_refresh_mode_rebuilds_on_any_mutation(self, mutate):
        g = toy_graph()
        index = ColumnarFragment(g)
        resident_sketch(index, "alice", 2)  # warm a lazy layer too
        mutate(g)
        assert index.is_stale
        # Any probe refreshes; the answer reflects the mutated graph.
        assert index.nodes_with_label("cust") == g.nodes_with_label("cust")
        assert not index.is_stale
        assert index.statistics.refreshes == 1
        for node in g.nodes():
            assert index.profile(node) == adjacency_profile(g, node)

    @pytest.mark.parametrize(
        "probe",
        [
            lambda index: index.nodes_with_label("cust"),
            lambda index: resident_label(index, "alice"),
            lambda index: index.profile("alice"),
            lambda index: index.out_neighbors("alice", "visit"),
            lambda index: index.in_neighbors("cafe", "visit"),
            lambda index: index.ball("alice", 1),
            lambda index: resident_sketch(index, "alice", 2),
        ],
        ids=["labels", "node-label", "profile", "out", "in", "neighbors", "sketch"],
    )
    def test_open_dirty_batch_rejects_every_probe(self, probe):
        """Direct probes never answer from (or compile) a half-applied state."""
        g = toy_graph()
        index = ColumnarFragment(g)
        with g.batch_update() as tx:
            probe(index)  # open but clean: still the compiled state
            tx.add_node("new", "cust")
            with pytest.raises(GraphError, match="batch_update is open"):
                probe(index)
        probe(index)  # closed: the probe refreshes and answers
        assert not index.is_stale

    def test_patch_drops_only_the_touched_nodes_views(self, monkeypatch):
        """Views are kept per node: a patch drops the touched nodes' and keeps
        every other view by identity, and all of them equal a fresh compile's."""
        monkeypatch.setattr(columnar, "DELTA_REBUILD_FRACTION", 1.0)
        g = synthetic_graph(60, 200, num_node_labels=4, num_edge_labels=3, seed=5)
        index = ColumnarFragment(g)
        labels = sorted(g.edge_labels())
        probes = (index.out_neighbors, index.in_neighbors)
        views = {
            (probe.__name__, node, label): probe(node, label)
            for probe in probes
            for node in g.nodes()
            for label in labels
        }
        delta = random_update_batch(g, size=6, seed=2, deletion_bias=0.4).apply(g)
        index.refresh()
        assert index.statistics.delta_applies == 1
        for memo in (index._out_frozen, index._in_frozen):
            assert not delta.touched & set(memo)
            assert set(memo) == set(g.nodes()) - delta.touched
        fresh = ColumnarFragment(g)
        for (name, node, label), view in views.items():
            if node in delta.touched:
                continue
            assert getattr(index, name)(node, label) is view
        for name in ("out_neighbors", "in_neighbors"):
            for node in g.nodes():
                for label in labels:
                    assert getattr(index, name)(node, label) == getattr(fresh, name)(node, label)

    def test_requirement_memo_is_cleared_only_when_a_label_is_interned(self, monkeypatch):
        """A compiled requirement keeps an unknown label as unknown: a patch
        that interns a label must drop the memo, one that does not keeps it."""
        from repro.pattern import Pattern

        monkeypatch.setattr(columnar, "DELTA_REBUILD_FRACTION", 1.0)
        g = toy_graph()
        index = ColumnarFragment(g)
        pattern = Pattern({"x": "cust", "v": "vip"}, [("x", "v", "friend")], x="x", y="v")
        assert not index.degree_consistent("alice", pattern, "x")  # no vip anywhere yet
        memo = dict(index._requirements)
        g.relabel_node("loner", "restaurant")  # a label the table holds already
        assert not index.degree_consistent("alice", pattern, "x")
        assert all(index._requirements[key] is entry for key, entry in memo.items())
        g.relabel_node("bob", "vip")  # interns "vip"
        assert index.degree_consistent("alice", pattern, "x")
        assert index.statistics.delta_applies == 2

    def test_refresh_drops_stale_sketches_and_views(self):
        g = toy_graph()
        index = ColumnarFragment(g)
        before = resident_sketch(index, "loner", 2)
        assert before.total == 0
        g.add_edge("loner", "cafe", "visit")
        after = resident_sketch(index, "loner", 2)
        assert after.total > 0
        assert index.out_neighbors("loner", "visit") == {"cafe"}


class TestRegistry:
    def test_resident_structure_is_memoised_per_graph(self):
        g = toy_graph()
        assert registered_columnar(g) is None
        index = columnar_view(g)
        assert columnar_view(g) is index
        assert registered_columnar(g) is index

    def test_discard_forgets_the_graph(self):
        g = toy_graph()
        index = columnar_view(g)
        assert discard_columnar(g) is True
        assert discard_columnar(g) is False
        assert columnar_view(g) is not index

    def test_independent_graphs_get_independent_indexes(self):
        g1, g2 = toy_graph(), toy_graph()
        assert columnar_view(g1) is not columnar_view(g2)

    def test_registry_does_not_keep_graphs_alive(self):
        """The index holds its graph weakly: dropping the graph frees both."""
        import gc
        import weakref

        g = toy_graph()
        index = columnar_view(g)
        graph_ref = weakref.ref(g)
        del g
        gc.collect()
        assert graph_ref() is None
        with pytest.raises(GraphError):
            index.profile("alice")
