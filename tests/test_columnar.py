"""Unit tests of the columnar fragment kernel (repro.graph.columnar).

Covers the LabelTable interning contract, the compiled-requirement filter
against its dict-path definition, delta-driven patching (overlays answer
probes exactly like a fresh compile and fold back into the arrays at the
next compile boundary), the probe-time staleness guard, and the
per-process registry.  Cross-implementation equivalence at scale lives in
tests/test_columnar_equivalence.py.
"""

from __future__ import annotations

import pickle

import pytest

from repro.datasets import most_frequent_predicates, synthetic_graph
from repro.graph import Graph, columnar
from repro.graph.columnar import (
    ColumnarFragment,
    LabelTable,
    columnar_view,
    registered_columnar,
)
from repro.matching import VF2Matcher
from repro.matching.candidates import degree_consistent
from repro.pattern import Pattern
from repro.stream import random_update_batch
from repro.testing import ReferenceMatcher, discard_columnar


def _small_graph(seed: int = 3) -> Graph:
    return synthetic_graph(60, 180, num_node_labels=4, num_edge_labels=3, seed=seed)


def _pattern_for(graph: Graph) -> Pattern:
    predicate = most_frequent_predicates(graph, top=1)[0]
    return predicate


# ----------------------------------------------------------------------
# LabelTable
# ----------------------------------------------------------------------
class TestLabelTable:
    def test_ids_are_stable_and_dense(self):
        table = LabelTable()
        assert table.intern("a") == 0
        assert table.intern("b") == 1
        assert table.intern("a") == 0
        assert len(table) == 2
        assert table.label_of(1) == "b"

    def test_id_of_never_assigns(self):
        table = LabelTable()
        assert table.id_of("never-seen") is None
        assert len(table) == 0

    def test_pickle_roundtrip_preserves_ids(self):
        table = LabelTable()
        for label in ("x", "y", "z"):
            table.intern(label)
        revived = pickle.loads(pickle.dumps(table))
        assert [revived.id_of(label) for label in ("x", "y", "z")] == [0, 1, 2]
        assert revived.intern("w") == 3

    def test_graph_exposes_shared_table(self):
        graph = _small_graph()
        table = graph.label_table
        assert table is graph.label_table  # memoised
        for label in graph.node_labels():
            assert table.id_of(label) is not None
        for label in graph.edge_labels():
            assert table.id_of(label) is not None


# ----------------------------------------------------------------------
# probes against the dict-path definitions
# ----------------------------------------------------------------------
def test_buckets_match_graph():
    graph = _small_graph()
    view = ColumnarFragment(graph)
    for label in graph.node_labels():
        assert view.nodes_with_label(label) == graph.nodes_with_label(label)
    assert view.nodes_with_label("no-such-label") == frozenset()


def test_filter_candidates_equals_dict_filter():
    graph = _small_graph()
    pattern = _pattern_for(graph).expanded()
    view = ColumnarFragment(graph)
    pool = sorted(graph.nodes(), key=str)
    for pattern_node in pattern.nodes():
        requirement = view.compile_requirement(pattern, pattern_node)
        survivors = view.filter_candidates(pool, requirement)
        expected = [
            node
            for node in pool
            if graph.node_label(node) == pattern.label(pattern_node)
            and degree_consistent(graph, node, pattern, pattern_node)
        ]
        assert survivors == expected
        for node in pool:
            assert view._dominates_unchecked(node, requirement) == (node in set(expected))


def test_unknown_pattern_label_filters_everything():
    graph = _small_graph()
    view = columnar_view(graph)
    alien = Pattern(nodes={"x": "label-not-in-graph"}, edges=[], x="x")
    requirement = view.compile_requirement(alien, alien.x)
    assert requirement.label_id == -1
    pool = sorted(graph.nodes(), key=str)
    assert view.filter_candidates(pool, requirement) == []
    # A matcher served by the view agrees with the raw reference: no match.
    assert VF2Matcher().match_set(graph, alien, candidates=pool) == set()
    assert ReferenceMatcher().match_set(graph, alien, candidates=pool) == set()


# ----------------------------------------------------------------------
# invalidation: patch overlays and recompiles
# ----------------------------------------------------------------------
def test_patched_view_answers_like_a_fresh_compile(monkeypatch):
    monkeypatch.setattr(columnar, "DELTA_REBUILD_FRACTION", 1.0)  # always patch
    graph = _small_graph(seed=5)
    pattern = _pattern_for(graph).expanded()
    view = ColumnarFragment(graph)
    for position in range(3):
        batch = random_update_batch(graph, size=6, seed=40 + position)
        batch.apply(graph)
        view.refresh()
        assert view._built_version == graph.version
        assert view.statistics.delta_applies > 0
        assert not view.is_stale
        for label in graph.node_labels():
            assert view.nodes_with_label(label) == graph.nodes_with_label(label)
        pool = sorted(graph.nodes(), key=str)
        for pattern_node in pattern.nodes():
            requirement = view.compile_requirement(pattern, pattern_node)
            assert view.filter_candidates(pool, requirement) == [
                node
                for node in pool
                if graph.node_label(node) == pattern.label(pattern_node)
                and degree_consistent(graph, node, pattern, pattern_node)
            ]


def test_compile_boundary_folds_overlays_into_the_arrays(monkeypatch):
    monkeypatch.setattr(columnar, "DELTA_REBUILD_FRACTION", 1.0)
    graph = _small_graph(seed=6)
    pattern = _pattern_for(graph).expanded()
    view = columnar_view(graph)  # registered: matchers probe it
    batch = random_update_batch(graph, size=6, seed=9)
    batch.apply(graph)
    view.refresh()
    if not view._overlay_labels:  # a net-empty batch leaves no overlays; force one
        graph.add_node("overlay-probe", sorted(graph.node_labels())[0])
        view.refresh()
    assert view._overlay_labels and view.statistics.builds == 1
    pool = sorted(graph.nodes(), key=str)
    survivors = view.filter_candidates(pool, view.compile_requirement(pattern, pattern.x))
    assert VF2Matcher().match_set(graph, pattern) == ReferenceMatcher().match_set(graph, pattern)
    view._build()  # the compile boundary: every row back in the arrays
    assert not (view._overlay_labels or view._overlay_profiles)
    assert view.filter_candidates(pool, view.compile_requirement(pattern, pattern.x)) == survivors


def test_rebuild_fraction_zero_always_recompiles(monkeypatch):
    monkeypatch.setattr(columnar, "DELTA_REBUILD_FRACTION", 0.0)
    graph = _small_graph(seed=7)
    view = ColumnarFragment(graph)
    builds_before = view.statistics.builds
    graph.add_node("fresh", sorted(graph.node_labels())[0])
    view.refresh()
    assert view.statistics.builds == builds_before + 1
    assert not view._overlay_labels and view._built_version == graph.version


def test_apply_delta_rejects_wrong_base_version():
    graph = _small_graph(seed=8)
    view = ColumnarFragment(graph)
    graph.add_node("one", sorted(graph.node_labels())[0])
    graph.add_node("two", sorted(graph.node_labels())[0])
    deltas = graph.deltas_since(view._built_version)
    assert deltas is not None and len(deltas) == 2
    assert not view.apply_delta(deltas[1])  # skips a version: refused
    assert view.apply_delta(deltas[0]) and view.apply_delta(deltas[1])
    assert view._built_version == graph.version


def test_probe_guard_refreshes_stale_views():
    graph = _small_graph(seed=9)
    view = ColumnarFragment(graph)
    label = sorted(graph.node_labels())[0]
    before = view.nodes_with_label(label)
    graph.add_node("guard-probe", label)
    assert view.nodes_with_label(label) == before | {"guard-probe"}


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_registry_memoises_and_discards():
    graph = _small_graph(seed=11)
    assert registered_columnar(graph) is None
    view = columnar_view(graph)
    assert columnar_view(graph) is view
    assert registered_columnar(graph) is view
    assert discard_columnar(graph)
    assert not discard_columnar(graph)
    assert registered_columnar(graph) is None


def test_view_holds_graph_weakly():
    view = columnar_view(_small_graph(seed=12))
    import gc

    gc.collect()
    from repro.exceptions import GraphError

    with pytest.raises(GraphError):
        _ = view.graph
