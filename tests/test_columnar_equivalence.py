"""Randomized equivalence: columnar matching == the naive reference, always.

The resident :class:`repro.graph.columnar.ColumnarFragment` is a frozen
re-encoding of the fragment (interned label ids, label buckets, a
precomputed profile matrix), so every probe must agree with the dict-backed
definitions byte for byte.  Three layers of evidence:

* a hypothesis suite drives random graphs through compile → random update
  batches → refresh (both the patch and the recompile policy) and checks
  label buckets, candidate filtering and view-served VF2 match sets against
  the dict-path oracles after every step — and, after a chain of patches, every
  probe (stores and lazily filled caches alike) against a fresh compile of
  the final graph;
* ~50 seeded random graph/pattern pairs run VF2 and guided
  search on a resident graph, requiring the
  matches of :class:`repro.testing.ReferenceMatcher` (raw probes, nothing
  resident);
* full DMine / EIP pipelines run across the execution backends, each held
  to the reference evaluation of the same rules.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import generate_gpars, most_frequent_predicates, synthetic_graph
from repro.exceptions import NodeNotFoundError
from repro.graph import Graph
from repro.graph import columnar
from repro.graph.columnar import ColumnarFragment, columnar_view
from repro.identification import identify_entities
from repro.matching import GuidedMatcher, VF2Matcher
from repro.matching.candidates import degree_consistent
from repro.metrics import evaluate_rule
from repro.mining import DMineConfig, dmine
from repro.parallel.executor import BACKENDS
from repro.pattern import Pattern, PatternEdge
from repro.stream import random_update_batch
from repro.testing import ReferenceMatcher, reference_identify, resident_label, resident_sketch

SEEDS = range(50)

NODE_LABELS = ["person", "city", "shop", "item"]
EDGE_LABELS = ["knows", "lives", "buys", "sells"]


# ----------------------------------------------------------------------
# hypothesis: compile -> random deltas -> refresh -> dict equality
# ----------------------------------------------------------------------
@st.composite
def random_graphs(draw, max_nodes: int = 14, max_extra_edges: int = 25) -> Graph:
    """Small random labelled directed graphs (idiom of test_properties.py)."""
    num_nodes = draw(st.integers(min_value=2, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    graph = Graph(name=f"random{seed}")
    for index in range(num_nodes):
        graph.add_node(f"n{index}", rng.choice(NODE_LABELS))
    num_edges = draw(st.integers(min_value=1, max_value=max_extra_edges))
    for _ in range(num_edges):
        source = f"n{rng.randrange(num_nodes)}"
        target = f"n{rng.randrange(num_nodes)}"
        if source != target:
            graph.add_edge(source, target, rng.choice(EDGE_LABELS))
    return graph


def _pattern_from_graph(graph: Graph, rng: random.Random, max_edges: int = 3) -> Pattern | None:
    """Lift a small connected subgraph of *graph* into a pattern."""
    anchors = [node for node in graph.nodes() if graph.neighbors(node)]
    if not anchors:
        return None
    anchor = rng.choice(sorted(anchors, key=str))
    node_map = {anchor: "x"}
    nodes = {"x": graph.node_label(anchor)}
    edges: list[PatternEdge] = []
    frontier = [anchor]
    for _ in range(rng.randint(1, max_edges)):
        base = rng.choice(frontier)
        incident = list(graph.out_edges(base)) + list(graph.in_edges(base))
        if not incident:
            continue
        edge = rng.choice(incident)
        other = edge.target if edge.source == base else edge.source
        if other not in node_map:
            node_map[other] = f"p{len(node_map)}"
            nodes[node_map[other]] = graph.node_label(other)
            frontier.append(other)
        edges.append(PatternEdge(node_map[edge.source], node_map[edge.target], edge.label))
    if not edges:
        return None
    return Pattern(nodes=nodes, edges=edges, x="x")


def _assert_view_matches_dicts(graph: Graph, view: ColumnarFragment, rng: random.Random):
    """Every columnar probe must agree with its dict-path definition.

    *view* is *graph*'s registered structure, so ``VF2Matcher`` answers
    through it while :class:`ReferenceMatcher` probes the raw graph.
    """
    for label in graph.node_labels():
        assert view.nodes_with_label(label) == graph.nodes_with_label(label)
    pattern = _pattern_from_graph(graph, rng)
    if pattern is None:
        return
    expanded = pattern.expanded()
    pool = sorted(graph.nodes(), key=str)
    for pattern_node in expanded.nodes():
        requirement = view.compile_requirement(expanded, pattern_node)
        expected = [
            node
            for node in pool
            if graph.node_label(node) == expanded.label(pattern_node)
            and degree_consistent(graph, node, expanded, pattern_node)
        ]
        assert view.filter_candidates(pool, requirement) == expected
    assert VF2Matcher().match_set(graph, pattern) == ReferenceMatcher().match_set(graph, pattern)


@given(
    graph=random_graphs(),
    seed=st.integers(min_value=0, max_value=10_000),
    always_patch=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_columnar_tracks_random_deltas(graph, seed, always_patch):
    """compile → batch_update → recompile-or-patch → equality, repeatedly."""
    rng = random.Random(seed)
    with pytest.MonkeyPatch.context() as patch:
        # A rebuild fraction of 1.0 forces the delta-patch path, 0.0 forces a
        # full recompile at every refresh; both must stay exact.
        patch.setattr(columnar, "DELTA_REBUILD_FRACTION", 1.0 if always_patch else 0.0)
        view = columnar_view(graph)
        _assert_view_matches_dicts(graph, view, rng)
        for _ in range(3):
            batch = random_update_batch(
                graph, size=rng.randint(1, 8), seed=rng.randrange(10_000)
            )
            batch.apply(graph)
            view.refresh()
            assert view._built_version == graph.version
            _assert_view_matches_dicts(graph, view, rng)


@given(graph=random_graphs(), seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_batch_update_then_recompile_equals_fresh_compile(graph, seed):
    """A patched-then-recompiled view is indistinguishable from a fresh one."""
    rng = random.Random(seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(columnar, "DELTA_REBUILD_FRACTION", 1.0)
        view = columnar_view(graph)  # registered: VF2 probes it
        batch = random_update_batch(
            graph, size=rng.randint(1, 8), seed=rng.randrange(10_000)
        )
        batch.apply(graph)  # applies as one batch_update internally
        view.refresh()
        view._build()  # the lifecycle-owned compile boundary
        fresh = ColumnarFragment(graph)
        assert not (view._overlay_labels or view._overlay_profiles)
        for label in graph.node_labels():
            assert view.nodes_with_label(label) == fresh.nodes_with_label(label)
        pattern = _pattern_from_graph(graph, rng)
        if pattern is not None:
            assert VF2Matcher().match_set(graph, pattern) == ReferenceMatcher().match_set(
                graph, pattern
            )


def _warm_caches(graph: Graph, view: ColumnarFragment) -> None:
    """Fill every lazy cache, so the next patch has entries to invalidate."""
    for node in graph.nodes():
        view.ball(node, 1)
        resident_sketch(view, node, 1)
        resident_sketch(view, node, 2)
        for label in EDGE_LABELS:
            view.out_neighbors(node, label)
            view.in_neighbors(node, label)


@given(graph=random_graphs(), seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_patched_structure_equals_fresh_compile_on_every_probe(graph, seed):
    """A chain of patches leaves *every* probe equal to a fresh compile's.

    Stores and caches alike: label buckets, node labels, decoded profiles
    and per-node profile domination, the three frozen adjacency views and
    sketches at two depths — with all caches warm before each batch, so a
    missed invalidation would surface as a stale entry.
    """
    rng = random.Random(seed)
    removed: set = set()
    with pytest.MonkeyPatch.context() as patch:
        # 1.0: patch unless a batch touches more nodes than the graph keeps.
        patch.setattr(columnar, "DELTA_REBUILD_FRACTION", 1.0)
        view = ColumnarFragment(graph)
        for _ in range(3):
            _warm_caches(graph, view)
            before = set(graph.nodes())
            random_update_batch(
                graph, size=rng.randint(1, 8), seed=rng.randrange(10_000)
            ).apply(graph)
            removed |= before - set(graph.nodes())
            view.refresh()
        fresh = ColumnarFragment(graph)
    removed -= set(graph.nodes())
    for label in NODE_LABELS:
        assert view.nodes_with_label(label) == fresh.nodes_with_label(label)
    pattern = _pattern_from_graph(graph, rng)
    expanded = pattern.expanded() if pattern is not None else None
    for node in sorted(graph.nodes(), key=str):
        assert resident_label(view, node) == resident_label(fresh, node) == graph.node_label(node)
        assert view.profile(node) == fresh.profile(node)
        assert view.ball(node, 2) == fresh.ball(node, 2)
        for label in EDGE_LABELS:
            assert view.out_neighbors(node, label) == fresh.out_neighbors(node, label)
            assert view.in_neighbors(node, label) == fresh.in_neighbors(node, label)
        for hops in (1, 2):
            assert resident_sketch(view, node, hops) == resident_sketch(fresh, node, hops)
        if expanded is not None:
            for pattern_node in expanded.nodes():
                verdict = degree_consistent(graph, node, expanded, pattern_node)
                assert view.degree_consistent(node, expanded, pattern_node) == verdict
                assert fresh.degree_consistent(node, expanded, pattern_node) == verdict
    for node in removed:
        for probe in (lambda node: resident_label(view, node), view.profile, lambda node: view.ball(node, 1)):
            with pytest.raises(NodeNotFoundError):
                probe(node)


# ----------------------------------------------------------------------
# 50 seeds: every matcher on a columnar-resident graph == the reference
# ----------------------------------------------------------------------
def _workload(seed: int):
    """One seeded random (graph, patterns) pair, small enough to enumerate.

    The graph comes back resident the way an executor leaves a fragment:
    its freshly compiled structure registered.
    """
    graph = synthetic_graph(
        num_nodes=40 + (seed % 5) * 10,
        num_edges=120 + (seed % 7) * 30,
        num_node_labels=4 + (seed % 3),
        num_edge_labels=3,
        seed=seed,
    )
    predicate = most_frequent_predicates(graph, top=1)[0]
    rules = generate_gpars(
        graph, predicate, count=2, max_pattern_edges=3, d=2, seed=seed
    )
    patterns = [rule.antecedent for rule in rules] + [rule.pr_pattern() for rule in rules]
    columnar_view(graph)
    return graph, patterns


def _canonical_mappings(mappings: list[dict]) -> list[tuple]:
    return sorted(
        tuple(sorted((str(k), str(v)) for k, v in mapping.items()))
        for mapping in mappings
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_vf2_columnar_equals_dict(seed):
    graph, patterns = _workload(seed)
    plain = ReferenceMatcher()
    columnar = VF2Matcher()
    for pattern in patterns:
        assert columnar.match_set(graph, pattern) == plain.match_set(graph, pattern)
        expected = plain.find_all(graph, pattern)
        actual = columnar.find_all(graph, pattern)
        assert _canonical_mappings(actual) == _canonical_mappings(expected)


@pytest.mark.parametrize("seed", SEEDS)
def test_guided_columnar_equals_dict(seed):
    graph, patterns = _workload(seed)
    plain = ReferenceMatcher()
    columnar = GuidedMatcher()
    for pattern in patterns:
        assert columnar.match_set(graph, pattern) == plain.match_set(graph, pattern)


# ----------------------------------------------------------------------
# full pipelines: every backend equal to the reference
# ----------------------------------------------------------------------
def _eip_fingerprint(result):
    return (
        sorted(map(str, result.identified)),
        sorted(
            (rule.name, round(confidence, 9))
            for rule, confidence in result.rule_confidences.items()
        ),
        sorted(
            (rule.name, tuple(sorted(map(str, matches))))
            for rule, matches in result.rule_matches.items()
        ),
    )


def test_eip_one_fingerprint_across_backends_columnar_and_numpy_modes():
    graph = synthetic_graph(150, 450, num_node_labels=6, num_edge_labels=4, seed=0)
    predicate = most_frequent_predicates(graph, top=1)[0]
    rules = generate_gpars(graph, predicate, count=3, max_pattern_edges=3, d=2, seed=0)

    expected = _eip_fingerprint(reference_identify(graph, rules, eta=0.5))
    for backend in BACKENDS:
        result = identify_entities(
            graph,
            rules,
            eta=0.5,
            num_workers=2,
            algorithm="match",
            backend=backend,
            executor_workers=2,
        )
        assert _eip_fingerprint(result) == expected, backend


@pytest.mark.parametrize("backend", BACKENDS)
def test_dmine_equivalent_across_columnar_modes(backend):
    """Mined rules carry their reference supports on every backend."""
    graph = synthetic_graph(150, 450, num_node_labels=6, num_edge_labels=4, seed=2)
    predicate = most_frequent_predicates(graph, top=1)[0]
    config = DMineConfig(
        k=3,
        d=2,
        sigma=1,
        num_workers=2,
        max_edges=2,
        max_extensions_per_rule=6,
        max_rules_per_round=10,
        backend=backend,
        executor_workers=2,
    )
    reference = ReferenceMatcher()
    result = dmine(graph, predicate, config)
    assert result.all_rules
    for rule, info in result.all_rules.items():
        evaluation = evaluate_rule(graph, rule, matcher=reference)
        assert info.support == evaluation.supp_r, rule.name
        assert frozenset(info.matches) == evaluation.rule_matches, rule.name
        assert info.confidence == pytest.approx(evaluation.confidence), rule.name
