"""A tick re-verifies the (pattern, centre) pairs its change can reach.

``repro.stream.identifier.reachable_centres`` walks each changed element
back along one x→u path per pattern node, so a tick verifies a pattern only
at the centres whose stored verdict that change can flip.  These tests hold
the walk to :func:`repro.testing.apply_with_coverage` — every verdict a tick
changed (stored before against the naive reference after) lies in the
tick's pairs, and every stored verdict equals the reference's afterwards —
over random graphs, Σ and batches; check the rules that keep the d-hop
region (copies, census-split parts); and pin the pair counter.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.datasets import generate_gpars, most_frequent_predicates, pokec_like, synthetic_graph
from repro.graph import Graph
from repro.identification.eip import EIPConfig
from repro.obs.registry import registry
from repro.parallel.executor import BACKENDS
from repro.pattern.gpar import GPAR
from repro.pattern.pattern import Pattern
from repro.stream import StreamingIdentifier, UpdateBatch, UpdateOp
from repro.testing import apply_with_coverage, counter_value, eip_fingerprint, reference_recheck

PREDICATE = "user:like_book:personal development"


def _churn(mirror: Graph, rng: random.Random, size: int) -> UpdateBatch:
    """*size* valid ops against *mirror* (which they mutate): edge adds and
    removals, relabels, node removals and additions, and cancel-outs — an
    edge removed and re-added inside the batch."""
    labels = sorted(mirror.node_labels())
    edge_labels = sorted(mirror.edge_labels())
    ops: list[UpdateOp] = []
    while len(ops) < size:
        nodes = sorted(mirror.nodes(), key=str)
        edges = sorted(((e.source, e.target, e.label) for e in mirror.edges()), key=str)
        kind = rng.randrange(6)
        if kind == 0:
            edge = (rng.choice(nodes), rng.choice(nodes), rng.choice(edge_labels))
            if edge[0] == edge[1] or mirror.has_edge(*edge):
                continue
            fresh = [UpdateOp.add_edge(*edge)]
        elif kind in (1, 5) and edges:
            edge = rng.choice(edges)
            fresh = [UpdateOp.remove_edge(*edge)]
            if kind == 5:
                fresh.append(UpdateOp.add_edge(*edge))
        elif kind == 2:
            fresh = [UpdateOp.relabel_node(rng.choice(nodes), rng.choice(labels))]
        elif kind == 3 and len(nodes) > 4:
            fresh = [UpdateOp.remove_node(rng.choice(nodes))]
        else:
            node = f"new{mirror.version}-{len(ops)}"
            fresh = [
                UpdateOp.add_node(node, rng.choice(labels)),
                UpdateOp.add_edge(node, rng.choice(nodes), rng.choice(edge_labels)),
            ]
        for op in fresh:
            op.apply(mirror)
        ops.extend(fresh)
    return UpdateBatch(ops=tuple(ops))


def _assert_covered(identifier, batch):
    report, pairs, problems = apply_with_coverage(identifier, batch)
    assert not problems, problems[:5]
    return report, pairs


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    nodes=st.integers(15, 40),
    density=st.integers(2, 4),
    sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4),
)
def test_every_changed_verdict_is_rechecked(seed, nodes, density, sizes):
    graph = synthetic_graph(nodes, nodes * density, num_node_labels=3, num_edge_labels=3, seed=seed)
    predicate = most_frequent_predicates(graph, top=1)[0]
    rules = generate_gpars(graph, predicate, count=3, max_pattern_edges=3, d=2, seed=seed)
    mirror = graph.copy()
    rng = random.Random(seed)
    config = EIPConfig(eta=0.5, num_workers=2, seed=0)
    with StreamingIdentifier(graph, rules, config=config) as identifier:
        for size in sizes:
            _assert_covered(identifier, _churn(mirror, rng, size))
        fresh = api.identify(identifier.graph.copy(), rules, config=config)
        assert eip_fingerprint(identifier.result) == eip_fingerprint(fresh)


def _mixed_sigma(graph: Graph) -> tuple[list[GPAR], list[GPAR]]:
    """(walked rules, d-hop rules): generated connected rules, then a free-y
    rule, an edged census-split rule and a rule with copies."""
    connected = generate_gpars(graph, api.parse_predicate(PREDICATE), count=4, max_pattern_edges=3, d=2, seed=3)

    def rule(nodes, edges, copies=None):
        pattern = Pattern(nodes=nodes, edges=edges, x="x", y="y", copies=copies)
        return GPAR(pattern, consequent_label="like_book", validate=False)

    book = "personal development"
    fallback = [
        rule({"x": "user", "v": "user", "y": book}, [("x", "v", "follow")]),
        rule(
            {"x": "user", "v": "user", "y": book, "z": "user"},
            [("x", "v", "follow"), ("z", "y", "like_book")],
        ),
        rule({"x": "user", "v": "user", "y": book}, [("x", "v", "follow"), ("v", "y", "like_book")], {"v": 2}),
    ]
    return connected, fallback


@pytest.mark.parametrize("backend", BACKENDS)
def test_copies_and_census_rules_keep_the_d_hop_region(backend):
    graph = pokec_like(60, 3, seed=7)
    walked, fallback = _mixed_sigma(graph)
    rules = walked + fallback
    config = EIPConfig(eta=0.5, num_workers=2, seed=0, backend=backend, executor_workers=2)
    mirror = graph.copy()
    rng = random.Random(5)
    smaller = 0
    with StreamingIdentifier(graph.copy(), rules, config=config) as identifier:
        assert set(identifier._census_parts) == set(fallback[:2])
        for _tick in range(4):
            report, pairs = _assert_covered(identifier, _churn(mirror, rng, 4))
            region = reference_recheck(identifier, report.delta)
            for index, (antecedents, prs, _classify) in pairs.items():
                for rule_index, rule in enumerate(rules):
                    for side in (antecedents, prs):
                        centres = set(side.get(rule_index, ()))
                        if rule in fallback:
                            assert centres == region[index], rule.name
                        else:
                            assert centres <= region[index], rule.name
                            smaller += len(centres) < len(region[index])
            fresh = api.identify(identifier.graph.copy(), rules, config=EIPConfig(eta=0.5, num_workers=2, seed=0))
            assert eip_fingerprint(identifier.result) == eip_fingerprint(fresh)
    assert smaller, "the walked rules must recheck fewer centres than the region somewhere"


def test_verifications_count_the_pairs_a_tick_rechecks():
    graph = pokec_like(60, 3, seed=7)
    rules = generate_gpars(graph, api.parse_predicate(PREDICATE), count=6, max_pattern_edges=3, d=2, seed=5)
    mirror = graph.copy()
    rng = random.Random(9)
    with StreamingIdentifier(graph.copy(), rules, config=EIPConfig(eta=0.5, num_workers=2)) as identifier:
        reported = region = 0
        for _tick in range(6):
            before = counter_value(registry(), "repro_stream_verifications_total")
            report, by_fragment = _assert_covered(identifier, _churn(mirror, rng, 4))
            assert counter_value(registry(), "repro_stream_verifications_total") - before == report.verifications
            pairs = by_fragment.values()
            assert report.verifications == sum(
                len(centres) for antecedents, prs, _ in pairs for centres in (*antecedents.values(), *prs.values())
            )
            assert report.rechecked_centers == sum(
                len(set().union(*antecedents.values(), *prs.values())) for antecedents, prs, _ in pairs
            )
            reported += report.verifications
            region += 2 * len(rules) * sum(map(len, reference_recheck(identifier, report.delta).values()))
        assert 0 < reported < region


def test_delta_carries_the_labels_before_the_tick():
    graph = Graph()
    for node, label in (("a", "user"), ("b", "user"), ("c", "book")):
        graph.add_node(node, label)
    graph.add_edge("a", "c", "like_book")
    delta = UpdateBatch.of(
        UpdateOp.relabel_node("a", "dormant"),
        UpdateOp.remove_node("c"),
        UpdateOp.relabel_node("b", "book"),
        UpdateOp.relabel_node("b", "user"),
    ).apply(graph)
    assert delta.old_labels == {("a", "user"), ("c", "book")}
