"""Randomized equivalence: indexed matching == the naive reference, always.

The resident :class:`repro.graph.columnar.ColumnarFragment` is a pure
re-encoding, so every matcher probing a resident graph must return
byte-identical matches and match counts to
:class:`repro.testing.ReferenceMatcher`, which probes the raw graph and
keeps nothing.  This suite drives ~50 seeded random graph/pattern pairs
through VF2 and guided search on a resident graph whose
structure has been *delta-patched* — overlays present — so the overlay
rows and the frozen adjacency views carry the touched nodes' queries
(tests/test_columnar_equivalence.py runs the same seeds on a freshly
compiled structure).  It additionally runs full DMine / EIP pipelines
across both execution backends, holding each to the reference
evaluation of the same rules.
"""

from __future__ import annotations

import pytest

from repro.datasets import generate_gpars, most_frequent_predicates, synthetic_graph
from repro.graph import columnar_view
from repro.identification import identify_entities
from repro.matching import GuidedMatcher, VF2Matcher
from repro.metrics import evaluate_rule
from repro.mining import DMineConfig, dmine
from repro.parallel.executor import BACKENDS
from repro.testing import ReferenceMatcher, reference_identify

SEEDS = range(50)


def _workload(seed: int):
    """One seeded random (graph, patterns) pair, small enough to enumerate.

    The graph comes back resident and patched (one node and edge added after
    the compile), so the production matchers below read overlay rows beside
    the compiled arrays.
    """
    graph = synthetic_graph(
        num_nodes=40 + (seed % 5) * 10,
        num_edges=120 + (seed % 7) * 30,
        num_node_labels=4 + (seed % 3),
        num_edge_labels=3,
        seed=seed,
    )
    resident = columnar_view(graph)  # a two-node delta patches at the default fraction
    anchor = min(graph.nodes(), key=str)
    graph.add_node("patched-in", graph.node_label(anchor))
    graph.add_edge("patched-in", anchor, min(graph.edge_labels()))
    resident.refresh()
    assert resident._overlay_labels and resident.statistics.builds == 1
    predicate = most_frequent_predicates(graph, top=1)[0]
    rules = generate_gpars(
        graph, predicate, count=2, max_pattern_edges=3, d=2, seed=seed
    )
    patterns = [rule.antecedent for rule in rules] + [rule.pr_pattern() for rule in rules]
    return graph, patterns


def _canonical_mappings(mappings: list[dict]) -> list[tuple]:
    """A total, byte-stable representation of an enumeration of matches."""
    return sorted(
        tuple(sorted((str(k), str(v)) for k, v in mapping.items()))
        for mapping in mappings
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_vf2_indexed_equals_unindexed(seed):
    graph, patterns = _workload(seed)
    plain = ReferenceMatcher()
    indexed = VF2Matcher()
    for pattern in patterns:
        assert indexed.match_set(graph, pattern) == plain.match_set(graph, pattern)
        expected = plain.find_all(graph, pattern)
        actual = indexed.find_all(graph, pattern)
        assert len(actual) == len(expected)
        assert _canonical_mappings(actual) == _canonical_mappings(expected)


@pytest.mark.parametrize("seed", SEEDS)
def test_guided_indexed_equals_unindexed(seed):
    graph, patterns = _workload(seed)
    plain = ReferenceMatcher()
    indexed = GuidedMatcher()
    for pattern in patterns:
        assert indexed.match_set(graph, pattern) == plain.match_set(graph, pattern)
        # Anchored enumeration must agree mapping-for-mapping as well.
        anchors = sorted(
            graph.nodes_with_label(pattern.expanded().label(pattern.expanded().x)),
            key=str,
        )[:5]
        for anchor in anchors:
            assert _canonical_mappings(
                list(indexed.iter_matches_at(graph, pattern.expanded(), anchor))
            ) == _canonical_mappings(
                list(plain.iter_matches_at(graph, pattern.expanded(), anchor))
            )


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


@pytest.mark.parametrize("seed", [0, 1])
def test_eip_equivalent_across_backends_and_index_modes(seed):
    """Match results on every backend equal the whole-graph reference answer."""
    graph = synthetic_graph(150, 450, num_node_labels=6, num_edge_labels=4, seed=seed)
    predicate = most_frequent_predicates(graph, top=1)[0]
    rules = generate_gpars(graph, predicate, count=3, max_pattern_edges=3, d=2, seed=seed)

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
def test_dmine_equivalent_across_index_modes(backend):
    """Every rule DMine reports carries its reference support and matches."""
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
    result = dmine(graph, predicate, config)
    assert result.all_rules
    reference = ReferenceMatcher()
    for rule, info in result.all_rules.items():
        evaluation = evaluate_rule(graph, rule, matcher=reference)
        assert info.support == evaluation.supp_r, rule.name
        assert frozenset(info.matches) == evaluation.rule_matches, rule.name
        assert info.confidence == pytest.approx(evaluation.confidence), rule.name
