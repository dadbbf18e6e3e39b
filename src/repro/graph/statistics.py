"""Descriptive statistics over graphs: the single-edge pattern ranking
behind :func:`repro.datasets.most_frequent_predicates`."""

from __future__ import annotations

from collections import Counter

from repro.graph.graph import Graph


def most_frequent_edge_patterns(graph: Graph, top: int = 20) -> list[tuple[str, str, str, int]]:
    """The *top* most frequent single-edge patterns.

    Returns tuples ``(source_label, edge_label, target_label, count)`` sorted
    by decreasing count.  DMine's default seeding uses the most frequent
    single-edge patterns of the data graph (paper Section 6, Exp-1).
    """
    counter: Counter = Counter()
    for edge in graph.edges():
        key = (
            graph.node_label(edge.source),
            edge.label,
            graph.node_label(edge.target),
        )
        counter[key] += 1
    # Ties break on the label triple, not Counter insertion order, so the
    # ranking depends only on graph content (edge iteration order follows
    # adjacency-set hash order, which varies across processes).
    ranked = sorted(counter.items(), key=lambda item: (-item[1], item[0]))[:top]
    return [
        (source_label, edge_label, target_label, count)
        for (source_label, edge_label, target_label), count in ranked
    ]
