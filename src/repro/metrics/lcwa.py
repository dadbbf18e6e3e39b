"""Local closed world assumption statistics (paper Section 3).

For a predicate ``q(x, y)`` (x-label, edge label q, y-label/value binding)
the LCWA classifies candidate nodes ``u`` carrying the x-label into

* **positive** — ``u ∈ Pq(x, G)``: u has a q-edge to a node satisfying the
  search condition on y;
* **negative** — u has at least one edge labelled q but none of them reaches
  a node satisfying y's condition (the graph is locally complete about q at
  u, and q(u, ·) does not hold for the target item);
* **unknown** — u has no edge labelled q at all; the graph knows nothing
  about q at u, so u is *not* counted as a counter-example.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.graph.graph import Graph
from repro.pattern.pattern import Pattern

NodeId = Hashable


@dataclass(frozen=True)
class PredicateStats:
    """Per-(graph, predicate) LCWA statistics, computed once and reused.

    Attributes
    ----------
    positives:
        ``Pq(x, G)`` — nodes with a q-edge to a node satisfying y.
    negatives:
        Nodes counted by ``supp(q̄, G)``: right label, some q-edge, but not
        in *positives*.
    unknown:
        Nodes with the right label and no q-edge at all.
    """

    x_label: str
    q_label: str
    y_label: str
    positives: frozenset
    negatives: frozenset
    unknown: frozenset

    @property
    def supp_q(self) -> int:
        """``supp(q, G) = |Pq(x, G)|``."""
        return len(self.positives)

    @property
    def supp_q_bar(self) -> int:
        """``supp(q̄, G)``: number of LCWA-negative nodes."""
        return len(self.negatives)

    @property
    def normalizer(self) -> int:
        """``N = supp(q, G) * supp(q̄, G)``, the confidence normaliser of DMP."""
        return self.supp_q * self.supp_q_bar


def predicate_stats(graph: Graph, q_pattern: Pattern) -> PredicateStats:
    """Compute LCWA statistics for the single-edge predicate pattern ``Pq``.

    *q_pattern* must be a single-edge pattern ``x --q--> y`` (as produced by
    :meth:`repro.pattern.GPAR.q_pattern`); the labels of x and y are the
    search conditions, so value bindings on y are honoured.
    """
    edges = q_pattern.edges()
    if len(edges) != 1:
        raise ValueError(
            f"predicate pattern must have exactly one edge, got {len(edges)}"
        )
    edge = edges[0]
    x_label = q_pattern.label(q_pattern.x)
    y_label = q_pattern.label(q_pattern.y) if q_pattern.y is not None else q_pattern.label(edge.target)
    q_label = edge.label

    positives: set[NodeId] = set()
    negatives: set[NodeId] = set()
    unknown: set[NodeId] = set()
    for node in graph.nodes_with_label(x_label):
        targets = graph.out_neighbors(node, q_label)
        if not targets:
            unknown.add(node)
            continue
        if any(graph.node_label(target) == y_label for target in targets):
            positives.add(node)
        else:
            negatives.add(node)
    return PredicateStats(
        x_label=x_label,
        q_label=q_label,
        y_label=y_label,
        positives=frozenset(positives),
        negatives=frozenset(negatives),
        unknown=frozenset(unknown),
    )


def predicate_stats_over(
    graph: Graph,
    q_pattern: Pattern,
    candidates,
) -> PredicateStats:
    """LCWA statistics restricted to a given candidate set.

    Workers call this with their *owned* centre nodes so the per-fragment
    cost is proportional to the owned work, not to the fragment size (border
    nodes are replicated across fragments and must not be re-classified by
    every worker).
    """
    edges = q_pattern.edges()
    if len(edges) != 1:
        raise ValueError(
            f"predicate pattern must have exactly one edge, got {len(edges)}"
        )
    edge = edges[0]
    x_label = q_pattern.label(q_pattern.x)
    y_label = q_pattern.label(q_pattern.y) if q_pattern.y is not None else q_pattern.label(edge.target)
    q_label = edge.label

    positives: set[NodeId] = set()
    negatives: set[NodeId] = set()
    unknown: set[NodeId] = set()
    for node in candidates:
        if not graph.has_node(node) or graph.node_label(node) != x_label:
            continue
        targets = graph.out_neighbors(node, q_label)
        if not targets:
            unknown.add(node)
        elif any(graph.node_label(target) == y_label for target in targets):
            positives.add(node)
        else:
            negatives.add(node)
    return PredicateStats(
        x_label=x_label,
        q_label=q_label,
        y_label=y_label,
        positives=frozenset(positives),
        negatives=frozenset(negatives),
        unknown=frozenset(unknown),
    )


def q_bar_intersection(q_bar_nodes: frozenset, antecedent_matches: set) -> set:
    """``Qq̄(x, G)``: antecedent matches that are LCWA-negative for q.

    ``supp(Qq̄, G)`` is the size of this set — the denominator term that makes
    the Bayes-factor confidence discriminant.
    """
    return set(q_bar_nodes) & set(antecedent_matches)
