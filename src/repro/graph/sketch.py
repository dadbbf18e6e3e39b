"""k-hop neighbourhood sketches for guided search (paper Section 5.2).

For each node ``v`` the sketch ``K(v)`` is a list ``[(1, D1), ..., (k, Dk)]``
where ``Di`` is the frequency distribution of node labels at exactly hop ``i``
from ``v`` (undirected).  The optimised ``Match`` algorithm uses sketches in
two ways:

* **pruning** — a graph node ``v`` cannot match a pattern node ``u`` if for
  some hop the pattern requires more nodes of a label than ``v`` has
  (:func:`sketch_dominates` is False);
* **ordering** — among surviving candidates, the one with the largest label
  surplus (:func:`sketch_score`) is tried first.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Hashable

from repro.graph.graph import Graph
from repro.graph.neighborhood import bfs_distances

NodeId = Hashable


@dataclass(frozen=True)
class KHopSketch:
    """Per-hop node-label histograms around a node."""

    node: NodeId
    hops: int
    distributions: tuple[dict[str, int], ...] = field(default_factory=tuple)

    def distribution_at(self, hop: int) -> dict[str, int]:
        """Label histogram at exactly *hop* (1-based); empty dict if beyond."""
        if hop < 1:
            raise ValueError(f"hop must be >= 1, got {hop}")
        if hop > len(self.distributions):
            return {}
        return self.distributions[hop - 1]

    def total_count(self) -> int:
        """Total number of (node, hop) occurrences summarised by the sketch."""
        return sum(sum(dist.values()) for dist in self.distributions)


def empty_sketch(node: NodeId, hops: int) -> KHopSketch:
    """The sketch of a node with no neighbours: all-empty hop histograms.

    Used by the :class:`repro.graph.columnar.ColumnarFragment` sketch cache as
    a fast path for isolated nodes, skipping the BFS round-trip entirely.
    """
    if hops < 1:
        raise ValueError(f"hops must be >= 1, got {hops}")
    return KHopSketch(node=node, hops=hops, distributions=tuple({} for _ in range(hops)))


def build_sketch(graph: Graph, node: NodeId, hops: int) -> KHopSketch:
    """Compute the k-hop sketch of *node* in *graph*."""
    if hops < 1:
        raise ValueError(f"hops must be >= 1, got {hops}")
    distances = bfs_distances(graph, node, radius=hops, directed=False)
    per_hop: list[Counter] = [Counter() for _ in range(hops)]
    for other, distance in distances.items():
        if distance == 0:
            continue
        per_hop[distance - 1][graph.node_label(other)] += 1
    return KHopSketch(
        node=node,
        hops=hops,
        distributions=tuple(dict(counter) for counter in per_hop),
    )


def sketch_dominates(candidate: KHopSketch, required: KHopSketch) -> bool:
    """Whether *candidate* has at least the label counts *required* demands.

    Cumulative comparison: a pattern node's neighbour at hop ``i`` may sit at
    any hop ``<= i`` around the graph candidate (shorter paths through denser
    graph regions), so we compare prefix sums rather than exact hop slices.
    Exact per-hop comparison would wrongly reject valid matches.
    """
    hops = max(candidate.hops, required.hops)
    candidate_cumulative: Counter = Counter()
    required_cumulative: Counter = Counter()
    for hop in range(1, hops + 1):
        candidate_cumulative.update(candidate.distribution_at(hop))
        required_cumulative.update(required.distribution_at(hop))
        for label, needed in required_cumulative.items():
            if candidate_cumulative.get(label, 0) < needed:
                return False
    return True


def sketch_score(candidate: KHopSketch, required: KHopSketch) -> int:
    """Total label-frequency surplus of *candidate* over *required*.

    The paper's ``f(u', v') = Σ_i (Di - D'i)``: larger means the candidate has
    more spare neighbourhood structure and is more likely to extend to a full
    match, so guided search visits high-score candidates first.
    """
    hops = max(candidate.hops, required.hops)
    score = 0
    for hop in range(1, hops + 1):
        candidate_dist = candidate.distribution_at(hop)
        required_dist = required.distribution_at(hop)
        labels = set(candidate_dist) | set(required_dist)
        for label in labels:
            score += candidate_dist.get(label, 0) - required_dist.get(label, 0)
    return score
