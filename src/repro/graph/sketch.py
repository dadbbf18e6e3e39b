"""k-hop neighbourhood sketches for guided search (paper Section 5.2).

For each node ``v`` the sketch ``K(v)`` summarises the frequency
distribution ``Di`` of node labels at exactly hop ``i`` from ``v``
(undirected), for ``i = 1..k``.  The optimised ``Match`` algorithm uses
sketches for **pruning**: a graph node ``v`` cannot match a pattern node
``u`` if for some hop the pattern requires more nodes of a label than ``v``
has (:func:`sketch_dominates` is False).  The paper's second use, trying
the candidate with the largest label surplus ``f(u′, v′)`` first, is not
applied (see :mod:`repro.matching.guided`).

The test compares *cumulative* counts, so a sketch stores its per-hop
prefix sums ``D1 + … + Di`` and its total instead of the raw histograms.
:func:`build_sketch` is the set-at-a-time reference; the resident structure
keeps a node's hop rings instead and answers the test by popcount against
the current label masks (:class:`repro.graph.neighborhood.Neighborhoods`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.graph.graph import Graph
from repro.exceptions import NodeNotFoundError

NodeId = Hashable


@dataclass(frozen=True)
class KHopSketch:
    """Cumulative per-hop node-label histograms around a node.

    ``prefix[i - 1]`` counts, per label, the nodes within ``i`` hops (the
    node itself excluded); ``total`` is ``Σ_i |Di|``, the number of nodes
    within ``hops`` hops.
    """

    node: NodeId
    hops: int
    prefix: tuple[dict[str, int], ...]
    total: int


def empty_sketch(node: NodeId, hops: int) -> KHopSketch:
    """The sketch of a node with no neighbours: all-empty hop histograms.

    Used by the :class:`repro.graph.columnar.ColumnarFragment` sketch cache as
    a fast path for isolated nodes, skipping the BFS round-trip entirely.
    """
    if hops < 1:
        raise ValueError(f"hops must be >= 1, got {hops}")
    return KHopSketch(node=node, hops=hops, prefix=tuple({} for _ in range(hops)), total=0)


def build_sketch(graph: Graph, node: NodeId, hops: int, neighbors=None) -> KHopSketch:
    """Compute the k-hop sketch of *node* in *graph* (*neighbors*: the BFS's
    frontier source, see :func:`~repro.graph.neighborhood.bfs_levels`)."""
    from repro.graph.neighborhood import bfs_levels  # that module builds on this one

    if hops < 1:
        raise ValueError(f"hops must be >= 1, got {hops}")
    if not graph.has_node(node):
        raise NodeNotFoundError(node)
    levels = bfs_levels(graph, (node,), hops, neighbors)
    prefix: list[dict[str, int]] = [{} for _ in range(hops)]
    for exact, level in zip(prefix, levels[1:]):
        for label in map(graph.node_label, level):
            exact[label] = exact.get(label, 0) + 1
    for nearer, within in zip(prefix, prefix[1:]):  # exact-hop counts -> prefix sums, in hop order
        for label, count in nearer.items():
            within[label] = within.get(label, 0) + count
    return KHopSketch(node=node, hops=hops, prefix=tuple(prefix), total=sum(map(len, levels)) - 1)


def sketch_dominates(candidate: KHopSketch, required: KHopSketch) -> bool:
    """Whether *candidate* has at least the label counts *required* demands.

    Cumulative comparison: a pattern node's neighbour at hop ``i`` may sit at
    any hop ``<= i`` around the graph candidate (shorter paths through denser
    graph regions), so we compare prefix sums rather than exact hop slices.
    Exact per-hop comparison would wrongly reject valid matches.  Only the
    *required* prefix sums are walked; past the candidate's last hop its
    counts stay what they were there.
    """
    available = candidate.prefix
    last = len(available) - 1
    for hop, needed in enumerate(required.prefix):
        within = available[hop if hop < last else last]
        for label, count in needed.items():
            if within.get(label, 0) < count:
                return False
    return True

