"""Data-locality matching inside ``Gd(vx)`` (paper Sections 4.2 and 5.1).

For any pattern of radius ``d`` at x, a node ``vx`` matches x in G iff it
matches x in the d-neighbourhood ``Gd(vx)``.  Restricting the search space to
the (typically small) ball is what makes per-candidate work independent of
``|G|`` and is the basis of the parallel-scalability argument.
"""

from __future__ import annotations

from typing import Hashable

from repro.graph.graph import Graph
from repro.graph.neighborhood import ball
from repro.matching.base import Matcher, resident_view
from repro.pattern.pattern import Pattern
from repro.pattern.radius import pattern_radius

NodeId = Hashable


class LocalityMatcher(Matcher):
    """Wrap another matcher so anchored queries run inside ``Gd(vx)``.

    Parameters
    ----------
    inner:
        The matcher performing the actual search (VF2 or guided).
    radius:
        Ball radius ``d``; when ``None`` the radius of the pattern at x is
        used per query (the tight, always-correct choice).

    Extracted neighbourhoods are cached per (graph, node, radius): the same
    candidate is probed by many rules (EIP with a set Σ).

    Notes
    -----
    The resident :class:`repro.graph.columnar.ColumnarFragment` machinery is
    *fragment*-resident: extracted d-balls are transient per-candidate
    subgraphs, and eagerly compiling each one costs more than the handful of
    probes it would serve.  Balls are therefore never registered, and the
    inner matcher — which probes whatever is resident for the graph it is
    handed — searches them raw (the label pool of anchored ``match_set``
    queries still comes from the data graph's resident structure).
    """

    def __init__(self, inner: Matcher, radius: int | None = None) -> None:
        super().__init__()
        self.inner = inner
        self.radius = radius
        # The pool prefilter of match_set must mirror the inner matcher's
        # semantics (a disVF2 inner must pay the unfiltered search).
        self._columnar_prefilter = getattr(inner, "_columnar_prefilter", True)
        # Keyed by the graph object itself (identity hash) so cached balls
        # keep their source graph alive and ids are never reused; each entry
        # is pinned to the Graph.version it was extracted at, so a graph
        # mutated between probes (repro.stream update batches) re-extracts
        # instead of serving a stale neighbourhood.
        self._ball_cache: dict[tuple[Graph, NodeId, int], tuple[int, Graph]] = {}

    def _ball(self, graph: Graph, anchor_value: NodeId, radius: int) -> Graph:
        # The BFS half of the extraction runs on the resident structure's
        # neighbourhood kernel when the graph has one (Graph.neighbors
        # allocates a fresh set per visited node).
        resident = resident_view(graph)
        key = (graph, anchor_value, radius)
        entry = self._ball_cache.get(key)
        if entry is not None and entry[0] == graph.version and not graph.in_batch:
            return entry[1]
        nodes = ball(graph, anchor_value, radius) if resident is None else resident.ball(anchor_value, radius)
        extracted = graph.induced_subgraph(nodes, name=f"{graph.name}|G{radius}({anchor_value})")
        if not graph.in_batch:  # never pin a half-applied batch state
            self._ball_cache[key] = (graph.version, extracted)
        return extracted

    def find_match_at(self, graph: Graph, pattern: Pattern, anchor_value: NodeId) -> dict | None:
        if not graph.has_node(anchor_value):
            return None
        expanded = pattern.expanded()
        radius = self.radius if self.radius is not None else pattern_radius(expanded, expanded.x)
        mapping = self.inner.find_match_at(self._ball(graph, anchor_value, radius), expanded, anchor_value)
        self.statistics.merge(self.inner.statistics)
        self.inner.reset_statistics()
        return mapping
