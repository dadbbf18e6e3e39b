"""Guided search with k-hop sketches and early termination (Section 5.2).

``Match`` improves on the plain matcher in two ways:

* **early termination** — a candidate ``vx`` is accepted as soon as *one*
  isomorphic match anchored at it is found (inherited from the anchored
  interface of :class:`repro.matching.base.Matcher`);
* **guided search** — when several data nodes could play the next pattern
  node, the one whose k-hop neighbourhood sketch has the largest label
  surplus over the pattern's sketch is tried first, and candidates whose
  sketch fails to dominate the pattern's are pruned outright.
"""

from __future__ import annotations

from typing import Hashable, Iterator

from repro.graph.graph import Graph
from repro.graph.sketch import KHopSketch, build_sketch, sketch_dominates, sketch_score
from repro.matching.base import Matcher, build_search_plan, resident_view
from repro.matching.candidates import degree_consistent
from repro.pattern.pattern import Pattern

NodeId = Hashable


class GuidedMatcher(Matcher):
    """Sketch-guided anchored matcher (the search core of ``Match``).

    Parameters
    ----------
    sketch_hops:
        Number of hops summarised by the sketches (the paper uses 2).
    use_sketch_pruning:
        If ``True`` candidates whose sketch cannot dominate the pattern
        node's sketch are discarded before the recursive search.

    Notes
    -----
    On a resident graph data-node sketches come from the resident
    structure's cache, shared by every matcher probing that graph in the
    process; on a transient graph (an extracted d-ball) they are cached
    privately, pinned to the ``Graph.version`` they were built at.
    """

    def __init__(self, sketch_hops: int = 2, use_sketch_pruning: bool = True) -> None:
        super().__init__()
        if sketch_hops < 1:
            raise ValueError(f"sketch_hops must be >= 1, got {sketch_hops}")
        self.sketch_hops = sketch_hops
        self.use_sketch_pruning = use_sketch_pruning
        # Per data-graph sketch cache keyed by the graph object itself (not
        # id(): holding the object avoids id reuse after garbage collection),
        # pinned to the Graph.version it was filled at — a graph mutated
        # between probes (repro.stream update batches) starts a fresh cache
        # instead of serving stale sketches.  Only used on graphs with
        # nothing resident.
        self._data_sketches: dict[Graph, tuple[int, dict[NodeId, KHopSketch]]] = {}
        # Pattern sketches keyed by (pattern, node); Pattern hashes by
        # structure, so transient expanded copies reuse the right entry.
        self._pattern_sketches: dict[tuple[Pattern, NodeId], KHopSketch] = {}
        # Graph views of patterns, keyed by the pattern (structural hash).
        self._pattern_graphs: dict[Pattern, Graph] = {}

    # ------------------------------------------------------------------
    # sketch caches
    # ------------------------------------------------------------------
    def _data_sketch(self, graph: Graph, resident, node: NodeId) -> KHopSketch:
        if resident is not None:
            return resident.sketch(node, self.sketch_hops)
        if graph.in_batch:  # half-applied state: compute, never cache
            return build_sketch(graph, node, self.sketch_hops)
        entry = self._data_sketches.get(graph)
        if entry is None or entry[0] != graph.version:
            cache: dict[NodeId, KHopSketch] = {}
            self._data_sketches[graph] = (graph.version, cache)
        else:
            cache = entry[1]
        sketch = cache.get(node)
        if sketch is None:
            sketch = build_sketch(graph, node, self.sketch_hops)
            cache[node] = sketch
        return sketch

    def _pattern_sketch(self, pattern: Pattern, pattern_graph: Graph, node: NodeId) -> KHopSketch:
        key = (pattern, node)
        sketch = self._pattern_sketches.get(key)
        if sketch is None:
            sketch = build_sketch(pattern_graph, node, self.sketch_hops)
            self._pattern_sketches[key] = sketch
        return sketch

    def _pattern_graph(self, pattern: Pattern) -> Graph:
        graph = self._pattern_graphs.get(pattern)
        if graph is None:
            graph = pattern.to_graph()
            self._pattern_graphs[pattern] = graph
        return graph

    def clear_caches(self) -> None:
        """Drop all cached sketches (e.g. between benchmark repetitions)."""
        self._data_sketches.clear()
        self._pattern_sketches.clear()
        self._pattern_graphs.clear()

    # ------------------------------------------------------------------
    def find_match_at(self, graph: Graph, pattern: Pattern, anchor_value: NodeId) -> dict | None:
        expanded = pattern.expanded()
        for mapping in self._search(graph, expanded, anchor_value, first_only=True):
            return mapping
        return None

    def iter_matches_at(self, graph: Graph, pattern: Pattern, anchor_value: NodeId) -> Iterator[dict]:
        expanded = pattern.expanded()
        yield from self._search(graph, expanded, anchor_value, first_only=False)

    # ------------------------------------------------------------------
    def _search(
        self,
        graph: Graph,
        pattern: Pattern,
        anchor_value: NodeId,
        first_only: bool,
    ) -> Iterator[dict]:
        if not graph.has_node(anchor_value):
            return
        if graph.node_label(anchor_value) != pattern.label(pattern.x):
            return
        resident = resident_view(graph)
        if not degree_consistent(graph, anchor_value, pattern, pattern.x, resident):
            return
        pattern_graph = self._pattern_graph(pattern)
        if self.use_sketch_pruning:
            anchor_sketch = self._data_sketch(graph, resident, anchor_value)
            needed = self._pattern_sketch(pattern, pattern_graph, pattern.x)
            if not sketch_dominates(anchor_sketch, needed):
                self.statistics.sketch_prunes += 1
                return
        plan = build_search_plan(pattern, pattern.x)
        mapping: dict = {pattern.x: anchor_value}
        used: set[NodeId] = {anchor_value}
        yield from self._extend(
            graph, resident, pattern, pattern_graph, plan, 1, mapping, used, first_only
        )

    def _ranked_candidates(self, graph, resident, pattern, pattern_graph, plan, position, mapping):
        node = plan.order[position]
        node_label = pattern.label(node)
        candidate_set = None
        for edge, placed_is_source in plan.connections[position]:
            if placed_is_source:
                neighbors = (
                    resident.out_neighbors(mapping[edge.source], edge.label)
                    if resident is not None
                    else graph.out_neighbors(mapping[edge.source], edge.label)
                )
            else:
                neighbors = (
                    resident.in_neighbors(mapping[edge.target], edge.label)
                    if resident is not None
                    else graph.in_neighbors(mapping[edge.target], edge.label)
                )
            candidate_set = neighbors if candidate_set is None else candidate_set & neighbors
            if not candidate_set:
                return []
        if candidate_set is None:
            # Free node of a disconnected pattern: fall back to the label index.
            candidate_set = (
                resident.nodes_with_label(node_label)
                if resident is not None
                else graph.nodes_with_label(node_label)
            )
        filtered = [c for c in candidate_set if graph.node_label(c) == node_label]
        if not filtered:
            return []
        needed = self._pattern_sketch(pattern, pattern_graph, node)
        ranked: list[tuple[int, NodeId]] = []
        for candidate in filtered:
            sketch = self._data_sketch(graph, resident, candidate)
            if self.use_sketch_pruning and not sketch_dominates(sketch, needed):
                self.statistics.sketch_prunes += 1
                continue
            ranked.append((sketch_score(sketch, needed), candidate))
        # Best (largest surplus) first; break ties deterministically.
        ranked.sort(key=lambda item: (-item[0], str(item[1])))
        return [candidate for _, candidate in ranked]

    def _consistent(self, graph, pattern, node, data_node, mapping) -> bool:
        for edge in pattern.out_edges(node):
            if edge.target in mapping and not graph.has_edge(data_node, mapping[edge.target], edge.label):
                return False
        for edge in pattern.in_edges(node):
            if edge.source in mapping and not graph.has_edge(mapping[edge.source], data_node, edge.label):
                return False
        return True

    def _extend(
        self,
        graph: Graph,
        resident,
        pattern: Pattern,
        pattern_graph: Graph,
        plan,
        position: int,
        mapping: dict,
        used: set,
        first_only: bool,
    ) -> Iterator[dict]:
        if position == len(plan.order):
            self.statistics.matches_found += 1
            yield dict(mapping)
            return
        node = plan.order[position]
        for data_node in self._ranked_candidates(
            graph, resident, pattern, pattern_graph, plan, position, mapping
        ):
            if data_node in used:
                continue
            self.statistics.states_expanded += 1
            if not self._consistent(graph, pattern, node, data_node, mapping):
                self.statistics.backtracks += 1
                continue
            mapping[node] = data_node
            used.add(data_node)
            produced = False
            for result in self._extend(
                graph, resident, pattern, pattern_graph, plan, position + 1, mapping, used, first_only
            ):
                produced = True
                yield result
                if first_only:
                    break
            used.discard(data_node)
            del mapping[node]
            if first_only and produced:
                return
            if not produced:
                self.statistics.backtracks += 1
