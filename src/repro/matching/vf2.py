"""Backtracking subgraph isomorphism in the spirit of VF2.

The matcher looks for *non-induced* subgraph isomorphisms: an injective,
label-preserving mapping of pattern nodes to data nodes under which every
pattern edge is present in the data graph with the same label (paper
Section 2.1 — the matched subgraph G' consists exactly of the mapped nodes
and edges).
"""

from __future__ import annotations

from typing import Hashable, Iterator

from repro.graph.graph import Graph
from repro.matching.base import Matcher, build_search_plan, resident_view
from repro.matching.candidates import degree_consistent
from repro.pattern.pattern import Pattern

NodeId = Hashable


class VF2Matcher(Matcher):
    """Plain backtracking matcher with label/degree candidate filtering.

    Parameters
    ----------
    use_degree_filter:
        When ``True`` (default) candidates failing the labelled-degree
        necessary condition are rejected before the recursive search; the
        ``disVF2`` baseline of the paper disables every extra filter.
        With the filter off the columnar pool prefilter of ``match_set`` is
        suspended too: the baseline must pay the full per-candidate search
        the paper measures.
    """

    def __init__(self, use_degree_filter: bool = True) -> None:
        super().__init__()
        self.use_degree_filter = use_degree_filter
        if not use_degree_filter:
            self._columnar_prefilter = False

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
        if self.use_degree_filter and not degree_consistent(
            graph, anchor_value, pattern, pattern.x, resident
        ):
            return
        plan = build_search_plan(pattern, pattern.x)
        mapping: dict = {pattern.x: anchor_value}
        used: set[NodeId] = {anchor_value}
        yield from self._extend(graph, resident, pattern, plan, 1, mapping, used, first_only)

    def _candidates_for(self, graph: Graph, resident, pattern: Pattern, plan, position, mapping):
        """Candidate data nodes for the pattern node at *position* in the plan."""
        node = plan.order[position]
        node_label = pattern.label(node)
        candidate_set: set[NodeId] | frozenset | None = None
        for edge, placed_is_source in plan.connections[position]:
            if placed_is_source:
                placed_data = mapping[edge.source]
                neighbors = (
                    resident.out_neighbors(placed_data, edge.label)
                    if resident is not None
                    else graph.out_neighbors(placed_data, edge.label)
                )
            else:
                placed_data = mapping[edge.target]
                neighbors = (
                    resident.in_neighbors(placed_data, edge.label)
                    if resident is not None
                    else graph.in_neighbors(placed_data, edge.label)
                )
            if candidate_set is None:
                candidate_set = neighbors
            else:
                candidate_set = candidate_set & neighbors
            if not candidate_set:
                return set()
        if candidate_set is None:
            # Free node of a disconnected pattern: fall back to the label index.
            if resident is not None:
                return resident.nodes_with_label(node_label)
            return graph.nodes_with_label(node_label)
        return {node_id for node_id in candidate_set if graph.node_label(node_id) == node_label}

    def _consistent(self, graph: Graph, pattern: Pattern, node, data_node, mapping) -> bool:
        """All pattern edges between *node* and already-mapped nodes must exist."""
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
        candidates = self._candidates_for(graph, resident, pattern, plan, position, mapping)
        for data_node in sorted(candidates, key=str):
            if data_node in used:
                continue
            self.statistics.states_expanded += 1
            if self.use_degree_filter and not degree_consistent(
                graph, data_node, pattern, node, resident
            ):
                continue
            if not self._consistent(graph, pattern, node, data_node, mapping):
                self.statistics.backtracks += 1
                continue
            mapping[node] = data_node
            used.add(data_node)
            produced = False
            for result in self._extend(
                graph, resident, pattern, plan, position + 1, mapping, used, first_only
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
