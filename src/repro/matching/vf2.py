"""Backtracking subgraph isomorphism in the spirit of VF2.

The matcher looks for *non-induced* subgraph isomorphisms: an injective,
label-preserving mapping of pattern nodes to data nodes under which every
pattern edge is present in the data graph with the same label (paper
Section 2.1 — the matched subgraph G' consists exactly of the mapped nodes
and edges).
"""

from __future__ import annotations

from repro.graph.graph import Graph
from repro.matching.base import PlanMatcher
from repro.matching.candidates import degree_consistent
from repro.pattern.pattern import Pattern


class VF2Matcher(PlanMatcher):
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

    def _admits(self, graph: Graph, resident, pattern: Pattern, plan, position: int, data_node) -> bool:
        return not self.use_degree_filter or degree_consistent(
            graph, data_node, pattern, plan.order[position], resident
        )

    def _ordered(self, graph: Graph, resident, pattern: Pattern, plan, position: int, candidates):
        return sorted(candidates, key=str)
