"""Guided search with k-hop sketches and early termination (Section 5.2).

``Match`` improves on the plain matcher in two ways:

* **early termination** — a candidate ``vx`` is accepted as soon as *one*
  isomorphic match anchored at it is found (inherited from the anchored
  interface of :class:`repro.matching.base.Matcher`);
* **guided search** — when several data nodes could play the next pattern
  node, the one whose k-hop neighbourhood sketch has the largest label
  surplus over the pattern's sketch is tried first, and candidates whose
  sketch fails to dominate the pattern's are pruned outright.

The backtracking itself is :class:`repro.matching.base.PlanMatcher`'s.  What
it needs of the *pattern* — the matching order from ``x`` and the sketch
each position requires — is compiled once per pattern object: the plan is
kept on the pattern (:func:`repro.matching.base.search_plan`), the required
sketches on the plan.  The matcher keeps no pattern-keyed table of its own.
"""

from __future__ import annotations

from typing import Hashable

from repro.graph.graph import Graph
from repro.graph.sketch import KHopSketch, build_sketch, sketch_dominates, sketch_score
from repro.matching.base import PlanMatcher
from repro.matching.candidates import degree_consistent
from repro.pattern.pattern import Pattern

NodeId = Hashable


class GuidedMatcher(PlanMatcher):
    """Sketch-guided anchored matcher (the search core of ``Match``).

    Parameters
    ----------
    sketch_hops:
        Number of hops summarised by the sketches (the paper uses 2).

    Notes
    -----
    Data-node sketch tests are answered by the resident structure from its
    cache, shared by every matcher probing that graph in the process; on a
    graph with nothing resident (or an open ``batch_update``) the sketch is
    built per probe.
    """

    def __init__(self, sketch_hops: int = 2) -> None:
        super().__init__()
        if sketch_hops < 1:
            raise ValueError(f"sketch_hops must be >= 1, got {sketch_hops}")
        self.sketch_hops = sketch_hops

    def _test(self, graph: Graph, resident, node: NodeId, required: KHopSketch) -> tuple[bool, int]:
        """``(sketch_dominates, sketch_score)`` of *node*'s sketch against *required*."""
        if resident is not None:
            return resident.sketch_test(node, self.sketch_hops, required)
        sketch = build_sketch(graph, node, self.sketch_hops)
        return sketch_dominates(sketch, required), sketch_score(sketch, required)

    def _required(self, pattern: Pattern, plan) -> tuple[KHopSketch, ...]:
        """The sketch each plan position requires — compiled once, kept on the plan."""
        needed = plan.required_sketches.get(self.sketch_hops)
        if needed is None:
            graph = pattern.to_graph()
            needed = plan.required_sketches[self.sketch_hops] = tuple(
                build_sketch(graph, node, self.sketch_hops) for node in plan.order
            )
        return needed

    # ------------------------------------------------------------------
    def _admits(self, graph: Graph, resident, pattern: Pattern, plan, position: int, data_node) -> bool:
        if position:  # deeper nodes are pruned where they are ranked, in _ordered
            return True
        if not degree_consistent(graph, data_node, pattern, pattern.x, resident):
            return False
        if not self._test(graph, resident, data_node, self._required(pattern, plan)[0])[0]:
            self.statistics.sketch_prunes += 1
            return False
        return True

    def _ordered(self, graph: Graph, resident, pattern: Pattern, plan, position: int, candidates):
        required = self._required(pattern, plan)[position]
        ranked: list[tuple[int, NodeId]] = []
        for candidate in candidates:
            dominates, score = self._test(graph, resident, candidate, required)
            if not dominates:
                self.statistics.sketch_prunes += 1
                continue
            ranked.append((score, candidate))
        # Best (largest surplus) first; break ties deterministically.
        ranked.sort(key=lambda item: (-item[0], str(item[1])))
        return [candidate for _, candidate in ranked]
