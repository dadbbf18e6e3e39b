"""Guided search with k-hop sketches and early termination (Section 5.2).

``Match`` improves on the plain matcher in three ways:

* **early termination** — a candidate ``vx`` is accepted as soon as *one*
  isomorphic match anchored at it is found (inherited from the anchored
  interface of :class:`repro.matching.base.Matcher`);
* **no search on a star** — where the pattern is a star at ``x`` whose
  leaves of one label share one ``(direction, edge label)`` slot
  (:attr:`~repro.matching.base._SearchPlan.profile_decides`), the anchor's
  label and profile test is the verdict: no search, no sketch.
  ``find_match_at`` and enumeration, which must return an embedding, still
  search;
* **sketch pruning** — a candidate whose k-hop neighbourhood sketch fails to
  dominate the pattern node's is pruned when the search tries it, before it
  counts as a search state.

The paper also tries the candidate with the largest sketch surplus
``f(u′, v′)`` first.  That rank is not applied: it tested every candidate
of an expanded node to save at most a few percent of the search states
(counts in ``docs/columnar.md``).  Candidates are tried in adjacency
order, and the anchor's test is skipped where its profile test implies it.

The backtracking itself is :class:`repro.matching.base.PlanMatcher`'s.  What
it needs of the *pattern* — the matching order from ``x`` and the sketch
each position requires — is compiled once per pattern object: the plan is
kept on the pattern (:func:`repro.matching.base.search_plan`), the required
sketches on the plan.  The matcher keeps no pattern-keyed table of its own.
"""

from __future__ import annotations

from typing import Hashable

from repro.graph.graph import Graph
from repro.graph.sketch import KHopSketch, build_sketch, sketch_dominates
from repro.matching.base import PlanMatcher
from repro.matching.candidates import degree_consistent, required_profile
from repro.pattern.pattern import Pattern

NodeId = Hashable


def anchor_loop_labels(pattern: Pattern, plan, required: KHopSketch) -> tuple | None:
    """``None`` when x's profile test does not imply its sketch test (*required*);
    otherwise the edge labels of an anchor self-loop that would void the
    implication — the test is skipped for anchors with none of them.

    Implied when the sketch asks for nothing past hop 1, x has no self-loop,
    and for each label L hop 1 asks for at most the largest count of one
    profile triple ``(direction, edge label, L)``: the neighbours the profile
    counts within one triple are distinct nodes.  Through a self-loop one of
    them is the data node itself, which its sketch leaves out — for a triple
    to x's own label whose edge label the loop carries.
    """
    hop1 = required.prefix[0]
    if plan.self_loops and plan.self_loops[0] or any(prefix != hop1 for prefix in required.prefix):
        return None
    own, largest, loops = pattern.label(pattern.x), {}, set()
    for (_, edge_label, label), count in required_profile(pattern, pattern.x).items():
        largest[label] = max(largest.get(label, 0), count)
        if label == own:
            loops.add(edge_label)
    if any(count > largest.get(label, 0) for label, count in hop1.items()):
        return None
    return tuple(sorted(loops))


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

    _profile_decides = True

    def __init__(self, sketch_hops: int = 2) -> None:
        super().__init__()
        if sketch_hops < 1:
            raise ValueError(f"sketch_hops must be >= 1, got {sketch_hops}")
        self.sketch_hops = sketch_hops

    def _test(self, graph: Graph, resident, node: NodeId, required: KHopSketch) -> bool:
        """Whether *node*'s sketch dominates *required*; a failure counts as a prune."""
        if resident is not None:
            dominates = resident.sketch_test(node, self.sketch_hops, required)
        else:
            dominates = sketch_dominates(build_sketch(graph, node, self.sketch_hops), required)
        if not dominates:
            self.statistics.sketch_prunes += 1
        return dominates

    def _required(self, pattern: Pattern, plan) -> tuple[tuple | None, tuple[KHopSketch, ...]]:
        """:func:`anchor_loop_labels` and the sketch each plan position
        requires — compiled once, kept on the plan."""
        compiled = plan.required_sketches.get(self.sketch_hops)
        if compiled is None:
            graph = pattern.to_graph()
            needed = tuple(build_sketch(graph, node, self.sketch_hops) for node in plan.order)
            compiled = plan.required_sketches[self.sketch_hops] = (
                anchor_loop_labels(pattern, plan, needed[0]),
                needed,
            )
        return compiled

    # ------------------------------------------------------------------
    def _admits(self, graph: Graph, resident, pattern: Pattern, plan, position: int, data_node) -> bool:
        if position:  # deeper nodes are tested when tried, by _screen's test
            return True
        if not degree_consistent(graph, data_node, pattern, pattern.x, resident):
            return False
        loops, needed = self._required(pattern, plan)
        if loops is not None and not any(graph.has_edge(data_node, data_node, label) for label in loops):
            return True  # the profile test implies the sketch test
        return self._test(graph, resident, data_node, needed[0])

    def _screen(self, graph: Graph, resident, pattern: Pattern, plan, position: int):
        if position == len(plan.order) - 1:
            # Every unused candidate of the last node completes an embedding
            # (its connections are all its pattern edges): no sketch test can
            # prune it.
            return None
        required = self._required(pattern, plan)[1][position]
        return lambda node: self._test(graph, resident, node, required)
