"""Matcher interface and the one plan-driven backtracking search.

A pattern's matching order (:func:`search_plan`) is compiled once per
pattern object and kept on it; :class:`PlanMatcher` is its one reader — the
backtracking skeleton ``VF2Matcher`` and ``GuidedMatcher`` share, which they
specialise only in which data nodes they admit and in what order they try
them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator

from repro.exceptions import MatchingError, NodeNotFoundError
from repro.graph.columnar import ColumnarFragment, registered_columnar
from repro.graph.graph import Graph
from repro.matching.candidates import columnar_filter_candidates, label_candidates
from repro.obs.stats import StatisticsBase
from repro.pattern.pattern import Pattern, PatternEdge

NodeId = Hashable


@dataclass
class MatchStatistics(StatisticsBase):
    """Counters describing the work a matcher performed.

    The benchmark harness uses these to contrast e.g. ``Match`` (early
    termination) against ``disVF2`` (full enumeration) in a way that is
    independent of interpreter noise.  ``snapshot()``/``merge()`` come from
    :class:`repro.obs.stats.StatisticsBase`, as for every ``*Statistics``
    class; with collection enabled the counters feed the process-global
    registry as ``repro_match_*_total``.
    """

    _metric_kind = "match"

    candidates_considered: int = 0
    states_expanded: int = 0
    backtracks: int = 0
    matches_found: int = 0
    sketch_prunes: int = 0
    profile_prunes: int = 0
    prefix_pool_hits: int = 0
    #: Positive verdicts answered by a kept witness (:class:`WitnessStore`) —
    #: ``matches_found`` counts the searched ones — and kept witnesses that broke.
    witness_hits: int = 0
    witness_invalidated: int = 0


@dataclass
class _SearchPlan:
    """A connectivity-respecting elimination order for a pattern.

    ``order[0]`` is the anchor (designated node).  ``anchors[i]`` lists, for
    the i-th pattern node, the pattern edges connecting it to already-placed
    nodes, which is where candidate sets come from during the search.
    """

    order: list = field(default_factory=list)
    # For each position i >= 1: list of (edge, already_placed_is_source)
    connections: list = field(default_factory=list)
    # hops -> (when the profile test implies the anchor's sketch test, the
    # self-loop labels that void it, else None; the sketch each position
    # requires), filled by GuidedMatcher
    required_sketches: dict = field(default_factory=dict)
    # What an embedding aligned with ``order`` must satisfy, in positions:
    # (position, node label) per pattern node, (source, target, label) per edge.
    node_checks: tuple = ()
    edge_checks: tuple = ()
    # Per position, its self-loops' labels (no connection has them); () if none.
    self_loops: tuple = ()

    def holds(self, graph: Graph, embedding: tuple) -> bool:
        """Whether *embedding*, once a match, still is one in *graph*: every
        image present with its label, every pattern edge with its label
        (injectivity cannot break — node identities do not change)."""
        try:
            for position, label in self.node_checks:
                if graph.node_label(embedding[position]) != label:
                    return False
        except NodeNotFoundError:
            return False
        for source, target, label in self.edge_checks:
            if not graph.has_edge(embedding[source], embedding[target], label):
                return False
        return True


def search_plan(pattern: Pattern, anchor) -> _SearchPlan:
    """The matching order of *pattern* from *anchor*, compiled once per pattern object."""
    return pattern.derive(("search_plan", anchor), lambda p: build_search_plan(p, anchor))


def build_search_plan(pattern: Pattern, anchor) -> _SearchPlan:
    """Compute a BFS-style matching order starting from *anchor*.

    Raises :class:`MatchingError` if the pattern is disconnected (every
    practical GPAR pattern is connected by definition).
    """
    if not pattern.has_node(anchor):
        raise MatchingError(f"anchor {anchor!r} is not a pattern node")
    order = [anchor]
    placed = {anchor}
    connections: list[list[tuple[PatternEdge, bool]]] = [[]]
    remaining = set(pattern.nodes()) - placed
    while remaining:
        best_node = None
        best_links: list[tuple[PatternEdge, bool]] = []
        for node in remaining:
            links: list[tuple[PatternEdge, bool]] = []
            for edge in pattern.out_edges(node):
                if edge.target in placed:
                    links.append((edge, False))
            for edge in pattern.in_edges(node):
                if edge.source in placed:
                    links.append((edge, True))
            if links and (best_node is None or len(links) > len(best_links)):
                best_node = node
                best_links = links
        if best_node is None:
            # Disconnected pattern (e.g. the antecedent of a GPAR whose y is
            # only tied in through the consequent edge).  Place an arbitrary
            # remaining node as a "free" node: it has no connections, so the
            # matchers fall back to the label index for its candidates.
            best_node = min(remaining, key=str)
            best_links = []
        order.append(best_node)
        connections.append(best_links)
        placed.add(best_node)
        remaining.discard(best_node)
    position = {node: index for index, node in enumerate(order)}
    loops = tuple(tuple(e.label for e in pattern.out_edges(node) if e.target == node) for node in order)
    return _SearchPlan(
        order=order,
        connections=connections,
        node_checks=tuple((index, pattern.label(node)) for index, node in enumerate(order)),
        edge_checks=tuple(
            (position[edge.source], position[edge.target], edge.label) for edge in pattern.edges()
        ),
        self_loops=loops if any(loops) else (),
    )


def resident_view(graph: Graph) -> ColumnarFragment | None:
    """What a matcher probes *graph* through (``None``: the raw graph).

    The one residency rule of every matcher: a graph whose owner registered
    a :class:`repro.graph.columnar.ColumnarFragment` (the executors do, for
    every fragment they start) is probed through it; a transient graph with
    nothing registered (an extracted d-ball, the coordinator's authoritative
    graph) is probed raw — and so is *any* graph while a ``batch_update`` is
    open on it, because the structure refuses to refresh from a half-applied
    state.  An open batch therefore never changes whether a query answers.
    """
    return None if graph.in_batch else registered_columnar(graph)


class WitnessStore:
    """Kept embeddings of positive ``(pattern, anchor)`` pairs, validated on use.

    ``kept[pattern][anchor]`` is the embedding the search last returned for
    the pair, in :func:`search_plan` order.  Its one reader,
    :meth:`PlanMatcher.exists_match_at`, re-validates the tuple in full
    against the graph it would otherwise search: an entry can save a search,
    never change a verdict, so nothing here invalidates and an empty store
    means "search".  Patterns are keyed structurally — rules and tenants
    sharing a prefix-trie node share its witnesses.  The methods only bound
    the memory, to live patterns × owned anchors.
    """

    def __init__(self) -> None:
        self.kept: dict[Pattern, dict[NodeId, tuple]] = {}

    def __len__(self) -> int:
        return sum(map(len, self.kept.values()))

    def forget_anchors(self, anchors: Iterable[NodeId]) -> None:
        for by_anchor in self.kept.values():
            for anchor in anchors:
                by_anchor.pop(anchor, None)

    def keep_patterns(self, live: set) -> None:
        for pattern in self.kept.keys() - live:
            del self.kept[pattern]


class Matcher(ABC):
    """Common interface of all subgraph-isomorphism matchers.

    A matcher keeps no opinion about indexing: every query consults whatever
    is *resident* for the data graph it is handed (:func:`resident_view`).
    The answers are identical either way — the resident structure is a
    re-encoding of the raw probes (and, for the pool prefilter of
    ``match_set``, a necessary condition of a match).
    Matchers whose baseline semantics forbid the profile filter
    (``disVF2``: ``use_degree_filter=False``) suspend the prefilter via
    ``_columnar_prefilter``.
    """

    #: Whether match_set may profile-prefilter the pool against a resident view.
    _columnar_prefilter = True
    #: Where :meth:`PlanMatcher.exists_match_at` keeps witnesses; ``None``:
    #: always search.  Set by the streaming worker, which verifies the same
    #: pairs tick after tick — never by a one-shot run.
    witnesses: WitnessStore | None = None

    def __init__(self) -> None:
        self.statistics = MatchStatistics()

    def reset_statistics(self) -> None:
        """Zero the work counters."""
        self.statistics = MatchStatistics()

    # -- anchored queries -------------------------------------------------
    @abstractmethod
    def find_match_at(self, graph: Graph, pattern: Pattern, anchor_value: NodeId) -> dict | None:
        """Return one isomorphism mapping ``pattern.x -> anchor_value``, or None."""

    def exists_match_at(self, graph: Graph, pattern: Pattern, anchor_value: NodeId) -> bool:
        """Whether some match maps the designated node x to *anchor_value*."""
        return self.find_match_at(graph, pattern, anchor_value) is not None

    # -- match sets -------------------------------------------------------
    def match_set(
        self,
        graph: Graph,
        pattern: Pattern,
        candidates: Iterable[NodeId] | None = None,
    ) -> set[NodeId]:
        """``Q(x, G)``: data nodes that can play the designated node x.

        *candidates* restricts the nodes to test (callers typically pass the
        label-index candidates or a previously computed superset).
        """
        expanded = pattern.expanded()
        resident = resident_view(graph)
        if candidates is None:
            # On a resident graph this is the structure's frozen bucket —
            # no per-probe copy; it is only iterated here, never mutated.
            pool: Iterable[NodeId] = label_candidates(graph, expanded, expanded.x, resident)
        else:
            pool = candidates
        if resident is not None and self._columnar_prefilter:
            # Interned-id label + profile-domination mask over the whole
            # pool: a necessary condition, so dropped candidates could never
            # have matched — the match set is unchanged by construction.
            before = len(pool) if hasattr(pool, "__len__") else None
            pool = columnar_filter_candidates(resident, expanded, expanded.x, pool)
            if before is not None:
                self.statistics.profile_prunes += before - len(pool)
        matched: set[NodeId] = set()
        for candidate in pool:
            self.statistics.candidates_considered += 1
            if self.exists_match_at(graph, expanded, candidate):
                matched.add(candidate)
        return matched

    # -- full enumeration -------------------------------------------------
    def find_all(
        self,
        graph: Graph,
        pattern: Pattern,
        limit: int | None = None,
    ) -> list[dict]:
        """Enumerate isomorphism mappings (pattern node -> data node).

        Used by the disVF2 baseline and by tests; the core algorithms use the
        anchored early-terminating queries instead.
        """
        expanded = pattern.expanded()
        anchors = label_candidates(graph, expanded, expanded.x, resident_view(graph))
        results: list[dict] = []
        for candidate in sorted(anchors, key=str):
            for mapping in self.iter_matches_at(graph, expanded, candidate):
                results.append(mapping)
                if limit is not None and len(results) >= limit:
                    return results
        return results

    def iter_matches_at(
        self, graph: Graph, pattern: Pattern, anchor_value: NodeId
    ) -> Iterator[dict]:
        """Iterate over all matches anchored at *anchor_value*.

        Default implementation yields at most one (the anchored search);
        matchers supporting full enumeration override it.
        """
        mapping = self.find_match_at(graph, pattern, anchor_value)
        if mapping is not None:
            yield mapping


def _loops_at(source, node: NodeId, labels: tuple) -> bool:
    """Whether *node* has a self-loop of every label in *labels*."""
    return all(node in source.out_neighbors(node, label) for label in labels)


class PlanMatcher(Matcher):
    """Anchored backtracking over the pattern's compiled search plan.

    Subclasses decide which data nodes may play a pattern node
    (:meth:`_screen`, :meth:`_admits`) and the order candidates are tried in
    (:meth:`_ordered`); candidate generation from the plan's connections
    and the backtracking itself are shared.  A first match is one plain
    recursion (:meth:`_first`); only full enumeration is a generator
    (:meth:`_extend`).  Both try candidates in the same order and count the
    same states, backtracks and matches up to the first match.
    """

    def find_match_at(self, graph: Graph, pattern: Pattern, anchor_value: NodeId) -> dict | None:
        pattern = pattern.expanded()
        start = self._start(graph, pattern, anchor_value)
        if start is None:
            return None
        return self._first(graph, *start, 1, {pattern.x: anchor_value}, {anchor_value})

    def exists_match_at(self, graph: Graph, pattern: Pattern, anchor_value: NodeId) -> bool:
        store = self.witnesses
        if store is None or graph.in_batch:  # a half-applied state is searched raw, kept nowhere
            return self.find_match_at(graph, pattern, anchor_value) is not None
        pattern = pattern.expanded()
        plan = search_plan(pattern, pattern.x)
        by_anchor = store.kept.setdefault(pattern, {})
        witness = by_anchor.get(anchor_value)
        if witness is not None:
            if plan.holds(graph, witness):
                self.statistics.witness_hits += 1
                return True
            self.statistics.witness_invalidated += 1
            del by_anchor[anchor_value]
        mapping = self.find_match_at(graph, pattern, anchor_value)
        if mapping is None:
            return False
        by_anchor[anchor_value] = tuple(mapping[node] for node in plan.order)
        return True

    def iter_matches_at(self, graph: Graph, pattern: Pattern, anchor_value: NodeId) -> Iterator[dict]:
        pattern = pattern.expanded()
        start = self._start(graph, pattern, anchor_value)
        if start is not None:
            yield from self._extend(graph, *start, 1, {pattern.x: anchor_value}, {anchor_value})

    # -- what a subclass chooses ------------------------------------------
    def _admits(self, graph: Graph, resident, pattern: Pattern, plan, position: int, data_node) -> bool:
        """Whether *data_node* may play ``plan.order[position]`` (its label already fits).
        Past the anchor, a candidate it rejects still counts as a search state."""
        return True

    def _screen(self, graph: Graph, resident, pattern: Pattern, plan, position: int):
        """``None``, or the test each candidate for ``plan.order[position]`` must pass
        when it is tried — before it counts as a search state."""
        return None

    def _ordered(self, graph: Graph, resident, pattern: Pattern, plan, position: int, candidates):
        """*candidates* for ``plan.order[position]`` in the order to try them."""
        return candidates

    # -- the shared search ------------------------------------------------
    def _start(self, graph: Graph, pattern: Pattern, anchor_value: NodeId):
        """``(resident, pattern, plan)`` when *anchor_value* may play x, else ``None``."""
        if not graph.has_node(anchor_value) or graph.node_label(anchor_value) != pattern.label(pattern.x):
            return None
        resident = resident_view(graph)
        plan = search_plan(pattern, pattern.x)
        loops = plan.self_loops and plan.self_loops[0]
        if loops and not _loops_at(graph if resident is None else resident, anchor_value, loops):
            return None
        if not self._admits(graph, resident, pattern, plan, 0, anchor_value):
            return None
        return resident, pattern, plan

    def _candidates(self, graph: Graph, resident, pattern: Pattern, plan, position: int, mapping: dict):
        """Data nodes with the right label, adjacent to the placed nodes as the
        plan demands: its connections are *all* the pattern edges to placed
        nodes, and its self-loops are tested here, so a candidate needs no
        later edge-consistency test."""
        node_label = pattern.label(plan.order[position])
        source = graph if resident is None else resident
        candidates = None
        for edge, placed_is_source in plan.connections[position]:
            if placed_is_source:
                neighbors = source.out_neighbors(mapping[edge.source], edge.label)
            else:
                neighbors = source.in_neighbors(mapping[edge.target], edge.label)
            candidates = neighbors if candidates is None else candidates & neighbors
            if not candidates:
                return ()
        if candidates is None:
            # Free node of a disconnected pattern: fall back to the label index.
            candidates = source.nodes_with_label(node_label)
        else:
            candidates = [node for node in candidates if graph.node_label(node) == node_label]
        loops = plan.self_loops and plan.self_loops[position]
        candidates = [node for node in candidates if _loops_at(source, node, loops)] if loops else candidates
        return self._ordered(graph, resident, pattern, plan, position, candidates)

    def _first(
        self, graph: Graph, resident, pattern: Pattern, plan, position: int, mapping: dict, used: set
    ) -> dict | None:
        """The first embedding extending *mapping* at *position*, or ``None``."""
        if position == len(plan.order):
            self.statistics.matches_found += 1
            return dict(mapping)
        node = plan.order[position]
        screen = self._screen(graph, resident, pattern, plan, position)
        for data_node in self._candidates(graph, resident, pattern, plan, position, mapping):
            if data_node in used or screen is not None and not screen(data_node):
                continue
            self.statistics.states_expanded += 1
            if not self._admits(graph, resident, pattern, plan, position, data_node):
                continue
            mapping[node] = data_node
            used.add(data_node)
            found = self._first(graph, resident, pattern, plan, position + 1, mapping, used)
            used.discard(data_node)
            del mapping[node]
            if found is not None:
                return found
            self.statistics.backtracks += 1
        return None

    def _extend(
        self, graph: Graph, resident, pattern: Pattern, plan, position: int, mapping: dict, used: set
    ) -> Iterator[dict]:
        """Every embedding extending *mapping* at *position*, in :meth:`_first`'s order."""
        if position == len(plan.order):
            self.statistics.matches_found += 1
            yield dict(mapping)
            return
        node = plan.order[position]
        screen = self._screen(graph, resident, pattern, plan, position)
        for data_node in self._candidates(graph, resident, pattern, plan, position, mapping):
            if data_node in used or screen is not None and not screen(data_node):
                continue
            self.statistics.states_expanded += 1
            if not self._admits(graph, resident, pattern, plan, position, data_node):
                continue
            mapping[node] = data_node
            used.add(data_node)
            produced = False
            for result in self._extend(graph, resident, pattern, plan, position + 1, mapping, used):
                produced = True
                yield result
            used.discard(data_node)
            del mapping[node]
            if not produced:
                self.statistics.backtracks += 1
