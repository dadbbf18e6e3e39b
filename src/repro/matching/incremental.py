"""Incremental match materialization for levelwise mining (delta extension).

DMine grows rules level by level: every level-``k+1`` candidate pattern is a
parent pattern plus *exactly one* edge.  Re-matching each child from an empty
embedding discards everything the parent level already proved.  This module
turns matching into an incremental computation:

* :class:`MatchStore` materializes, per fragment graph, the match set of a
  pattern **plus** its witness embeddings — compact tuples pulled lazily
  from the matcher's own enumeration, keyed by the pattern itself — so a
  later level can start from them;
* :class:`DeltaMatcher` matches a *sibling group* — the children of one
  parent entry, each the parent plus one :class:`DeltaEdge` — in one pass
  over the parent's embeddings: a *closing* edge is one membership probe
  per embedding, a *growing* edge one profile-count comparison, both
  answered by the graph's resident :class:`~repro.graph.columnar.ColumnarFragment`.

Laziness
--------
Deciding that a centre matches needs exactly one embedding, so
materialization costs the same as the find-first probe the from-scratch
path makes.  Each matched centre keeps an :class:`_EmbeddingStream`: the
embeddings pulled so far plus the still-suspended enumeration, shared by
every child that later delta-extends the centre — the second and deeper
embeddings are only ever enumerated when some child's delta probe fails on
the earlier ones, and that work is paid once per parent, not once per
child.  A child entry's stream is itself lazy, drawing parent embeddings
through the delta edge, so laziness composes across levels.

Exactness
---------
A child match restricted to the parent's nodes is a parent match (the
mapping stays injective and every parent edge is still covered), so the
child's matches at a centre are exactly the one-edge extensions of the
parent's embeddings at that centre.  Delta extension therefore returns the
same match set as a full re-match **provided the parent's embeddings can be
enumerated to the end**.  Enumeration is capped (:data:`DEFAULT_EMBEDDING_CAP`)
to bound memory on hub-heavy centres; a stream that hits the cap is marked
truncated and the centre falls back to a full anchored search — the
incremental path never trades exactness for speed.  Every other miss falls
back the same way: a rule that arrives without a materialized parent
(cross-level dedup picked an automorphic sibling, diversification re-seeded
the beam, a process-pool worker with a cold store), a graph that mutated
since materialization (checked against ``Graph.version``), or a matcher
that does not enumerate embeddings (see :meth:`DeltaMatcher.supports`).

Witness canonicality
--------------------
Entries materialized by full search pull embeddings in the matcher's own
DFS order, so their first embedding per centre **is** the mapping
``find_match_at`` would return — expansion can reuse it as the witness
match without changing which extensions are proposed.  Delta-derived
entries make no such promise and are flagged accordingly; witness consumers
must check :attr:`MatchEntry.canonical_witness`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from repro.graph.columnar import columnar_view
from repro.graph.graph import Graph
from repro.matching.base import Matcher
from repro.obs.stats import StatisticsBase
from repro.pattern.pattern import Pattern

NodeId = Hashable

#: Per-centre cap on materialized embeddings.  A centre whose stream hits
#: the cap is marked truncated and re-verified by full search when extended.
DEFAULT_EMBEDDING_CAP = 64

#: Yielded by a child stream's producer when its parent stream truncated:
#: the child cannot know whether further embeddings exist.
_TRUNCATED = object()


@dataclass(frozen=True)
class DeltaEdge:
    """The single pattern edge by which a child extends its parent.

    ``new_node`` is the pattern node introduced together with the edge (one
    of ``source``/``target``) or ``None`` for a *closing* edge between two
    nodes the parent already has; ``new_label`` is its search condition.
    """

    source: Hashable
    target: Hashable
    label: str
    new_node: Hashable | None = None
    new_label: str | None = None

    @property
    def closing(self) -> bool:
        """Whether both endpoints already exist in the parent pattern."""
        return self.new_node is None


def single_edge_delta(parent: Pattern, child: Pattern) -> DeltaEdge | None:
    """The :class:`DeltaEdge` turning *parent* into *child*, or ``None``.

    Returns ``None`` whenever *child* is not exactly *parent* plus one edge
    (and at most one new node carried by that edge) with identical designated
    nodes, labels and no copy counts — callers treat ``None`` as "no delta
    available, fall back to full matching".
    """
    if parent.copy_counts() or child.copy_counts() or (parent.x, parent.y) != (child.x, child.y):
        return None
    parent_edges, child_edges = set(parent.edges()), set(child.edges())
    extra = child_edges - parent_edges
    parent_labels = dict(parent.node_items())
    fresh = [node for node in child.nodes() if node not in parent_labels]
    if not parent_edges <= child_edges or len(extra) != 1 or len(fresh) > 1:
        return None
    if any(not child.has_node(node) or child.label(node) != label for node, label in parent_labels.items()):
        return None  # a dropped (necessarily isolated) or relabelled parent node
    (edge,) = extra
    if not fresh:
        return DeltaEdge(edge.source, edge.target, edge.label)
    new_node = fresh[0]
    if (edge.source == new_node) == (edge.target == new_node):
        return None  # the new node floats, or only a loop of its own reaches it
    return DeltaEdge(edge.source, edge.target, edge.label, new_node=new_node, new_label=child.label(new_node))


def _growth(positions: dict, delta: DeltaEdge) -> tuple[int, tuple]:
    """A growing edge's anchor position and ``(direction, label, new label)``."""
    outgoing = delta.new_node == delta.target
    anchor = positions[delta.source if outgoing else delta.target]
    return anchor, ("out" if outgoing else "in", delta.label, delta.new_label)


class _EmbeddingStream:
    """Lazily pulled embeddings of one pattern at one centre.

    ``pulled`` is append-only, so any number of children can iterate it
    concurrently while sharing the suspended producer.  A stream ends in one
    of two states: *complete* (the producer exhausted — ``pulled`` is the
    full embedding set) or *truncated* (the cap was hit, or an upstream
    parent stream truncated — completeness unknown, consumers must fall
    back to a full search).
    """

    __slots__ = ("pulled", "cap", "_producer", "truncated")

    def __init__(self, producer: Iterator[tuple], cap: int) -> None:
        self.pulled: list[tuple] = []
        self.cap = cap
        self._producer: Iterator[tuple] | None = producer
        self.truncated = False

    def ensure(self, count: int) -> bool:
        """Pull until at least *count* embeddings are available.

        Returns ``False`` when the stream ends first; check
        :attr:`truncated` to tell "provably no more" from "unknown".
        """
        while len(self.pulled) < count:
            producer = self._producer
            if producer is None:
                return False
            if len(self.pulled) >= self.cap:
                self.truncated = True
                self._producer = None
                return False
            item = next(producer, None)
            if item is None:
                self._producer = None
                return False
            if item is _TRUNCATED:
                self.truncated = True
                self._producer = None
                return False
            self.pulled.append(item)
        return True


class MatchEntry:
    """Materialized matches of one pattern on one graph.

    ``matches`` is the (eagerly decided) match set; ``streams`` maps each
    matched centre to its :class:`_EmbeddingStream`.  ``version`` pins the
    ``Graph.version`` the entry was built against; :meth:`MatchStore.get`
    evicts the entry once the graph has moved on.
    """

    __slots__ = ("pattern", "node_order", "matches", "streams", "version", "canonical_witness")

    def __init__(
        self,
        pattern: Pattern,
        node_order: tuple,
        matches: frozenset,
        streams: Mapping[NodeId, _EmbeddingStream],
        version: int,
        canonical_witness: bool,
    ) -> None:
        self.pattern = pattern
        self.node_order = node_order
        self.matches = matches
        self.streams = streams
        self.version = version
        self.canonical_witness = canonical_witness

    def witness_for(self, center: NodeId) -> dict | None:
        """The matcher's own first-found mapping at *center*, or ``None``.

        Only canonical entries (materialized by full DFS search) can
        answer; delta-derived embeddings are valid matches but not the
        mapping ``find_match_at`` would produce.
        """
        if not self.canonical_witness:
            return None
        stream = self.streams.get(center)
        if stream is None or not stream.pulled:
            return None
        return dict(zip(self.node_order, stream.pulled[0]))


@dataclass
class StoreStatistics(StatisticsBase):
    """Probe counters of one :class:`MatchStore` (used by tests and docs).

    Snapshot/merge via :class:`repro.obs.stats.StatisticsBase`; collected as
    ``repro_store_*_total`` when ``REPRO_OBS`` is on.
    """

    _metric_kind = "store"

    hits: int = 0
    misses: int = 0
    stale_entries: int = 0
    delta_extensions: int = 0
    fallback_probes: int = 0


class MatchStore:
    """Per-graph registry of :class:`MatchEntry`, keyed by the pattern itself.

    Keys compare patterns structurally, node names included: an automorphic
    sibling materialized under different names is a different key, since its
    embeddings would not align with a caller's delta edge.  The store is
    *fragment-resident*: it lives next to the fragment graph inside a worker
    (built lazily, never pickled) and is invalidated by the graph's mutation
    counter — a probe against a mutated graph drops the stale entry and
    reports a miss, so a stale read is impossible.
    """

    def __init__(self, graph: Graph, cap: int = DEFAULT_EMBEDDING_CAP) -> None:
        if cap < 1:
            raise ValueError(f"cap must be >= 1, got {cap}")
        self.graph = graph
        self.cap = cap
        self.statistics = StoreStatistics()
        self._entries: dict[Pattern, MatchEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, pattern: Pattern) -> MatchEntry | None:
        """The current entry for *pattern*, or ``None`` on a miss: an unknown
        pattern or a stale graph version (the entry is evicted)."""
        entry = self._entries.get(pattern)
        if entry is None:
            self.statistics.misses += 1
            return None
        if entry.version != self.graph.version:
            self.statistics.stale_entries += 1
            self.statistics.misses += 1
            del self._entries[pattern]
            return None
        self.statistics.hits += 1
        return entry

    def put(self, entry: MatchEntry) -> None:
        """Register *entry* under its pattern."""
        self._entries[entry.pattern] = entry

    def retain(self, patterns: Iterable[Pattern]) -> int:
        """Drop every entry whose pattern is not in *patterns*; returns #dropped.

        DMine calls this after each evaluate round with the patterns
        materialized *in* that round: the only parents the next level can
        ever need are this level's children, so coordinator-side beam
        pruning translates into bounded worker-side memory.
        """
        keep = set(patterns)
        stale = [pattern for pattern in self._entries if pattern not in keep]
        for pattern in stale:
            del self._entries[pattern]
        return len(stale)


class DeltaMatcher:
    """Delta-extends materialized matches; falls back to *matcher* when it can't.

    Parameters
    ----------
    graph:
        The (fragment) data graph.
    matcher:
        The anchored matcher used for full materialization and for every
        fallback probe (DMine's is a :class:`~repro.matching.VF2Matcher`);
        embedding materialization needs one that overrides
        ``iter_matches_at`` (see :meth:`supports`).
    store:
        The fragment's :class:`MatchStore`.
    """

    def __init__(self, graph: Graph, matcher, store: MatchStore) -> None:
        self.graph = graph
        self.matcher = matcher
        self.store = store
        # A match store makes *graph* resident by definition: pin its
        # resident structure (compiled here unless the executor already did)
        # for the delta probes.
        self._resident = columnar_view(graph)
        self._rows = (graph.version, functools.cache(self._resident.profile))

    # ------------------------------------------------------------------
    def supports(self, pattern: Pattern) -> bool:
        """Whether embeddings of *pattern* can be materialized at all.

        The matcher must genuinely *enumerate* matches: the base
        :class:`~repro.matching.base.Matcher` ships a default
        ``iter_matches_at`` that yields at most one mapping, which would
        make an exhausted stream look complete after its first embedding —
        only matchers overriding it (VF2, guided) qualify; everything else
        (locality wrappers) takes the exact fallback.
        """
        if pattern.copy_counts():
            return False
        return type(self.matcher).iter_matches_at is not Matcher.iter_matches_at

    def materialize(
        self,
        pattern: Pattern,
        candidates: Iterable[NodeId],
        want_entry: bool = True,
    ) -> tuple[set, MatchEntry | None]:
        """Full-match *pattern* over *candidates*; optionally store streams.

        The returned match set is byte-identical to
        ``matcher.match_set(graph, pattern, candidates)`` and costs the
        same: deciding a centre pulls exactly one embedding (the matcher's
        find-first probe).  With *want_entry* (and a supported pattern) each
        matched centre keeps its suspended enumeration for later delta
        extension.
        """
        if not want_entry or not self.supports(pattern):
            matches = self.matcher.match_set(self.graph, pattern, candidates=candidates)
            return matches, None
        node_order = tuple(sorted(pattern.nodes(), key=str))
        cap = self.store.cap
        matches: set[NodeId] = set()
        streams: dict[NodeId, _EmbeddingStream] = {}
        for candidate in candidates:
            producer = (
                tuple(mapping[node] for node in node_order)
                for mapping in self.matcher.iter_matches_at(self.graph, pattern, candidate)
            )
            stream = _EmbeddingStream(producer, cap)
            if stream.ensure(1):
                matches.add(candidate)
                streams[candidate] = stream
        entry = MatchEntry(
            pattern=pattern,
            node_order=node_order,
            matches=frozenset(matches),
            streams=streams,
            version=self.graph.version,
            canonical_witness=True,
        )
        self.store.put(entry)
        return matches, entry

    # ------------------------------------------------------------------
    def extend(
        self,
        parent: MatchEntry,
        requests: Sequence[tuple[Pattern, DeltaEdge, Iterable[NodeId], bool]],
    ) -> list[tuple[set, MatchEntry | None]]:
        """One ``(matches, entry)`` per ``(child, delta, candidates, want_entry)`` of
        *parent*'s children, the set equal to ``matcher.match_set(graph, child,
        candidates)``.  At each centre of the parent's matches, its embeddings
        are pulled once (up to the store's cap) and each sibling undecided there
        is tested on each (:meth:`_edge_test`).  A complete stream decides the
        rest ``False``; a truncated one, or none, leaves one anchored search each.
        """
        graph, stats, cap = self.graph, self.store.statistics, self.store.cap
        if self._rows[0] != graph.version:
            self._rows = (graph.version, functools.cache(self._resident.profile))
        row = self._rows[1]
        positions = {node: i for i, node in enumerate(parent.node_order)}
        siblings_at: dict[NodeId, list[int]] = {}
        for i, (_, delta, candidates, _) in enumerate(requests):
            pool = parent.matches.intersection(candidates)
            anchor, triple = (None, None) if delta.closing else _growth(positions, delta)
            if anchor == positions[parent.pattern.x]:
                # Every embedding maps x to the centre: without one such
                # neighbour there, none extends.
                pool = [center for center in pool if row(center).get(triple)]
            for center in pool:
                siblings_at.setdefault(center, []).append(i)
        tests = [self._edge_test(parent, positions, delta) for _, delta, _, _ in requests]
        keep = [want and self.supports(child) for child, _, _, want in requests]
        matches: list[set[NodeId]] = [set() for _ in requests]
        streams: list[dict[NodeId, _EmbeddingStream]] = [{} for _ in requests]
        for center, waiting in siblings_at.items():
            parent_stream = parent.streams.get(center)
            if parent_stream is not None:
                stats.delta_extensions += len(waiting)
                position = 0
                while waiting and parent_stream.ensure(position + 1):
                    embedding = parent_stream.pulled[position]
                    undecided = []
                    for i in waiting:
                        if not tests[i](embedding):
                            undecided.append(i)
                            continue
                        matches[i].add(center)
                        if keep[i]:  # search-decided centres keep no stream
                            streams[i][center] = _EmbeddingStream(
                                self._producer(parent_stream, positions, requests[i][1], tests[i]), cap
                            )
                    waiting = undecided
                    position += 1
                if not parent_stream.truncated:
                    continue  # every parent embedding was tested: no match
            for i in waiting:
                stats.fallback_probes += 1
                if self.matcher.exists_match_at(graph, requests[i][0], center):
                    matches[i].add(center)
        results = []
        for i, (child, delta, _, _) in enumerate(requests):
            entry = None
            if keep[i]:
                fresh = () if delta.closing else (delta.new_node,)
                entry = MatchEntry(
                    child, parent.node_order + fresh, frozenset(matches[i]), streams[i],
                    graph.version, canonical_witness=False,
                )
                self.store.put(entry)
            results.append((matches[i], entry))
        return results

    def _edge_test(
        self, parent: MatchEntry, positions: dict, delta: DeltaEdge
    ) -> Callable[[tuple], bool]:
        """Whether a parent embedding extends through *delta*, scanning no neighbours:
        a closing edge is one membership probe (of a self-loop if ``s == t``); a
        growing edge at anchor image ``v`` extends iff ``v``'s profile count of
        ``(direction, label, new label)`` exceeds the embedding's own (distinct:
        it is injective) nodes among those neighbours."""
        resident, label = self._resident, delta.label
        if delta.closing:
            source, target = positions[delta.source], positions[delta.target]
            out_neighbors = resident.out_neighbors
            return lambda embedding: embedding[target] in out_neighbors(embedding[source], label)
        anchor, triple = _growth(positions, delta)
        neighbors = resident.out_neighbors if triple[0] == "out" else resident.in_neighbors
        # Only positions whose pattern label is the new one can hold a
        # neighbour the triple counts.
        same_label = tuple(
            i for i, node in enumerate(parent.node_order) if parent.pattern.label(node) == delta.new_label
        )
        row = self._rows[1]

        def test(embedding: tuple) -> bool:
            image = embedding[anchor]
            count = row(image).get(triple, 0)
            if count > len(same_label):
                return True
            if not count:
                return False
            adjacent = neighbors(image, label)
            return count > sum(embedding[i] in adjacent for i in same_label)

        return test

    def _producer(
        self, parent_stream: _EmbeddingStream, positions: dict, delta: DeltaEdge, test: Callable
    ) -> Iterator[tuple]:
        """Child embeddings at one centre, drawn lazily through the delta edge."""
        resident = self._resident
        if not delta.closing:
            anchor, (direction, label, new_label) = _growth(positions, delta)
            neighbors = resident.out_neighbors if direction == "out" else resident.in_neighbors
            bucket = resident.nodes_with_label(new_label)
        position = 0
        while parent_stream.ensure(position + 1):
            embedding = parent_stream.pulled[position]
            position += 1
            if not test(embedding):
                continue
            if delta.closing:
                yield embedding
                continue
            for neighbor in neighbors(embedding[anchor], label) & bucket:
                if neighbor not in embedding:  # embeddings are injective
                    yield embedding + (neighbor,)
        if parent_stream.truncated:
            yield _TRUNCATED
