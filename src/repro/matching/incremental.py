"""Incremental match materialization for levelwise mining (delta extension).

DMine grows rules level by level: every level-``k+1`` candidate pattern is a
parent pattern plus *exactly one* edge.  Re-matching each child from an empty
embedding discards everything the parent level already proved.  This module
turns matching into an incremental computation:

* :class:`MatchStore` materializes, per fragment graph, the match set of a
  pattern **plus** its witness embeddings — compact tuples pulled lazily
  from the matcher's own enumeration, keyed by the pattern's canonical
  code — so a later level can start from them;
* :class:`DeltaMatcher` produces a child pattern's matches from a parent
  entry and a :class:`DeltaEdge` by probing only the new edge's endpoints:
  a *closing* edge (both endpoints already in the parent) is one
  membership probe per stored embedding, a *growing* edge (one fresh
  node) is one adjacency-bucket probe per stored embedding, both answered
  by the graph's resident :class:`repro.graph.columnar.ColumnarFragment`.

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

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping

from repro.graph.columnar import columnar_view
from repro.graph.graph import Graph
from repro.matching.base import Matcher
from repro.obs.stats import StatisticsBase
from repro.pattern.canonical import canonical_code
from repro.pattern.pattern import Pattern

NodeId = Hashable

#: Per-centre cap on materialized embeddings.  A centre whose stream hits
#: the cap is marked truncated and re-verified by full search when extended.
DEFAULT_EMBEDDING_CAP = 64

#: How many parent embeddings a delta probe inspects before declaring the
#: centre undecided and falling back to one anchored search.  Keeps the
#: worst case (many parent embeddings, child matching none of them) at the
#: cost the from-scratch path would pay anyway, instead of exhausting the
#: parent's enumeration.
DEFAULT_PROBE_DEPTH = 4

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
    if parent.copy_counts() or child.copy_counts():
        return None
    if parent.x != child.x or parent.y != child.y:
        return None
    parent_edges = set(parent.edges())
    child_edges = set(child.edges())
    if not parent_edges <= child_edges:
        return None
    extra = child_edges - parent_edges
    if len(extra) != 1:
        return None
    edge = next(iter(extra))
    parent_nodes = set(parent.nodes())
    child_nodes = set(child.nodes())
    if not parent_nodes <= child_nodes:
        return None  # the child dropped a (necessarily isolated) parent node
    for node in parent_nodes:
        if parent.label(node) != child.label(node):
            return None
    fresh = child_nodes - parent_nodes
    if not fresh:
        if edge.source not in parent_nodes or edge.target not in parent_nodes:
            return None
        return DeltaEdge(edge.source, edge.target, edge.label)
    if len(fresh) != 1:
        return None
    new_node = next(iter(fresh))
    if new_node not in (edge.source, edge.target):
        return None  # a floating node the new edge does not touch
    other = edge.target if new_node == edge.source else edge.source
    if other not in parent_nodes:
        return None
    return DeltaEdge(
        edge.source, edge.target, edge.label,
        new_node=new_node, new_label=child.label(new_node),
    )


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

    @property
    def exhausted(self) -> bool:
        """Whether pulling more embeddings is impossible (either state)."""
        return self._producer is None

    @property
    def complete(self) -> bool:
        """Whether ``pulled`` provably holds *every* embedding."""
        return self._producer is None and not self.truncated

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
    """Per-graph registry of :class:`MatchEntry`, keyed by canonical code.

    The store is *fragment-resident*: it lives next to the fragment graph
    inside a worker (built lazily, never pickled) and is invalidated by the
    graph's mutation counter — a probe against a mutated graph drops the
    stale entry and reports a miss, so a stale read is impossible.
    """

    def __init__(self, graph: Graph, cap: int = DEFAULT_EMBEDDING_CAP) -> None:
        if cap < 1:
            raise ValueError(f"cap must be >= 1, got {cap}")
        self.graph = graph
        self.cap = cap
        self.statistics = StoreStatistics()
        self._entries: dict[str, MatchEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, pattern: Pattern) -> MatchEntry | None:
        """The current entry for *pattern*, or ``None`` on any mismatch.

        Misses on: unknown code, an automorphic sibling materialized under
        different node names (its embeddings would not align with the
        caller's delta edge), or a stale graph version (the entry is
        evicted).
        """
        code = canonical_code(pattern)
        entry = self._entries.get(code)
        if entry is None:
            self.statistics.misses += 1
            return None
        if entry.version != self.graph.version:
            self.statistics.stale_entries += 1
            self.statistics.misses += 1
            del self._entries[code]
            return None
        if entry.pattern != pattern:
            self.statistics.misses += 1
            return None
        self.statistics.hits += 1
        return entry

    def put(self, entry: MatchEntry) -> str:
        """Register *entry*; returns its code key."""
        code = canonical_code(entry.pattern)
        self._entries[code] = entry
        return code

    def retain(self, codes: Iterable[str]) -> int:
        """Drop every entry whose code is not in *codes*; returns #dropped.

        DMine calls this after each evaluate round with the codes
        materialized *in* that round: the only parents the next level can
        ever need are this level's children, so coordinator-side beam
        pruning translates into bounded worker-side memory.
        """
        keep = set(codes)
        stale = [code for code in self._entries if code not in keep]
        for code in stale:
            del self._entries[code]
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
        child: Pattern,
        delta: DeltaEdge,
        candidates: Iterable[NodeId],
        want_entry: bool = True,
    ) -> tuple[set, MatchEntry | None]:
        """Matches of *child* over *candidates* via one-edge delta extension.

        Equals ``matcher.match_set(graph, child, candidates)`` exactly: only
        centres in both *candidates* and the parent's match set can match
        (anti-monotonicity); each is decided by probing the delta edge
        against the parent's first few embeddings — an exact answer when the
        parent has that few (the common case) — with one full anchored
        search whenever the probe budget runs out undecided.
        """
        graph = self.graph
        stats = self.store.statistics
        pool = set(candidates)
        pool &= parent.matches
        cap = self.store.cap
        depth = min(DEFAULT_PROBE_DEPTH, cap)
        positions = {node: i for i, node in enumerate(parent.node_order)}
        node_order = parent.node_order
        if not delta.closing:
            node_order = node_order + (delta.new_node,)
        matches: set[NodeId] = set()
        streams: dict[NodeId, _EmbeddingStream] = {}
        keep_streams = want_entry and self.supports(child)
        for center in pool:
            parent_stream = parent.streams.get(center)
            if parent_stream is None:
                # A fallback-decided ancestor left no embeddings here.
                stats.fallback_probes += 1
                if self.matcher.exists_match_at(graph, child, center):
                    matches.add(center)
                continue
            stats.delta_extensions += 1
            found: bool | None = None  # None = undecided
            for position in range(depth):
                if not parent_stream.ensure(position + 1):
                    if not parent_stream.truncated:
                        found = False  # enumeration complete: nothing extends
                    break
                extended = self._extensions(
                    parent_stream.pulled[position], positions, delta
                )
                if any(True for _ in extended):
                    found = True
                    break
            decided_by_probe = found is not None
            if found is None:
                # Deeper parent embeddings might still extend: one full
                # anchored search settles it at from-scratch cost.
                stats.fallback_probes += 1
                found = self.matcher.exists_match_at(graph, child, center)
            if found:
                matches.add(center)
                if keep_streams and decided_by_probe:
                    # Lazy stream over *all* parent embeddings; fallback-
                    # decided centres keep none, so their descendants fall
                    # back too rather than trusting a partial view.
                    streams[center] = _EmbeddingStream(
                        self._producer(parent_stream, positions, delta), cap
                    )
        entry = None
        if keep_streams:
            entry = MatchEntry(
                pattern=child,
                node_order=node_order,
                matches=frozenset(matches),
                streams=streams,
                version=graph.version,
                canonical_witness=False,
            )
            self.store.put(entry)
        return matches, entry

    def _producer(
        self, parent_stream: _EmbeddingStream, positions: dict, delta: DeltaEdge
    ) -> Iterator[tuple]:
        """Child embeddings at one centre, drawn lazily through the delta edge."""
        position = 0
        while True:
            if not parent_stream.ensure(position + 1):
                if parent_stream.truncated:
                    yield _TRUNCATED
                return
            yield from self._extensions(parent_stream.pulled[position], positions, delta)
            position += 1

    def _extensions(self, embedding: tuple, positions: dict, delta: DeltaEdge):
        """Yield the child embeddings extending one parent *embedding*."""
        resident = self._resident
        if delta.closing:
            source = embedding[positions[delta.source]]
            target = embedding[positions[delta.target]]
            if target in resident.out_neighbors(source, delta.label):
                yield embedding
            return
        if delta.new_node == delta.target:
            neighbors = resident.out_neighbors(embedding[positions[delta.source]], delta.label)
        else:
            neighbors = resident.in_neighbors(embedding[positions[delta.target]], delta.label)
        used = set(embedding)
        label_of = resident.node_label
        for neighbor in neighbors:
            if neighbor in used:
                continue  # embeddings are injective
            if label_of(neighbor) != delta.new_label:
                continue
            yield embedding + (neighbor,)
