"""Directed, node- and edge-labelled property graph.

This is the substrate every other subsystem builds on.  It is deliberately a
plain-Python adjacency structure (dict-of-dict-of-set) rather than a wrapper
around networkx: the mining loops probe ``has_edge`` and ``out_neighbors``
millions of times and the indirection of a general-purpose library is the
bottleneck the reproduction hint warns about.

Model (paper Section 2.1)
-------------------------
* ``G = (V, E, L)`` with a finite node set, directed edges, and a label on
  every node and every edge.
* Parallel edges with *different* labels between the same pair of nodes are
  allowed (e.g. both ``like`` and ``visit`` from a customer to a restaurant);
  parallel edges with the same label are not (they would be indistinguishable
  to the matcher and to the support metrics).
* ``|G| = |V| + |E|`` (the paper's size measure).
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Iterator

from repro.exceptions import EdgeNotFoundError, GraphError, NodeNotFoundError

NodeId = Hashable
Label = str

#: How many finished :class:`GraphDelta` records a graph retains.  The
#: resident ``ColumnarFragment`` patches itself forward from this log; once
#: it falls further behind than the log reaches, it rebuilds from scratch
#: instead.
DELTA_LOG_SIZE = 32


@dataclass(frozen=True)
class Edge:
    """A directed labelled edge ``source --label--> target``."""

    source: NodeId
    target: NodeId
    label: Label


@dataclass(frozen=True)
class GraphDelta:
    """The *net* effect of one version tick (a single mutation or a batch).

    ``touched`` is the set of nodes whose incident structure changed: the
    endpoints of every net-added/removed edge plus every net-added, removed
    or relabelled node (a removed node's former neighbours are touched via
    its removed incident edges).  Operations that cancel out inside one batch
    (an edge removed then re-added) appear in no set — the version still
    ticks, but the delta is net-empty.

    The central locality fact consumers rely on (proved in
    ``docs/streaming.md``): for any node ``c``, if the r-hop neighbourhood of
    ``c`` changed between ``base_version`` and ``result_version``, then some
    touched node lies within ``r`` hops of ``c`` **in the post-update
    graph**.  Ball-scoped invalidation from ``touched`` on the new graph is
    therefore exact — no pre-update snapshot is needed.
    """

    base_version: int
    result_version: int
    touched: frozenset
    added_nodes: frozenset
    removed_nodes: frozenset
    relabeled_nodes: frozenset
    added_edges: frozenset
    removed_edges: frozenset
    #: ``(node, label before the tick)`` of every relabelled or removed node
    #: (a class-level default, so deltas pickled before it existed restore).
    old_labels: frozenset = frozenset()

    @property
    def net_empty(self) -> bool:
        """Whether the delta changed nothing (every operation cancelled out)."""
        return not self.touched


class _DeltaRecorder:
    """Captures pre-mutation state so a net :class:`GraphDelta` can be diffed.

    One recorder is open per version tick: either for the span of a
    ``batch_update`` context or transiently inside a single mutator call.
    First-touch wins: ``node_initial``/``edge_initial`` keep the state from
    *before* the tick, whatever later operations do to the same key.
    """

    __slots__ = ("base_version", "node_initial", "edge_initial", "dirty")

    def __init__(self, base_version: int) -> None:
        self.base_version = base_version
        # node id -> (was present, label at open time or None)
        self.node_initial: dict[NodeId, tuple[bool, Label | None]] = {}
        # (source, target, label) -> was present
        self.edge_initial: dict[tuple, bool] = {}
        self.dirty = False

    def finalize(self, graph: "Graph") -> GraphDelta:
        """Diff the recorded initial states against the graph's current state."""
        added_nodes: list[NodeId] = []
        removed_nodes: list[NodeId] = []
        relabeled: list[NodeId] = []
        old_labels: list[tuple] = []
        touched: set[NodeId] = set()
        labels = graph._labels
        for node, (was_present, old_label) in self.node_initial.items():
            now = labels.get(node)
            if was_present:
                if now is None:
                    removed_nodes.append(node)
                elif now != old_label:
                    relabeled.append(node)
                else:
                    continue
                old_labels.append((node, old_label))
                touched.add(node)
            elif now is not None:
                added_nodes.append(node)
                touched.add(node)
        added_edges: list[tuple] = []
        removed_edges: list[tuple] = []
        for key, was_present in self.edge_initial.items():
            source, target, label = key
            now = graph.has_edge(source, target, label)
            if now == was_present:
                continue
            (added_edges if now else removed_edges).append(key)
            touched.add(source)
            touched.add(target)
        return GraphDelta(
            base_version=self.base_version,
            result_version=graph._version,
            touched=frozenset(touched),
            added_nodes=frozenset(added_nodes),
            removed_nodes=frozenset(removed_nodes),
            relabeled_nodes=frozenset(relabeled),
            added_edges=frozenset(added_edges),
            removed_edges=frozenset(removed_edges),
            old_labels=frozenset(old_labels),
        )


class GraphBatch:
    """Context manager applying several mutations as **one** version tick.

    Returned by :meth:`Graph.batch_update`.  Mutations made inside the
    ``with`` block — through the proxy methods below or directly on the
    graph — are folded into a single version bump and one recorded
    :class:`GraphDelta`; ``touched``/``delta`` expose the net effect after
    the block exits.  Nested batches join the outermost one (one tick in
    total).

    Derived structures must not be probed *inside* the block: the resident
    :class:`~repro.graph.columnar.ColumnarFragment` treats an open, dirty
    batch as stale and refuses (``GraphError``) to refresh from a
    half-applied state — which is why matchers probe the raw graph while a
    batch is open (:func:`repro.matching.base.resident_view`).
    """

    __slots__ = ("_graph", "_owns", "_delta")

    def __init__(self, graph: "Graph") -> None:
        self._graph = graph
        self._owns = False
        self._delta: GraphDelta | None = None

    def __enter__(self) -> "GraphBatch":
        if self._graph._recorder is None:
            self._graph._open_recorder()
            self._owns = True
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._owns:
            self._delta = self._graph._close_recorder()
        return False

    # -- proxy mutators (equivalent to calling the graph directly) ---------
    def add_node(self, node_id: NodeId, label: Label, attrs: dict | None = None) -> None:
        self._graph.add_node(node_id, label, attrs)

    def add_edge(self, source: NodeId, target: NodeId, label: Label) -> bool:
        return self._graph.add_edge(source, target, label)

    def remove_edge(self, source: NodeId, target: NodeId, label: Label) -> None:
        self._graph.remove_edge(source, target, label)

    def remove_node(self, node_id: NodeId) -> None:
        self._graph.remove_node(node_id)

    def relabel_node(self, node_id: NodeId, label: Label) -> None:
        self._graph.relabel_node(node_id, label)

    # -- outcome -----------------------------------------------------------
    @property
    def delta(self) -> GraphDelta:
        """The batch's net :class:`GraphDelta`; only available after exit."""
        if self._delta is None:
            raise GraphError(
                "the batch is still open (or joined an enclosing batch); "
                "its delta is available only after the outermost block exits"
            )
        return self._delta


class Graph:
    """A directed graph with labelled nodes and labelled edges.

    Parameters
    ----------
    name:
        Optional human-readable name used in ``repr`` and benchmark reports.

    Example
    -------
    >>> g = Graph(name="toy")
    >>> g.add_node("alice", "cust")
    >>> g.add_node("cafe", "restaurant")
    >>> g.add_edge("alice", "cafe", "visit")
    >>> g.has_edge("alice", "cafe", "visit")
    True
    >>> sorted(g.nodes_with_label("cust"))
    ['alice']
    """

    __slots__ = (
        "name",
        "_labels",
        "_attrs",
        "_out",
        "_in",
        "_nodes_by_label",
        "_num_edges",
        "_edge_label_counts",
        "_version",
        "_recorder",
        "_delta_log",
        "_label_table",
        "__weakref__",
    )

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        # node id -> node label
        self._labels: dict[NodeId, Label] = {}
        # node id -> optional attribute dict (created lazily)
        self._attrs: dict[NodeId, dict[str, Any]] = {}
        # source -> edge label -> set of targets
        self._out: dict[NodeId, dict[Label, set[NodeId]]] = {}
        # target -> edge label -> set of sources
        self._in: dict[NodeId, dict[Label, set[NodeId]]] = {}
        # node label -> set of node ids
        self._nodes_by_label: dict[Label, set[NodeId]] = {}
        self._num_edges = 0
        # edge label -> count
        self._edge_label_counts: dict[Label, int] = {}
        # Mutation counter: bumped by every version tick — one per single
        # mutator call *or* per whole batch_update() block — so derived
        # structures (e.g. repro.graph.columnar.ColumnarFragment) can detect
        # staleness with a single integer comparison.
        self._version = 0
        # Open _DeltaRecorder while a tick is in progress, else None.
        self._recorder: _DeltaRecorder | None = None
        # Ring buffer of finished GraphDeltas (newest last); consumers patch
        # themselves forward from it via deltas_since().
        self._delta_log: deque = deque(maxlen=DELTA_LOG_SIZE)
        # Shared label-interning table (repro.graph.columnar.LabelTable),
        # created lazily by the label_table property.
        self._label_table = None

    # ------------------------------------------------------------------
    # version ticks and delta recording
    # ------------------------------------------------------------------
    def _open_recorder(self) -> tuple[_DeltaRecorder, bool]:
        """The open recorder (joining an outer batch) or a fresh owned one."""
        recorder = self._recorder
        if recorder is not None:
            return recorder, False
        recorder = self._recorder = _DeltaRecorder(self._version)
        return recorder, True

    def _close_recorder(self) -> GraphDelta:
        """Finish the tick: bump the version once (if dirty) and log the delta."""
        recorder = self._recorder
        self._recorder = None
        if recorder.dirty:
            self._version += 1
        delta = recorder.finalize(self)
        if recorder.dirty:
            # Net-empty-but-dirty deltas are logged too: they keep the
            # (base_version -> result_version) chain contiguous.
            self._delta_log.append(delta)
        return delta

    @property
    def in_batch(self) -> bool:
        """Whether a version tick (batch or single mutation) is in progress."""
        return self._recorder is not None

    def batch_update(self) -> GraphBatch:
        """Open a :class:`GraphBatch`: many mutations, one version bump.

        Example
        -------
        >>> g = Graph()
        >>> g.add_node("a", "x"); g.add_node("b", "x")
        >>> before = g.version
        >>> with g.batch_update() as tx:
        ...     _ = tx.add_edge("a", "b", "e")
        ...     tx.relabel_node("b", "y")
        >>> g.version - before
        1
        >>> sorted(tx.touched)
        ['a', 'b']
        """
        return GraphBatch(self)

    def deltas_since(self, version: int) -> list[GraphDelta] | None:
        """Recorded deltas forming a contiguous chain from *version* to now.

        Returns ``[]`` when *version* is current, or ``None`` when the log no
        longer reaches back that far (the caller must rebuild from scratch).
        """
        if version == self._version:
            return []
        chain: list[GraphDelta] = []
        for delta in reversed(self._delta_log):
            chain.append(delta)
            if delta.base_version == version:
                chain.reverse()
                return chain
            if delta.base_version < version:
                return None
        return None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_parts(cls, nodes: Iterable[tuple], edges: Iterable[tuple], name: str = "graph") -> "Graph":
        """A graph of *nodes* ``(id, label, attrs)`` and *edges* ``(source, target, label)``,
        checked as :meth:`add_node` / :meth:`add_edge` check them.  Construction is not
        an update: nothing is recorded (version 0, an empty delta log)."""
        graph = cls(name=name)
        for node in nodes:
            graph._store_node(*node)
        for edge in edges:
            graph._store_edge(*edge)
        return graph

    def _store_node(self, node_id: NodeId, label: Label, attrs: dict | None) -> bool:
        """Add or re-add a node, recording nothing; whether it was new (see :meth:`add_node`)."""
        if type(label) is str:
            label = sys.intern(label)
        existing = self._labels.get(node_id)
        if existing is not None:
            if existing != label:
                raise GraphError(
                    f"node {node_id!r} already exists with label {existing!r}; "
                    f"cannot re-add it with label {label!r}"
                )
            if attrs:
                self._attrs.setdefault(node_id, {}).update(attrs)
            return False
        self._labels[node_id] = label
        self._out[node_id] = {}
        self._in[node_id] = {}
        self._nodes_by_label.setdefault(label, set()).add(node_id)
        if attrs:
            self._attrs[node_id] = dict(attrs)
        return True

    def _store_edge(self, source: NodeId, target: NodeId, label: Label) -> tuple | None:
        """Add an edge, recording nothing; its key when new, ``None`` when present."""
        if type(label) is str:
            label = sys.intern(label)
        if source not in self._labels:
            raise NodeNotFoundError(source)
        if target not in self._labels:
            raise NodeNotFoundError(target)
        targets = self._out[source].setdefault(label, set())
        if target in targets:
            return None
        targets.add(target)
        self._in[target].setdefault(label, set()).add(source)
        self._num_edges += 1
        self._edge_label_counts[label] = self._edge_label_counts.get(label, 0) + 1
        return source, target, label

    def add_node(
        self,
        node_id: NodeId,
        label: Label,
        attrs: dict[str, Any] | None = None,
    ) -> None:
        """Add a node with *label*; re-adding with a different label fails."""
        recorder, owns = self._open_recorder()
        try:
            if self._store_node(node_id, label, attrs):
                recorder.node_initial.setdefault(node_id, (False, None))
                recorder.dirty = True
        finally:
            if owns:
                self._close_recorder()

    def add_edge(self, source: NodeId, target: NodeId, label: Label) -> bool:
        """Add edge ``source --label--> target``.

        Both endpoints must already exist.  Returns ``True`` if the edge was
        new, ``False`` if an identical edge was already present (the graph is
        left unchanged in that case).
        """
        recorder, owns = self._open_recorder()
        try:
            key = self._store_edge(source, target, label)
            if key is not None:
                recorder.edge_initial.setdefault(key, False)
                recorder.dirty = True
        finally:
            if owns:
                self._close_recorder()
        return key is not None

    def remove_edge(self, source: NodeId, target: NodeId, label: Label) -> None:
        """Remove an edge; raises :class:`EdgeNotFoundError` if absent."""
        targets = self._out.get(source, {}).get(label)
        if not targets or target not in targets:
            raise EdgeNotFoundError(source, target, label)
        recorder, owns = self._open_recorder()
        try:
            recorder.edge_initial.setdefault((source, target, label), True)
            targets.discard(target)
            if not targets:
                del self._out[source][label]
            sources = self._in[target][label]
            sources.discard(source)
            if not sources:
                del self._in[target][label]
            self._num_edges -= 1
            remaining = self._edge_label_counts[label] - 1
            if remaining:
                self._edge_label_counts[label] = remaining
            else:
                del self._edge_label_counts[label]
            recorder.dirty = True
        finally:
            if owns:
                self._close_recorder()

    def remove_node(self, node_id: NodeId) -> None:
        """Remove a node and all incident edges (one version tick in total).

        The incident-edge removals are folded into the node removal's own
        recorder, so one logical operation is one version bump — and the
        recorded delta's ``touched`` set includes the former neighbours.
        """
        if node_id not in self._labels:
            raise NodeNotFoundError(node_id)
        recorder, owns = self._open_recorder()
        try:
            recorder.node_initial.setdefault(node_id, (True, self._labels[node_id]))
            for label, targets in list(self._out[node_id].items()):
                for target in list(targets):
                    self.remove_edge(node_id, target, label)
            for label, sources in list(self._in[node_id].items()):
                for source in list(sources):
                    self.remove_edge(source, node_id, label)
            label = self._labels.pop(node_id)
            self._nodes_by_label[label].discard(node_id)
            if not self._nodes_by_label[label]:
                del self._nodes_by_label[label]
            del self._out[node_id]
            del self._in[node_id]
            self._attrs.pop(node_id, None)
            recorder.dirty = True
        finally:
            if owns:
                self._close_recorder()

    def relabel_node(self, node_id: NodeId, label: Label) -> None:
        """Change the label of an existing node (no-op if unchanged)."""
        if type(label) is str:
            label = sys.intern(label)
        existing = self._labels.get(node_id)
        if existing is None:
            raise NodeNotFoundError(node_id)
        if existing == label:
            return
        recorder, owns = self._open_recorder()
        try:
            recorder.node_initial.setdefault(node_id, (True, existing))
            self._labels[node_id] = label
            old_bucket = self._nodes_by_label[existing]
            old_bucket.discard(node_id)
            if not old_bucket:
                del self._nodes_by_label[existing]
            self._nodes_by_label.setdefault(label, set()).add(node_id)
            recorder.dirty = True
        finally:
            if owns:
                self._close_recorder()

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``|V|``."""
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        """Number of edges ``|E|``."""
        return self._num_edges

    @property
    def version(self) -> int:
        """Monotonic mutation counter (see :mod:`repro.graph.columnar`)."""
        return self._version

    @property
    def label_table(self):
        """The graph's shared :class:`repro.graph.columnar.LabelTable`.

        Created lazily and topped up with every label currently present on
        each access (interning an already-known label is a no-op, so the
        top-up is O(#distinct labels)).  Ids are append-only and therefore
        stable across mutations; a label that leaves the graph keeps its id.
        """
        table = self._label_table
        if table is None:
            from repro.graph.columnar import LabelTable

            table = self._label_table = LabelTable()
        for label in self._nodes_by_label:
            table.intern(label)
        for label in self._edge_label_counts:
            table.intern(label)
        return table

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._labels

    def has_node(self, node_id: NodeId) -> bool:
        """Whether *node_id* is a node of the graph."""
        return node_id in self._labels

    def node_label(self, node_id: NodeId) -> Label:
        """Return the label of *node_id*."""
        try:
            return self._labels[node_id]
        except KeyError:
            raise NodeNotFoundError(node_id) from None

    def node_attrs(self, node_id: NodeId) -> dict[str, Any]:
        """Return the (possibly empty) attribute dict of *node_id*."""
        if node_id not in self._labels:
            raise NodeNotFoundError(node_id)
        return self._attrs.get(node_id, {})

    def nodes(self) -> Iterator[NodeId]:
        """Iterate over node ids."""
        return iter(self._labels)

    def node_items(self) -> Iterator[tuple[NodeId, Label]]:
        """Iterate over ``(node_id, label)`` pairs."""
        return iter(self._labels.items())

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges as :class:`Edge` instances."""
        for source, by_label in self._out.items():
            for label, targets in by_label.items():
                for target in targets:
                    yield Edge(source, target, label)

    def has_edge(self, source: NodeId, target: NodeId, label: Label | None = None) -> bool:
        """Whether an edge from *source* to *target* exists.

        If *label* is ``None`` any edge label counts; otherwise the label must
        match exactly.
        """
        by_label = self._out.get(source)
        if not by_label:
            return False
        if label is None:
            return any(target in targets for targets in by_label.values())
        targets = by_label.get(label)
        return bool(targets) and target in targets

    # ------------------------------------------------------------------
    # label index
    # ------------------------------------------------------------------
    def nodes_with_label(self, label: Label) -> set[NodeId]:
        """Return (a copy of) the set of nodes carrying *label*."""
        return set(self._nodes_by_label.get(label, ()))

    def node_labels(self) -> set[Label]:
        """The set of distinct node labels present in the graph."""
        return set(self._nodes_by_label)

    def edge_labels(self) -> set[Label]:
        """The set of distinct edge labels present in the graph."""
        return set(self._edge_label_counts)

    def node_label_counts(self) -> dict[Label, int]:
        """Histogram of node labels."""
        return {label: len(nodes) for label, nodes in self._nodes_by_label.items()}

    # ------------------------------------------------------------------
    # adjacency
    # ------------------------------------------------------------------
    def out_neighbors(self, node_id: NodeId, label: Label | None = None) -> set[NodeId]:
        """Targets of out-edges of *node_id*, optionally restricted by label."""
        by_label = self._out.get(node_id)
        if by_label is None:
            raise NodeNotFoundError(node_id)
        if label is not None:
            return set(by_label.get(label, ()))
        result: set[NodeId] = set()
        for targets in by_label.values():
            result.update(targets)
        return result

    def in_neighbors(self, node_id: NodeId, label: Label | None = None) -> set[NodeId]:
        """Sources of in-edges of *node_id*, optionally restricted by label."""
        by_label = self._in.get(node_id)
        if by_label is None:
            raise NodeNotFoundError(node_id)
        if label is not None:
            return set(by_label.get(label, ()))
        result: set[NodeId] = set()
        for sources in by_label.values():
            result.update(sources)
        return result

    def neighbors(self, node_id: NodeId) -> set[NodeId]:
        """Undirected neighbourhood (union of in- and out-neighbours)."""
        return self.out_neighbors(node_id) | self.in_neighbors(node_id)

    def out_edges(self, node_id: NodeId) -> Iterator[Edge]:
        """Iterate over out-edges of *node_id*."""
        by_label = self._out.get(node_id)
        if by_label is None:
            raise NodeNotFoundError(node_id)
        for label, targets in by_label.items():
            for target in targets:
                yield Edge(node_id, target, label)

    def in_edges(self, node_id: NodeId) -> Iterator[Edge]:
        """Iterate over in-edges of *node_id*."""
        by_label = self._in.get(node_id)
        if by_label is None:
            raise NodeNotFoundError(node_id)
        for label, sources in by_label.items():
            for source in sources:
                yield Edge(source, node_id, label)

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "Graph":
        """Return a deep structural copy of the graph."""
        return Graph.from_parts(
            ((node_id, label, self._attrs.get(node_id)) for node_id, label in self._labels.items()),
            ((edge.source, edge.target, edge.label) for edge in self.edges()),
            name=name or self.name,
        )

    def induced_subgraph(self, node_ids: Iterable[NodeId], name: str | None = None) -> "Graph":
        """Subgraph induced by *node_ids*: keeps all edges between them.

        Copied a row at a time: each kept node's out and in rows restricted to
        the kept set (``targets & keep``, a fresh set — the subgraph shares no
        set with this graph, and either may be mutated alone)."""
        keep = set(node_ids)
        missing = [node for node in keep if node not in self._labels]
        if missing:
            raise NodeNotFoundError(missing[0])
        graph = Graph(name=name or f"{self.name}|induced")
        counts = graph._edge_label_counts
        for node_id in keep:
            graph._store_node(node_id, self._labels[node_id], self._attrs.get(node_id))
        for node_id in keep:
            out, into = graph._out[node_id], graph._in[node_id]
            for label, targets in self._out[node_id].items():
                row = targets & keep
                if row:
                    out[label] = row
                    counts[label] = counts.get(label, 0) + len(row)
            for label, sources in self._in[node_id].items():
                row = sources & keep
                if row:
                    into[label] = row
        graph._num_edges = sum(counts.values())
        return graph

    # ------------------------------------------------------------------
    # dunder helpers
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"Graph(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )
