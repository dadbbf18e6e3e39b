"""The fragment-resident structure of the matching hot path.

The authoritative :class:`~repro.graph.graph.Graph` is a dict-of-dict-of-set
structure: perfect for mutation, wasteful to *probe* — every adjacency read
hashes strings and copies a set, every profile or sketch is re-derived in
O(degree) or O(|ball|).  A :class:`ColumnarFragment` is the **one** derived
structure a process keeps beside a resident graph; every matcher probe on
that graph is answered from it.

Stores (eager, one per quantity)
--------------------------------
* **interned labels + label buckets** — every node/edge label becomes a
  small integer through a shared, append-only :class:`LabelTable` (exposed
  as ``Graph.label_table``); a dense ``label id`` column over node positions
  plus one frozen ``label id -> nodes`` bucket map answer ``node_label`` and
  ``nodes_with_label`` without a per-probe copy;
* **profile matrix** — the labelled adjacency profiles of
  :func:`repro.matching.candidates.adjacency_profile`, laid out as one flat
  ``|V| x |columns|`` count buffer whose columns are the observed
  ``(direction, edge label, neighbour label)`` triples.  The per-node check
  of the search loop (:meth:`ColumnarFragment.degree_consistent`) and the
  pool filter (:meth:`ColumnarFragment.filter_candidates`) read python ints
  off one row.

Adjacency itself is *not* copied: the graph's dicts stay the one adjacency
representation, read through the frozen views below.

All buffers are stdlib ``array('q')``: the core is dependency-free.

Caches (lazy, version-pinned)
-----------------------------
* **frozen adjacency views** — per ``node -> edge label`` neighbour sets in
  each direction, as frozensets memoised on first use; the matchers
  intersect these millions of times;
* **neighbourhood kernel** — a :class:`~repro.graph.neighborhood.Neighborhoods`
  over the graph: memoised undirected neighbourhoods (bit masks on graphs
  small enough, frozensets otherwise) that every ball and sketch BFS runs on;
* **k-hop sketch cache** — the kernel's sketch handle per ``(node, hops)``:
  the hop rings on the mask side (labels are read when a test needs them,
  so a relabel keeps them), a :class:`~repro.graph.sketch.KHopSketch` on the
  set side; an isolated node's is materialised without a BFS round-trip;
* **compiled requirements** — a pattern node's required profile in
  id/column space, memoised per pattern object.

Invalidation
------------
The structure pins ``graph.version`` (a monotonic mutation counter) at
compile time and compares it on **every** probe; a stale probe refreshes
first, so a stale read is impossible.  A probe made while a
``Graph.batch_update`` block is open *and dirty* raises
:class:`~repro.exceptions.GraphError` instead of refreshing from a
half-applied state (matchers never get there: while a batch is open they
probe the raw graph, see :func:`repro.matching.base.resident_view`).

``refresh()`` prefers in-place delta patching: while the graph's bounded
delta log (:meth:`repro.graph.graph.Graph.deltas_since`) reaches back to the
pinned version and the touched region stays under
:data:`DELTA_REBUILD_FRACTION` of the graph,
:meth:`ColumnarFragment.apply_delta` patches forward — label buckets are
rewritten, touched nodes (and the profile rows of a relabelled node's
neighbours) move into small dict *overlays* every per-node probe consults
first, memoised adjacency views of touched nodes are dropped, and
cached sketches are invalidated only where they can have changed (computed
on the post-update graph; ``docs/columnar.md`` shows that is exact).  The
frozen arrays are not rewritten; the overlays fold back into them at the
next compile boundary (a refresh that rebuilds, or a streaming session
recovering a failed tick).

Residency
---------
:func:`columnar_view` memoises one structure per graph object in a
per-process weak registry, so it lives exactly as long as its graph and
never crosses a pickle boundary.  The process execution backend compiles its
fragments' structures inside the worker-pool initializer
(:func:`repro.parallel.worker.init_worker`).
"""

from __future__ import annotations

import sys
import threading
import weakref
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Hashable, Iterable

from repro.exceptions import GraphError, NodeNotFoundError
from repro.graph.graph import Graph, GraphDelta
from repro.graph.neighborhood import Neighborhoods
from repro.graph.sketch import KHopSketch
from repro.obs.stats import StatisticsBase
from repro.obs.tracing import span

NodeId = Hashable
Label = str

#: Direction codes used in id-space profile triples, and their spelling in
#: the string-keyed profiles of :mod:`repro.matching.candidates`.
OUT, IN = 0, 1
_DIRECTIONS = ("out", "in")

#: When the touched nodes of a pending delta chain exceed this fraction of
#: the graph, ``refresh()`` prefers one full O(|V| + |E|) recompile over
#: patching most of the structure anyway.
DELTA_REBUILD_FRACTION = 0.25

#: Compiled requirements memoised per structure before the memo is cleared.
_REQUIREMENT_MEMO_LIMIT = 4096

_EMPTY_FROZEN: frozenset = frozenset()
_NO_VIEWS: dict = {}  # read-only stand-in for a key with nothing memoised yet


class LabelTable:
    """Append-only bidirectional ``label <-> small int`` interning table.

    Shared per graph (``Graph.label_table``): ids are stable for the lifetime
    of the table, labels are ``sys.intern``-ed on entry, and a label that
    disappears from the graph keeps its id (the table never shrinks, so a
    patched columnar view never sees an id change meaning).
    """

    __slots__ = ("_ids", "_labels")

    def __init__(self) -> None:
        self._ids: dict[Label, int] = {}
        self._labels: list[Label] = []

    def __len__(self) -> int:
        return len(self._labels)

    def intern(self, label: Label) -> int:
        """Id of *label*, assigning the next free id on first sight."""
        label_id = self._ids.get(label)
        if label_id is None:
            if type(label) is str:
                label = sys.intern(label)
            label_id = len(self._labels)
            self._ids[label] = label_id
            self._labels.append(label)
        return label_id

    def id_of(self, label: Label) -> int | None:
        """Id of *label* without assigning one (``None`` when unknown)."""
        return self._ids.get(label)

    def label_of(self, label_id: int) -> Label:
        """The label carrying *label_id*."""
        return self._labels[label_id]

    def __getstate__(self):
        return self._labels

    def __setstate__(self, labels) -> None:
        self._labels = [sys.intern(label) if type(label) is str else label for label in labels]
        self._ids = {label: i for i, label in enumerate(self._labels)}


@dataclass(frozen=True)
class CompiledRequirement:
    """A pattern node's anchor requirement compiled into id/column space.

    ``label_id`` is the required node label (``-1`` when the label is unknown
    to the table — then no data node can match).  ``triples`` is the full
    id-space required profile, checked against overlay (dict) rows; a label
    the table has never seen compiles to a ``None`` id, which no row carries.
    ``pairs`` are the ``(column, need)`` cells of the needed triples that
    have a profile-matrix column, pre-zipped for the per-node row check;
    ``missing`` says some needed triple has none (no array-resident node can
    satisfy it, only an overlay row possibly can).
    """

    label_id: int
    pairs: tuple[tuple[int, int], ...]
    missing: bool
    triples: tuple[tuple[tuple, int], ...]


@dataclass
class ColumnarStatistics(StatisticsBase):
    """Build/probe counters of one :class:`ColumnarFragment` (used by tests).

    Snapshot/merge via :class:`repro.obs.stats.StatisticsBase`; collected as
    ``repro_columnar_*_total`` when ``REPRO_OBS`` is on — except the delta
    and sketch-cache counters, which keep the ``repro_index_*_total`` names
    the repo benchmark's layer table (``benchmarks/e2e/layers.py``) reads.
    """

    _metric_kind = "columnar"
    _field_kinds = dict.fromkeys(
        (
            "delta_applies",
            "sketches_built",
            "sketch_fast_paths",
            "sketches_invalidated",
            "stale_probes",
        ),
        "index",
    )

    builds: int = 0
    refreshes: int = 0
    delta_applies: int = 0
    row_filters: int = 0
    sketches_built: int = 0
    sketch_fast_paths: int = 0
    sketches_invalidated: int = 0
    stale_probes: int = 0


class ColumnarFragment:
    """The resident structure of one graph (see the module docstring).

    Parameters
    ----------
    graph:
        The graph (typically one fragment's local graph) to compile.
    """

    __slots__ = (
        "_graph_ref",
        "statistics",
        "labels",
        "_built_version",
        # stores
        "_pos",
        "_label_ids",
        "_buckets",
        "_columns",
        "_num_columns",
        "_counts",
        "_overlay_labels",
        "_overlay_profiles",
        # caches
        "_requirements",
        "_requirements_labels",
        "_out_frozen",
        "_in_frozen",
        "_neighborhoods",
        "_sketches",
        "__weakref__",
    )

    def __init__(self, graph: Graph) -> None:
        # Weak reference only: the process-wide registry maps graph ->
        # structure with weak keys, so a strong graph reference here would
        # keep every resident graph (e.g. per-run fragment graphs) alive
        # forever.  The structure lives exactly as long as its graph, never
        # the other way around; callers always hold the graph while probing.
        self._graph_ref = weakref.ref(graph)
        self.statistics = ColumnarStatistics()
        self._build()

    @property
    def graph(self) -> Graph:
        """The compiled graph; raises if it has been garbage collected."""
        graph = self._graph_ref()
        if graph is None:
            raise GraphError("the graph of this ColumnarFragment no longer exists")
        return graph

    # ------------------------------------------------------------------
    # compile / invalidation
    # ------------------------------------------------------------------
    def _build(self) -> None:
        with span("columnar.compile", graph=str(self.graph.name)):
            self._compile()

    def _compile(self) -> None:
        graph = self.graph
        table = graph.label_table  # shared, append-only; tops itself up
        pos = {node: position for position, node in enumerate(graph._labels)}
        num_nodes = len(pos)
        label_ids = array("q", map(table.intern, graph._labels.values()))
        buckets: dict[int, frozenset] = {
            table.intern(label): frozenset(nodes)
            for label, nodes in graph._nodes_by_label.items()
        }
        # Profile matrix: collect id-space profiles edge by edge, then lay
        # out the observed triples as columns (sorted for a deterministic
        # order).
        profiles: list[dict[tuple[int, int, int], int]] = [{} for _ in range(num_nodes)]
        for source, by_label in graph._out.items():
            source_pos = pos[source]
            source_label_id = label_ids[source_pos]
            out_profile = profiles[source_pos]
            for edge_label, targets in by_label.items():
                edge_label_id = table.intern(edge_label)
                in_key = (IN, edge_label_id, source_label_id)
                for target in targets:
                    target_pos = pos[target]
                    out_key = (OUT, edge_label_id, label_ids[target_pos])
                    out_profile[out_key] = out_profile.get(out_key, 0) + 1
                    in_profile = profiles[target_pos]
                    in_profile[in_key] = in_profile.get(in_key, 0) + 1
        observed: set[tuple[int, int, int]] = set()
        for profile in profiles:
            observed.update(profile)
        columns = {triple: column for column, triple in enumerate(sorted(observed))}
        num_columns = len(columns)
        counts = array("q", bytes(8 * num_nodes * num_columns))
        for position, profile in enumerate(profiles):
            base = position * num_columns
            for triple, count in profile.items():
                counts[base + columns[triple]] = count
        self.labels = table
        self._pos = pos
        self._label_ids = label_ids
        self._buckets = buckets
        self._columns = columns
        self._num_columns = num_columns
        self._counts = counts
        self._overlay_labels: dict[NodeId, int] = {}
        self._overlay_profiles: dict[NodeId, dict[tuple[int, int, int], int]] = {}
        self._requirements: dict[tuple[int, object], tuple[object, CompiledRequirement]] = {}
        self._requirements_labels = len(table)
        self._out_frozen: dict[NodeId, dict[Label, frozenset]] = {}
        self._in_frozen: dict[NodeId, dict[Label, frozenset]] = {}
        self._neighborhoods = Neighborhoods(graph)
        self._sketches: dict[int, dict[NodeId, object]] = {}  # hops -> node -> handle
        self._built_version = graph.version
        self.statistics.builds += 1

    @property
    def is_stale(self) -> bool:
        """Whether the graph has mutated since the last compile or patch."""
        return self.graph.version != self._built_version

    def refresh(self) -> None:
        """Bring every store and cache up to date with the graph.

        Prefers in-place delta patching: when the graph's recorded delta log
        still reaches back to ``_built_version`` and the touched region is
        small relative to the graph, every pending
        :class:`~repro.graph.graph.GraphDelta` is applied via
        :meth:`apply_delta`; otherwise the structure recompiles from scratch.
        """
        graph = self.graph
        if graph.in_batch:
            raise GraphError(
                f"cannot refresh the resident structure of graph {graph.name!r} "
                "while a batch_update is open: the graph is in a half-applied state"
            )
        with span("columnar.refresh", graph=str(graph.name)) as trace:
            deltas = graph.deltas_since(self._built_version)
            touched_total = sum(len(delta.touched) for delta in deltas or ())
            if (
                deltas is not None
                and touched_total <= DELTA_REBUILD_FRACTION * max(1, graph.num_nodes)
                and all(self.apply_delta(delta) for delta in deltas)
            ):
                trace.set(decision="patch", touched=touched_total)
            else:
                trace.set(decision="rebuild")
                self._build()
            self.statistics.refreshes += 1

    def apply_delta(self, delta: GraphDelta) -> bool:
        """Patch the structure in place with one recorded graph delta.

        Requires ``delta.base_version`` to equal ``_built_version``
        (returns ``False``, leaving everything untouched, otherwise).  After
        the patch every probe answers exactly as a fresh compile at
        ``delta.result_version`` would.
        """
        if delta.base_version != self._built_version:
            return False
        graph = self.graph
        if graph.in_batch:
            raise GraphError(
                f"cannot patch the resident structure of graph {graph.name!r} "
                "while a batch_update is open: the graph is in a half-applied state"
            )
        if not delta.net_empty:
            self._patch(delta)
        self._built_version = delta.result_version
        self.statistics.delta_applies += 1
        return True

    def _patch(self, delta: GraphDelta) -> None:
        """Recompute the region of every store and cache *delta* changed.

        Later deltas of a chain may already be reflected in the graph; that
        is fine — patching reads the *current* state, so applying a chain in
        order converges on exactly the fresh-compile contents (every entry
        is a pure function of the current graph restricted to the patched
        region).
        """
        graph = self.graph
        table = graph.label_table
        labels = graph._labels
        touched = delta.touched
        # Label buckets + label overlay for the touched nodes.
        for node in touched:
            old_id = self._label_id_of(node)
            new_label = labels.get(node)
            new_id = table.intern(new_label) if new_label is not None else -1
            if old_id != new_id:
                if old_id is not None and old_id >= 0:
                    bucket = self._buckets.get(old_id, _EMPTY_FROZEN) - {node}
                    if bucket:
                        self._buckets[old_id] = bucket
                    else:
                        self._buckets.pop(old_id, None)
                if new_id >= 0:
                    self._buckets[new_id] = self._buckets.get(new_id, _EMPTY_FROZEN) | {node}
            self._overlay_labels[node] = new_id
        # Profile rows of the touched nodes (an edge change touches both
        # endpoints) and of a relabelled node's current neighbours.
        recompute = {node for node in touched if node in labels}
        for node in touched - recompute:
            self._overlay_profiles.pop(node, None)
        for node in delta.relabeled_nodes & recompute:
            recompute.update(graph.neighbors(node))
        for node in recompute:
            profile: dict[tuple[int, int, int], int] = {}
            for edge_label, targets in graph._out[node].items():
                edge_label_id = table.intern(edge_label)
                for target in targets:
                    key = (OUT, edge_label_id, table.intern(labels[target]))
                    profile[key] = profile.get(key, 0) + 1
            for edge_label, sources in graph._in[node].items():
                edge_label_id = table.intern(edge_label)
                for source in sources:
                    key = (IN, edge_label_id, table.intern(labels[source]))
                    profile[key] = profile.get(key, 0) + 1
            self._overlay_profiles[node] = profile
        # Memoised adjacency views of touched nodes only: an untouched
        # node's neighbour sets are unchanged by definition (every edge
        # change touches both endpoints; a relabel changes no neighbour set).
        for node in touched:
            self._out_frozen.pop(node, None)
            self._in_frozen.pop(node, None)
        # The kernel drops the touched nodes' neighbourhoods (a re-index: every
        # ring too); sketch handles go where they can have changed, on the
        # *post-update* graph (exact; docs/columnar.md): a histogram within k
        # hops of any touched node; rings, which carry no labels, within k - 1
        # hops of a changed edge's endpoints.
        hoods, invalidated = self._neighborhoods, 0
        if hoods.update(touched):
            invalidated = sum(map(len, self._sketches.values()))
            self._sketches.clear()
        elif self._sketches:
            ends = {node for edge in delta.added_edges | delta.removed_edges for node in edge[:2]}
            sources, offset = (ends, 1) if hoods.masks else (touched, 0)
            within = hoods.reach(sources, max(self._sketches) - offset)
            for hops, cached in self._sketches.items():
                for node in chain(delta.removed_nodes, hoods.nodes(within[hops - offset])):
                    invalidated += cached.pop(node, None) is not None
        self.statistics.sketches_invalidated += invalidated
        # A compiled requirement may have seen a label the table lacked.
        if len(table) != self._requirements_labels:
            self._requirements.clear()
            self._requirements_labels = len(table)

    def _check(self) -> None:
        """Probe guard: refresh if the graph has mutated since compile."""
        graph = self._graph_ref()  # inlined self.graph: this runs per probe
        if graph is None:
            raise GraphError("the graph of this ColumnarFragment no longer exists")
        if graph._version == self._built_version:
            recorder = graph._recorder
            if recorder is None or not recorder.dirty:
                return
        self.statistics.stale_probes += 1
        self.refresh()

    # ------------------------------------------------------------------
    # probes: labels and buckets
    # ------------------------------------------------------------------
    def _label_id_of(self, node: NodeId) -> int | None:
        """Current label id of *node* (-1 = removed, None = never seen)."""
        overlay = self._overlay_labels.get(node)
        if overlay is not None:
            return overlay
        position = self._pos.get(node)
        if position is None:
            return None
        return self._label_ids[position]

    def nodes_with_label(self, label: Label) -> frozenset:
        """Frozen set of node ids carrying *label* (no per-call copy)."""
        self._check()
        label_id = self.labels.id_of(label)
        if label_id is None:
            return _EMPTY_FROZEN
        return self._buckets.get(label_id, _EMPTY_FROZEN)

    # ------------------------------------------------------------------
    # probes: profile matrix
    # ------------------------------------------------------------------
    def profile(self, node: NodeId) -> dict:
        """Labelled adjacency profile of *node*, decoded from the store.

        Spelled like :func:`repro.matching.candidates.adjacency_profile`
        (string-keyed); the matchers never decode — they compare in id space
        through :meth:`degree_consistent` / :meth:`filter_candidates`.
        """
        self._check()
        cells = self._overlay_profiles.get(node)
        if cells is None:
            position = self._pos.get(node)
            if position is None or self._overlay_labels.get(node) == -1:
                raise NodeNotFoundError(node)
            base = position * self._num_columns
            counts = self._counts
            cells = {
                triple: counts[base + column] for triple, column in self._columns.items()
            }
        label_of = self.labels.label_of
        return {
            (_DIRECTIONS[direction], label_of(edge_id), label_of(neighbour_id)): count
            for (direction, edge_id, neighbour_id), count in cells.items()
            if count
        }

    def compile_requirement(self, pattern, pattern_node) -> CompiledRequirement:
        """A pattern node's required profile in id/column space, memoised.

        The memo is keyed by the pattern *object* (entries hold the pattern,
        so an id is never reused while its entry lives) and lives here, not
        on the pattern: the compiled form is in this structure's label ids.
        """
        self._check()
        key = (id(pattern), pattern_node)
        entry = self._requirements.get(key)
        if entry is None:
            if len(self._requirements) >= _REQUIREMENT_MEMO_LIMIT:
                self._requirements.clear()
            entry = self._requirements[key] = (
                pattern,
                self._compile_requirement(pattern, pattern_node),
            )
        return entry[1]

    def _compile_requirement(self, pattern, pattern_node) -> CompiledRequirement:
        id_of = self.labels.id_of
        needed: dict[tuple, int] = {}
        for edge in pattern.out_edges(pattern_node):
            key = (OUT, id_of(edge.label), id_of(pattern.label(edge.target)))
            needed[key] = needed.get(key, 0) + 1
        for edge in pattern.in_edges(pattern_node):
            key = (IN, id_of(edge.label), id_of(pattern.label(edge.source)))
            needed[key] = needed.get(key, 0) + 1
        columns = self._columns
        label_id = id_of(pattern.label(pattern_node))
        return CompiledRequirement(
            label_id=-1 if label_id is None else label_id,
            pairs=tuple(
                (columns[triple], need) for triple, need in needed.items() if triple in columns
            ),
            missing=any(triple not in columns for triple in needed),
            triples=tuple(needed.items()),
        )

    def degree_consistent(self, node: NodeId, pattern, pattern_node) -> bool:
        """Whether *node*'s profile dominates what *pattern_node* requires.

        The resident form of :func:`repro.matching.candidates.degree_consistent`
        (profile only — callers have compared labels already).  It runs once
        per expanded search state, so the staleness guard and the
        requirement memo are inlined.
        """
        graph = self._graph_ref()
        if graph is None or graph._version != self._built_version or graph._recorder is not None:
            self._check()
        entry = self._requirements.get((id(pattern), pattern_node))
        requirement = (
            entry[1] if entry is not None else self.compile_requirement(pattern, pattern_node)
        )
        return self._profile_dominates(node, requirement)

    def _profile_dominates(self, node: NodeId, requirement: CompiledRequirement) -> bool:
        if self._overlay_labels:  # patched: touched nodes answer from overlays
            profile = self._overlay_profiles.get(node)
            if profile is not None:
                for triple, need in requirement.triples:
                    if profile.get(triple, 0) < need:
                        return False
                return True
            if self._overlay_labels.get(node) == -1:
                raise NodeNotFoundError(node)
        position = self._pos.get(node)
        if position is None:
            raise NodeNotFoundError(node)
        if requirement.missing:
            return False
        base = position * self._num_columns
        counts = self._counts
        for column, need in requirement.pairs:
            if counts[base + column] < need:
                return False
        return True

    def _dominates_unchecked(self, node: NodeId, requirement: CompiledRequirement) -> bool:
        return (
            requirement.label_id >= 0
            and self._label_id_of(node) == requirement.label_id
            and self._profile_dominates(node, requirement)
        )

    def filter_candidates(
        self, pool: Iterable[NodeId], requirement: CompiledRequirement
    ) -> list[NodeId]:
        """Pool members whose label + profile satisfy *requirement*.

        A necessary-condition filter: every returned node may still fail the
        full search, but no dropped node could have matched.  Each member
        gets an int row comparison (no string hashing); the survivors keep
        pool order.
        """
        self._check()
        if requirement.label_id < 0:
            return []
        self.statistics.row_filters += 1
        return [node for node in pool if self._dominates_unchecked(node, requirement)]

    # ------------------------------------------------------------------
    # caches: frozen adjacency views
    # ------------------------------------------------------------------
    def out_neighbors(self, node: NodeId, label: Label) -> frozenset:
        """Frozen ``{target : node --label--> target}`` view, memoised."""
        self._check()
        view = self._out_frozen.get(node, _NO_VIEWS).get(label)
        if view is None:
            view = self._freeze(self._out_frozen, self.graph._out, node, label)
        return view

    def in_neighbors(self, node: NodeId, label: Label) -> frozenset:
        """Frozen ``{source : source --label--> node}`` view, memoised."""
        self._check()
        view = self._in_frozen.get(node, _NO_VIEWS).get(label)
        if view is None:
            view = self._freeze(self._in_frozen, self.graph._in, node, label)
        return view

    @staticmethod
    def _freeze(memo: dict, adjacency: dict, node: NodeId, label: Label) -> frozenset:
        by_label = adjacency.get(node)
        if by_label is None:
            raise NodeNotFoundError(node)
        view = memo.setdefault(node, {})[label] = frozenset(by_label.get(label, ()))
        return view

    def ball(self, node: NodeId, radius: int) -> set:
        """``Nr(node)`` as a fresh set, from the neighbourhood kernel."""
        self._check()
        hoods = self._neighborhoods
        return set(hoods.nodes(hoods.balls((node,), radius)[node]))

    # ------------------------------------------------------------------
    # caches: k-hop sketches
    # ------------------------------------------------------------------
    def sketch_test(self, node: NodeId, hops: int, required: KHopSketch) -> bool:
        """Whether *node*'s sketch dominates *required* (:func:`~repro.graph.sketch.sketch_dominates`)."""
        self._check()  # below, the hit path of _sketch_handle inlined: it runs per candidate
        handle = self._sketches.get(hops, _NO_VIEWS).get(node) or self._sketch_handle(node, hops)
        return self._neighborhoods.sketch_test(handle, required)

    def _sketch_handle(self, node: NodeId, hops: int):
        """Memoised sketch handle (:meth:`Neighborhoods.sketch_handle`).

        Isolated nodes take the explicit empty-neighbourhood fast path: their
        handle is materialised directly, without a BFS round-trip.
        """
        handle = self._sketches.get(hops, _NO_VIEWS).get(node)
        if handle is None:
            graph = self.graph
            by_label = graph._out.get(node)
            if by_label is None:
                raise NodeNotFoundError(node)
            isolated = not by_label and not graph._in[node]
            handle = self._neighborhoods.sketch_handle(node, hops, isolated)
            self._sketches.setdefault(hops, {})[node] = handle
            if isolated:
                self.statistics.sketch_fast_paths += 1
            else:
                self.statistics.sketches_built += 1
        return handle

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        graph = self._graph_ref()
        name = graph.name if graph is not None else "<collected>"
        return (
            f"ColumnarFragment(graph={name!r}, version={self._built_version}, "
            f"nodes={len(self._pos)}, columns={self._num_columns})"
        )


# ----------------------------------------------------------------------
# per-process registry
# ----------------------------------------------------------------------
# One structure per graph object; weak keys keep transient graphs (extracted
# d-balls, test fixtures) collectable.  The lock only guards get-or-create:
# probes on a built structure are plain reads under the GIL.
_REGISTRY: "weakref.WeakKeyDictionary[Graph, ColumnarFragment]" = weakref.WeakKeyDictionary()
_REGISTRY_LOCK = threading.Lock()


def columnar_view(graph: Graph) -> ColumnarFragment:
    """The process-wide resident :class:`ColumnarFragment` for *graph*.

    Compiles the view on first use and memoises it against the graph object.
    """
    view = _REGISTRY.get(graph)
    if view is None:
        with _REGISTRY_LOCK:
            view = _REGISTRY.get(graph)
            if view is None:
                view = ColumnarFragment(graph)
                _REGISTRY[graph] = view
    return view


def registered_columnar(graph: Graph) -> ColumnarFragment | None:
    """The registered view of *graph* without compiling one (None if absent)."""
    return _REGISTRY.get(graph)
