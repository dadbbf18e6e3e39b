"""Bounded breadth-first search utilities.

The paper's algorithms rely on *data locality* of subgraph isomorphism: a node
``vx`` matches the designated node ``x`` of a pattern of radius ``d`` iff it
matches inside the d-neighbourhood ``Gd(vx)`` — the subgraph induced by all
nodes within (undirected) distance ``d`` of ``vx`` (Sections 4.2 and 5.1).

Every function here is a view of one traversal, :func:`bfs_levels`, whose
frontiers come from a *neighbors* callable (default ``graph.neighbors``, a
fresh set per call); a :class:`~repro.pattern.Pattern` traverses as well as
a graph.  Callers that traverse one maintained graph state many times — the
resident structure's sketches and its patch-time invalidation, the
partitioner's balls — hold a :class:`Neighborhoods` kernel
instead, which memoises every node's neighbourhood and, on graphs small
enough, answers in bit masks.
"""

from __future__ import annotations

import weakref
from typing import Hashable, Iterable

from repro.exceptions import NodeNotFoundError
from repro.graph.graph import Graph
from repro.graph.sketch import KHopSketch, build_sketch, empty_sketch, sketch_dominates

NodeId = Hashable


def bfs_levels(
    graph: Graph, sources: Iterable[NodeId], radius: int | None = None, neighbors=None
) -> list[set]:
    """``levels[i]``: the nodes exactly *i* undirected hops from the nearest source.

    Level-synchronous, in set algebra: a whole frontier's neighbourhoods are
    united and the visited set subtracted in two C-level calls, so the
    python-level work is per visited node, not per edge.  Sources absent
    from the graph are skipped; *radius* ``None`` explores whole components.
    """
    if radius is not None and radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if neighbors is None:
        neighbors = graph.neighbors
    frontier = {source for source in sources if graph.has_node(source)}
    seen = set(frontier)
    levels = [frontier]
    while frontier and (radius is None or len(levels) <= radius):
        frontier = set().union(*map(neighbors, frontier)) - seen
        if frontier:
            seen |= frontier
            levels.append(frontier)
    return levels


def bfs_distances(graph: Graph, source: NodeId, radius: int | None = None) -> dict[NodeId, int]:
    """Map each node within *radius* undirected hops of *source* (the paper's
    notion of radius and ``Nr(vx)``) to its distance; ``None``: the component."""
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    levels = bfs_levels(graph, (source,), radius)
    return {node: hop for hop, level in enumerate(levels) for node in level}


def multi_source_ball(graph: Graph, sources, radius: int | None) -> set[NodeId]:
    """Nodes within *radius* hops of any of *sources* (undirected).

    Sources absent from the graph are skipped (streaming deltas legitimately
    name removed nodes); the ball-scoped invalidation lemma of
    ``docs/streaming.md`` is stated over exactly this notion of region.
    """
    return set().union(*bfs_levels(graph, sources, radius))


def ball(graph: Graph, center: NodeId, radius: int) -> set[NodeId]:
    """``Nr(vx)``: the set of nodes within *radius* hops of *center*.

    Includes *center* itself (distance 0); ``Gd(vx)``, the unit of work of
    DMine and Match, is the subgraph the d-ball induces.
    """
    if not graph.has_node(center):
        raise NodeNotFoundError(center)
    return multi_source_ball(graph, (center,), radius)


def eccentricity(graph: Graph, source: NodeId) -> int:
    """Longest undirected shortest-path distance from *source*.

    Only the component containing *source* is considered; for the connected
    patterns the paper allows this equals the radius ``r(Q, x)``.
    """
    return max(bfs_distances(graph, source).values())


# ----------------------------------------------------------------------
# the kernel of repeated traversals
# ----------------------------------------------------------------------
def uses_masks(num_nodes: int, num_edges: int) -> bool:
    """Whether a graph gets bit-mask neighbourhoods: only while the
    ``n × n/8``-byte mask table is no larger than the frozen neighbour views
    it replaces, which cost ~200 bytes a node plus ~40 bytes per edge end
    (``sys.getsizeof`` on CPython 3.11; see ``docs/columnar.md``)."""
    return num_nodes * num_nodes // 8 <= 200 * num_nodes + 80 * num_edges


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of *mask*, lowest first."""
    positions = []
    while mask:
        low = mask & -mask
        positions.append(low.bit_length() - 1)
        mask ^= low
    return positions


class Neighborhoods:
    """Neighbourhoods of one maintained graph state, for repeated traversals.

    The owner calls :meth:`update` with the touched nodes of every applied
    delta; only their neighbourhoods are dropped (an untouched node's is
    unchanged, see :class:`~repro.graph.graph.GraphDelta`).  The
    representation is chosen once, at construction, by :func:`uses_masks`:

    * **masks** — every node owns a bit, a node's undirected adjacency is one
      memoised int and each label one node mask.  A d-ball is an OR over
      frontier masks, a sketch is its hop rings and a test counts
      ``(ring & label_mask).bit_count()``;
    * **sets** — memoised frozen neighbour views under :func:`bfs_levels`
      and :func:`~repro.graph.sketch.build_sketch`.

    A reach or ball is a *handle* — an int or a set; ``&``, ``^`` and ``==``
    mean the same on both, :meth:`size` and :meth:`nodes` read the rest.  A
    removed node's bit is reused only by a re-index, which :meth:`update`
    runs first thing once dead bits outnumber live nodes and then reports
    with ``True``: every handle stored before that call is void (the
    resident structure drops its cached rings, the fragment manager
    rebuilds its node-set masks).
    """

    __slots__ = ("_graph_ref", "masks", "_views", "_bit", "_node_at", "_adjacent", "_label_masks", "_relabels")

    def __init__(self, graph: Graph) -> None:
        self._graph_ref = weakref.ref(graph)  # its owner keeps the graph alive
        self.masks = uses_masks(graph.num_nodes, graph.num_edges)
        self._views: dict[NodeId, frozenset] = {}
        self._relabels = 0  # label-mask moves of existing bits so far: a ring's label counts' epoch
        self._index(graph._labels if self.masks else ())

    def _index(self, nodes) -> None:
        self._bit: dict[NodeId, int] = {}
        self._node_at: list = []  # keeps a removed node until the re-index, for nodes()
        self._adjacent: list = []
        self._label_masks: dict = {}
        labels = self._graph_ref()._labels
        for node in nodes:
            self._allocate(node, labels.get(node))

    def _allocate(self, node: NodeId, label) -> int:
        bit = self._bit[node] = len(self._node_at)
        self._node_at.append(node)
        self._adjacent.append(None)
        if label is not None:
            self._label_masks[label] = self._label_masks.get(label, 0) | 1 << bit
        return bit

    def update(self, touched: Iterable[NodeId]) -> bool:
        """Drop what the *touched* nodes of one applied delta invalidate;
        returns whether this call re-indexed (every stored handle is void)."""
        if not self.masks:
            for node in touched:
                self._views.pop(node, None)
            return False
        reindexed = 2 * len(self._bit) < len(self._node_at)
        if reindexed:
            old = self._bit
            self._index(sorted(old, key=old.get))
        labels, masks = self._graph_ref()._labels, self._label_masks
        for node in touched:
            label = labels.get(node)
            bit = self._bit.get(node)
            if bit is None:
                if label is not None:
                    self._allocate(node, label)
                continue
            self._adjacent[bit] = None
            one = 1 << bit
            for old, members in masks.items():
                if members & one:
                    masks[old] = members ^ one
                    self._relabels += old != label
            if label is None:
                del self._bit[node]
            else:
                masks[label] = masks.get(label, 0) | one
        return reindexed

    # A patch of a delta chain reads a graph the chain's later deltas already
    # changed: a node they remove reads as isolated, a node they add gets its
    # bit on first sight; both are touched again by the later delta's patch.
    def _view(self, node: NodeId) -> frozenset:
        view = self._views.get(node)
        if view is None:
            graph = self._graph_ref()
            view = self._views[node] = frozenset(graph.neighbors(node) if node in graph else ())
        return view

    def _adjacency(self, bit: int) -> int:
        graph = self._graph_ref()
        node, mask = self._node_at[bit], 0
        for neighbour in graph.neighbors(node) if node in graph else ():
            other = self._bit.get(neighbour)
            if other is None:
                other = self._allocate(neighbour, graph._labels[neighbour])
            mask |= 1 << other
        self._adjacent[bit] = mask
        return mask

    def reach(self, sources: Iterable[NodeId], radius: int) -> list:
        """``[W0, …, W_radius]``: handles of the nodes within ``i`` undirected
        hops of *sources* (absent sources are skipped)."""
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        if not self.masks:
            within, seen = [], set()
            for level in bfs_levels(self._graph_ref(), sources, radius, self._view):
                seen = seen | level
                within.append(seen)
        else:
            bits, adjacent = self._bit, self._adjacent
            seen = 0
            for source in sources:
                if source in bits:
                    seen |= 1 << bits[source]
            within, frontier = [seen], seen
            while frontier and len(within) <= radius:
                step = 0
                for bit in _bits(frontier):
                    mask = adjacent[bit]
                    step |= mask if mask is not None else self._adjacency(bit)
                frontier = step & ~seen
                seen |= frontier
                within.append(seen)
        return within + within[-1:] * (radius + 1 - len(within))

    def balls(self, centers: Iterable[NodeId], radius: int) -> dict:
        """``{center: handle of Nr(center)}`` (the nodes of :func:`ball`), in one pass:
        on the mask side ``B_r(c) = {c} ∪ ⋃_{u ∈ N(c)} B_{r−1}(u)``, each ``B_{r−1}``
        computed once per call; the set side runs one BFS per centre."""
        graph, adjacent, memo = self._graph_ref(), self._adjacent, [{} for _ in range(radius + 1)]
        deep = self.masks and radius > 1

        def grown(bit: int, hops: int) -> int:  # hops >= 2
            known = memo[hops].get(bit)
            if known is None:
                mask = adjacent[bit]
                rest = mask if mask is not None else self._adjacency(bit)
                known = rest | 1 << bit
                while rest:
                    low = rest & -rest
                    rest ^= low
                    child = low.bit_length() - 1
                    if hops > 2:
                        known |= grown(child, hops - 1)
                        continue
                    mask = adjacent[child]  # B_1(child): its bit, already in, and its neighbours
                    known |= mask if mask is not None else self._adjacency(child)
                memo[hops][bit] = known
            return known

        found = {}
        for center in centers:
            if not graph.has_node(center):
                raise NodeNotFoundError(center)
            found[center] = grown(self._bit[center], radius) if deep else self.reach((center,), radius)[-1]
        return found

    def sketch_handle(self, node: NodeId, hops: int, isolated: bool = False):
        """What the resident structure caches of *node*'s sketch (*isolated*: it has no
        neighbour, skip the BFS): the KHopSketch on the set side; on the mask side the
        rings (W1 … Wk) — within i hops, own bit cleared — which a relabel leaves
        exact (no labels), plus the label counts tests took of them."""
        if not self.masks:
            graph = self._graph_ref()
            return empty_sketch(node, hops) if isolated else build_sketch(graph, node, hops, self._view)
        if hops < 1:
            raise ValueError(f"hops must be >= 1, got {hops}")
        if node not in self._bit:
            raise NodeNotFoundError(node)
        others = ~(1 << self._bit[node])
        rings = (0,) * hops if isolated else tuple(ring & others for ring in self.reach((node,), hops)[1:])
        return [rings, self._relabels, [{} for _ in rings]]

    def sketch_test(self, handle, required: KHopSketch) -> bool:
        """:func:`~repro.graph.sketch.sketch_dominates` of a sketch handle against *required*.

        A mask-side handle counts ``(W_h & label_mask).bit_count()`` when a test first
        needs it, and keeps it until a label mask moves a bit it had (relabel, removal)."""
        if not self.masks:
            return sketch_dominates(handle, required)
        rings, relabels, counted = handle
        if relabels != self._relabels:
            handle[1:] = self._relabels, [{} for _ in rings]
            counted = handle[2]
        last = len(rings) - 1
        for hop, needed in enumerate(required.prefix):
            at = hop if hop < last else last
            ring, known = rings[at], counted[at]
            for label, count in needed.items():
                have = known.get(label)
                if have is None:
                    have = known[label] = (ring & self._label_masks.get(label, 0)).bit_count()
                if have < count:
                    return False
        return True

    def size(self, handle) -> int:
        return handle.bit_count() if self.masks else len(handle)

    def nodes(self, handle) -> set:
        """The nodes of *handle* (a set handle is returned as is)."""
        if not self.masks:
            return handle
        node_at = self._node_at
        return {node_at[bit] for bit in _bits(handle)}
