"""Fragment lifecycle management: residency, compaction, shedding, ownership.

Before this module, fragment residency was smeared across four layers: the
coordinator-side node sets and centre-ownership maps lived in
:class:`repro.stream.StreamingIdentifier`, the per-fragment update-slice
logs grew without bound next to them, the resident copies mutated inside
:mod:`repro.parallel.worker` contexts, and nothing ever *shrank* — a node
that left every owned centre's d-ball after deletions stayed resident
forever.  :class:`FragmentManager` owns the whole life of a fragment now:

* **membership as one ball per fragment** — for every fragment the manager
  keeps its owned centres and its node set, invariantly the d-ball of the
  owned set on the current graph.  A batch recomputes membership only on
  the area within d hops of what it changed (edge endpoints, added nodes,
  centres that joined or left a fragment; ``docs/lifecycle.md`` proves no
  node outside it can move); nodes that left are *shed* from the resident
  fragment (the slice carries them in :attr:`FragmentUpdate.shed`), which
  also evicts them from the resident
  :class:`~repro.graph.columnar.ColumnarFragment` (via the graph's delta log).
  Shedding is exact: anchored matching of a ball-local pattern at an owned
  centre only inspects the centre's d-ball (``docs/streaming.md``), and a
  shed node lies in no owned ball.
* **log compaction with checkpoints** — once a fragment's slice log
  outweighs :data:`CHECKPOINT_LOG_FRACTION` of the fragment itself, the
  manager snapshots the fragment from the authoritative graph (the resident
  copy is, invariantly, the induced subgraph on the managed node set) as a
  picklable :class:`FragmentCheckpoint`, shipped inline in later leases,
  and truncates the log.
  Sequence numbers order everything: a worker process behind the
  checkpoint installs it and replays only the remaining tail, a worker
  ahead of it ignores it, so the process pool's arbitrary task routing
  stays deterministic.
* **fixed ownership** — a centre keeps the fragment it was given: the
  partitioner places every initial centre and
  :meth:`FragmentManager._assign_owner` places one that appears later.
  Nothing re-partitions, as in the paper's parallel ``DMine`` and
  ``Match``, which partition the graph once.

The worker-side half of the protocol is :func:`catch_up`: given a
:class:`FragmentLease` (base checkpoint reference + slice tail) it brings
the process-resident fragment copy to the coordinator's sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

from repro.exceptions import StreamError
from repro.graph.columnar import columnar_view, registered_columnar
from repro.graph.graph import Graph
from repro.graph.neighborhood import Neighborhoods
from repro.obs.tracing import event as trace_event
from repro.partition.fragment import Fragment

#: Compact a fragment's update-slice log once its shipped-operation weight
#: exceeds this fraction of the fragment's own node count — past that point
#: re-shipping the log costs more than re-shipping the fragment.
CHECKPOINT_LOG_FRACTION = 0.5

NodeId = Hashable

#: ``WorkerContext.state`` key tracking the newest applied slice sequence.
APPLIED_SEQUENCE_KEY = "lifecycle-applied-sequence"


def _ordered(items) -> tuple:
    """*items* as a tuple sorted by ``str``: what slices and snapshots ship,
    so that they pickle small and hash stably."""
    return tuple(sorted(items, key=str))


def _described(graph: Graph, nodes) -> tuple:
    """``(node, label, attrs-items)`` of *nodes*, ordered — how nodes are shipped."""
    return _ordered(
        (node, graph.node_label(node), tuple(sorted(graph.node_attrs(node).items())))
        for node in nodes
    )


@dataclass(frozen=True)
class FragmentUpdate:
    """One fragment's slice of a global update batch (coordinator → worker).

    ``sequence`` orders the slices per fragment; a worker whose resident
    copy is behind replays every missed slice before verifying.  All fields
    are plain sorted tuples so the payload pickles small and hashes stably.
    ``shed`` carries residency-only removals: nodes still present in the
    authoritative graph that left every owned centre's d-ball and must be
    dropped from the resident copy.
    """

    sequence: int
    remove_edges: tuple = ()
    remove_nodes: tuple = ()
    add_nodes: tuple = ()  # (node, label, attrs-items)
    add_edges: tuple = ()
    relabels: tuple = ()  # (node, new label)
    shed: tuple = ()
    own_add: tuple = ()
    own_remove: tuple = ()

    @property
    def weight(self) -> int:
        """Number of shipped operations (the compaction trigger's measure)."""
        return sum(
            len(ops)
            for ops in (self.remove_edges, self.remove_nodes, self.add_nodes,
                        self.add_edges, self.relabels, self.shed)
        )

    @property
    def mutates(self) -> bool:
        """Whether replaying this slice changes the fragment graph at all."""
        return self.weight > 0


@dataclass(frozen=True)
class FragmentCheckpoint:
    """A picklable snapshot of one fragment at a slice sequence number.

    Built from the authoritative graph (the resident fragment copy is the
    induced subgraph on the managed node set, so the snapshot is
    byte-identical to a resident copy that replayed every slice), installed
    by :func:`catch_up` into workers whose applied sequence is behind
    :attr:`sequence`.
    """

    fragment_index: int
    sequence: int
    name: str
    nodes: tuple  # (node, label, attrs-items), ordered by str(node)
    edges: tuple  # (source, target, label), ordered by the endpoints' node order
    owned_centers: tuple

    @classmethod
    def capture(
        cls,
        graph: Graph,
        node_set: set,
        owned_centers: set,
        fragment_index: int,
        sequence: int,
        name: str,
    ) -> "FragmentCheckpoint":
        """Snapshot the induced subgraph on *node_set* of *graph*.

        Nodes are ordered by ``str`` once and edges by their endpoints'
        positions in that order, then label: no ``str`` of a whole tuple.
        """
        nodes = sorted(node_set, key=str)
        rank = {node: position for position, node in enumerate(nodes)}
        edges: list = []
        for node in nodes:
            row = sorted(
                (rank[target], label, target)
                for label, targets in graph._out[node].items()
                for target in targets
                if target in rank
            )
            edges.extend((node, target, label) for _rank, label, target in row)
        return cls(
            fragment_index=fragment_index,
            sequence=sequence,
            name=name,
            nodes=tuple(
                (node, graph.node_label(node), tuple(sorted(graph.node_attrs(node).items())))
                for node in nodes
            ),
            edges=tuple(edges),
            owned_centers=_ordered(owned_centers),
        )

    def build_graph(self) -> Graph:
        """Materialise the snapshot as a fresh fragment graph."""
        return Graph.from_parts(
            ((node, label, dict(attrs) or None) for node, label, attrs in self.nodes),
            self.edges,
            name=self.name,
        )

    def install(self, fragment: Fragment) -> None:
        """Replace *fragment*'s resident state with this snapshot in place.

        Residency belongs to the fragment, not to the graph object it holds:
        if the replaced graph had a resident structure registered, one is
        compiled for the new graph, so matching stays resident across a
        checkpoint install.
        """
        replaced = fragment.graph
        fragment.graph = self.build_graph()
        if registered_columnar(replaced) is not None:
            columnar_view(fragment.graph)
        fragment.owned_centers = set(self.owned_centers)
        fragment.sequence = self.sequence


@dataclass(frozen=True)
class FragmentLease:
    """What one round ships a worker about its fragment's state.

    ``base_sequence`` is the sequence of the newest compaction checkpoint
    (0 when the log still reaches back to pool start); ``checkpoint`` is
    set when ``base_sequence > 0``.  ``updates`` is the slice tail after the
    base.  Any worker process — however stale its resident copy — catches
    up deterministically: install the base if behind it, replay the tail.
    """

    base_sequence: int = 0
    checkpoint: FragmentCheckpoint | None = None
    updates: tuple[FragmentUpdate, ...] = ()


def apply_fragment_update(fragment: Fragment, update: FragmentUpdate) -> None:
    """Replay one slice on a fragment-resident graph (one version tick)."""
    graph = fragment.graph
    if update.mutates:
        with graph.batch_update():
            for source, target, label in update.remove_edges:
                graph.remove_edge(source, target, label)
            for node in update.remove_nodes:
                graph.remove_node(node)
            for node, label, attrs in update.add_nodes:
                graph.add_node(node, label, dict(attrs) or None)
            for source, target, label in update.add_edges:
                graph.add_edge(source, target, label)
            for node, label in update.relabels:
                graph.relabel_node(node, label)
            for node in update.shed:
                graph.remove_node(node)
    fragment.owned_centers.difference_update(update.own_remove)
    fragment.owned_centers.update(update.own_add)
    fragment.sequence = update.sequence


def catch_up(context, lease: FragmentLease) -> Fragment:
    """Bring a worker's resident fragment copy up to the lease's sequence.

    The applied-slice counter lives in the pool-lifetime
    :class:`~repro.parallel.worker.WorkerContext`, so on the process backend
    — where any pool process may serve any fragment — a stale resident copy
    deterministically installs the base checkpoint (only if it is behind
    it) and replays exactly the slices it missed.
    """
    fragment = context.fragment
    applied = context.state.get(APPLIED_SEQUENCE_KEY)
    if applied is None:
        applied = fragment.sequence
    if applied < lease.base_sequence:
        checkpoint = lease.checkpoint
        if checkpoint is None:
            raise StreamError(
                f"fragment {fragment.index} is behind sequence "
                f"{lease.base_sequence} but the lease carries no checkpoint"
            )
        checkpoint.install(fragment)
        applied = checkpoint.sequence
    for update in lease.updates:
        if update.sequence <= applied:
            continue
        apply_fragment_update(fragment, update)
        applied = update.sequence
    context.state[APPLIED_SEQUENCE_KEY] = applied
    return fragment


@dataclass
class BatchPlan:
    """What :meth:`FragmentManager.derive_batch` decided for one batch."""

    updates: dict[int, FragmentUpdate] = field(default_factory=dict)
    owned_added: int = 0
    owned_removed: int = 0
    entered_nodes: int = 0
    shed_nodes: int = 0
    shipped_edges: int = 0
    area: int = 0


class FragmentManager:
    """Coordinator-side owner of every fragment's residency and logs.

    Parameters
    ----------
    graph:
        The authoritative data graph (already partitioned).
    fragments:
        The fragments of :func:`repro.partition.partition_graph`; their node
        sets equal the union of their owned centres' d-balls (the
        partitioner's contract), which the manager recomputes once here.
    max_radius:
        Ball radius ``d`` every fragment preserves around its owned centres.
    x_label:
        Search condition of the candidate centres (nodes gaining/losing this
        label join/leave the ownership map).
    """

    def __init__(
        self,
        graph: Graph,
        fragments: Sequence[Fragment],
        max_radius: int,
        x_label: str,
    ) -> None:
        self.graph = graph
        self.fragments = list(fragments)
        self.max_radius = max_radius
        self.x_label = x_label
        self._owner: dict[NodeId, int] = {}
        self._owned: dict[int, set] = {}
        # Balls on bit masks when the graph is small enough, sets otherwise.
        self._neighborhoods = hoods = Neighborhoods(graph)
        self._node_sets: dict[int, set] = {}
        self._masks: dict[int, int] = {}  # node sets as bit masks, see _resident
        self._logs: dict[int, list[FragmentUpdate]] = {}
        self._bases: dict[int, FragmentCheckpoint | None] = {}
        self._base_sequences: dict[int, int] = {}
        self._sequence = 0
        for fragment in self.fragments:
            index = fragment.index
            owned = self._owned[index] = set(fragment.owned_centers)
            for center in owned:
                self._owner[center] = index
            self._node_sets[index] = set(hoods.nodes(hoods.reach(owned, max_radius)[-1]))
            self._logs[index] = []
            self._bases[index] = None
            self._base_sequences[index] = fragment.sequence

    # ------------------------------------------------------------------
    # membership / ownership accessors
    # ------------------------------------------------------------------
    def owner_of(self, center) -> int | None:
        """Index of the fragment owning *center* (``None``: not a centre)."""
        return self._owner.get(center)

    def owned_centers(self, index: int) -> set:
        """Centres currently owned by fragment *index* (a copy)."""
        return set(self._owned[index])

    def _resident(self, index: int):
        """Fragment *index*'s node set as a kernel handle: on the set side
        the node set itself, on the mask side a mask kept beside it and
        rebuilt after a re-index.  A removed node's bit stays in the mask
        until then; no area holds a dead bit, so it never moves."""
        hoods = self._neighborhoods
        if not hoods.masks:
            return self._node_sets[index]
        mask = self._masks.get(index)
        if mask is None:
            mask = self._masks[index] = hoods.reach(self._node_sets[index], 0)[0]
        return mask

    def log_weight(self, index: int) -> int:
        """Total shipped operations currently retained in the slice log."""
        return sum(update.weight for update in self._logs[index])

    def resident_summary(self) -> dict:
        """Coordinator-side residency metrics (a tick report's resident counts)."""
        nodes = sum(len(node_set) for node_set in self._node_sets.values())
        log_ops = sum(self.log_weight(fragment.index) for fragment in self.fragments)
        log_entries = sum(len(self._logs[fragment.index]) for fragment in self.fragments)
        return {
            "resident_nodes": nodes,
            "log_ops": log_ops,
            "log_entries": log_entries,
        }

    # ------------------------------------------------------------------
    # per-batch derivation
    # ------------------------------------------------------------------
    def derive_batch(self, delta) -> BatchPlan:
        """Digest one applied batch: ownership, membership, slices.

        *delta* is the batch's recorded :class:`~repro.graph.graph.GraphDelta`.
        Appends one :class:`FragmentUpdate` per fragment to the logs and
        returns the :class:`BatchPlan` (slices + counters);
        :attr:`BatchPlan.area` is the size of the recomputed area.
        """
        graph = self.graph
        radius = self.max_radius
        self._sequence += 1
        plan = BatchPlan()
        indexes = [fragment.index for fragment in self.fragments]
        # Balls below run over the kernel's memoised neighbourhoods, of which
        # this batch invalidates only the touched nodes'.
        hoods = self._neighborhoods
        if hoods.update(delta.touched):
            self._masks.clear()
        own_add: dict[int, set] = {index: set() for index in indexes}
        own_remove: dict[int, set] = {index: set() for index in indexes}

        # (1) slice removal/relabel fields against pre-batch membership.
        removals: dict[int, tuple] = {}
        for index in indexes:
            node_set = self._node_sets[index]
            remove_edges = _ordered(
                edge
                for edge in delta.removed_edges
                if edge[0] in node_set and edge[1] in node_set
            )
            remove_nodes = _ordered(node for node in delta.removed_nodes if node in node_set)
            relabels = _ordered(
                (node, graph.node_label(node))
                for node in delta.relabeled_nodes
                if node in node_set
            )
            removals[index] = (remove_edges, remove_nodes, relabels)

        # (2) centre-role maintenance: only touched nodes can change role.
        for node in sorted(delta.touched, key=str):
            owner = self._owner.get(node)
            is_center = graph.has_node(node) and graph.node_label(node) == self.x_label
            if owner is not None and not is_center:
                del self._owner[node]
                self._owned[owner].discard(node)
                own_remove[owner].add(node)
            elif owner is None and is_center:
                chosen = self._assign_owner(hoods.nodes(hoods.balls((node,), radius)[node]))
                self._owner[node] = chosen
                self._owned[chosen].add(node)
                own_add[chosen].add(node)
        plan.owned_added = sum(len(centers) for centers in own_add.values())
        plan.owned_removed = sum(len(centers) for centers in own_remove.values())

        # (3) membership moves only inside the area A = B_d(C), C the changed
        # elements on the post-batch graph (docs/lifecycle.md, the area
        # lemma); there it is B_d(owned ∩ B_d(A)) ∩ A.
        changed = set(delta.added_nodes).union(*own_add.values(), *own_remove.values())
        for edges in (delta.added_edges, delta.removed_edges):
            for source, target, _label in edges:
                changed.add(source)
                changed.add(target)
        within = hoods.reach((node for node in changed if graph.has_node(node)), 2 * radius)
        area = within[radius]
        plan.area = hoods.size(area)

        # (4) membership deltas and the shipped slices: only the nodes whose
        # membership moved are decoded from the masks.
        for index in indexes:
            node_set = self._node_sets[index]
            inside = self._resident(index) & area
            fresh = hoods.reach(hoods.members(within[-1], self._owned[index]), radius)[-1] & area
            moved = inside ^ fresh
            entered, shed = hoods.nodes(fresh & moved), hoods.nodes(inside & moved)
            remove_edges, remove_nodes, relabels = removals[index]
            node_set -= shed
            node_set.difference_update(remove_nodes)
            node_set |= entered
            if index in self._masks:
                self._masks[index] ^= moved
            add_edge_set = {
                edge
                for edge in delta.added_edges
                if edge[0] in node_set and edge[1] in node_set
            }
            for node in entered:
                for edge in graph.out_edges(node):
                    if edge.target in node_set:
                        add_edge_set.add((node, edge.target, edge.label))
                for edge in graph.in_edges(node):
                    if edge.source in node_set:
                        add_edge_set.add((edge.source, node, edge.label))
            update = FragmentUpdate(
                sequence=self._sequence,
                remove_edges=remove_edges,
                remove_nodes=remove_nodes,
                add_nodes=_described(graph, entered),
                add_edges=_ordered(add_edge_set),
                relabels=relabels,
                shed=_ordered(shed),
                own_add=_ordered(own_add[index]),
                own_remove=_ordered(own_remove[index]),
            )
            self._logs[index].append(update)
            plan.updates[index] = update
            plan.entered_nodes += len(entered)
            plan.shed_nodes += len(shed)
            plan.shipped_edges += len(add_edge_set) + len(remove_edges)
        return plan

    def _assign_owner(self, center_ball) -> int:
        """Fragment for a freshly appeared centre: most of its ball resident.

        Ownership placement only affects which worker does the centre's
        work — never the answer — so the tie-break just balances load
        deterministically (fewest owned centres, then lowest index).
        """
        return min(
            (fragment.index for fragment in self.fragments),
            key=lambda index: (
                -len(self._node_sets[index].intersection(center_ball)),
                len(self._owned[index]),
                index,
            ),
        )

    # ------------------------------------------------------------------
    # log compaction
    # ------------------------------------------------------------------
    def maybe_compact(self) -> list[int]:
        """Checkpoint + truncate every log that outgrew its fragment.

        Returns the indexes of the fragments that were compacted.
        """
        compacted: list[int] = []
        for fragment in self.fragments:
            index = fragment.index
            log = self._logs[index]
            if not log:
                continue
            weight = sum(update.weight for update in log)
            if weight <= CHECKPOINT_LOG_FRACTION * max(1, len(self._node_sets[index])):
                continue
            self.compact_fragment(index)
            compacted.append(index)
        return compacted

    def compact_fragment(self, index: int) -> FragmentCheckpoint:
        """Snapshot fragment *index* at the current sequence; truncate its log."""
        checkpoint = FragmentCheckpoint.capture(
            self.graph,
            self._node_sets[index],
            self._owned[index],
            index,
            self._sequence,
            name=f"{self.graph.name}|F{index}",
        )
        self._bases[index] = checkpoint
        self._base_sequences[index] = self._sequence
        self._logs[index].clear()
        trace_event("lifecycle.checkpoint", fragment=index, sequence=self._sequence)
        return checkpoint

    def lease(self, index: int) -> FragmentLease:
        """The round payload state for fragment *index* (base + slice tail)."""
        return FragmentLease(
            base_sequence=self._base_sequences[index],
            checkpoint=self._bases[index],
            updates=tuple(self._logs[index]),
        )

    # ------------------------------------------------------------------
    # durable state (checkpoint → restart)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Self-contained picklable state."""
        return {
            "max_radius": self.max_radius,
            "x_label": self.x_label,
            "owner": dict(self._owner),
            "node_sets": {index: set(nodes) for index, nodes in self._node_sets.items()},
            "logs": {index: list(log) for index, log in self._logs.items()},
            "bases": dict(self._bases),
            "base_sequences": dict(self._base_sequences),
            "sequence": self._sequence,
        }

    @classmethod
    def from_state(cls, graph: Graph, state: dict) -> "FragmentManager":
        """Rebuild a manager (and its fragments) from :meth:`state_dict`.

        The fragments are re-materialised from the authoritative graph at
        the saved sequence, so a restarted worker pool starts from resident
        copies that are byte-identical to the pre-restart ones.  A
        ``base_paths`` entry that older checkpoints carry is ignored (their
        ``bases`` already hold every base inline), and so are the
        per-fragment weights a retired rebalancer saved beside them and the
        per-centre ``balls`` / ``refcounts`` of older membership bookkeeping
        (the node sets alone satisfy the membership invariant).
        """
        manager = cls.__new__(cls)
        manager.graph = graph
        manager.max_radius = state["max_radius"]
        manager.x_label = state["x_label"]
        manager._owner = dict(state["owner"])
        manager._neighborhoods = Neighborhoods(graph)
        manager._masks = {}
        manager._node_sets = {
            index: set(nodes) for index, nodes in state["node_sets"].items()
        }
        manager._owned = {index: set() for index in manager._node_sets}
        for center, index in manager._owner.items():
            manager._owned[index].add(center)
        manager._logs = {index: list(log) for index, log in state["logs"].items()}
        manager._bases = dict(state["bases"])
        manager._base_sequences = dict(state["base_sequences"])
        manager._sequence = state["sequence"]
        manager.fragments = []
        for index in sorted(manager._node_sets):
            node_set = manager._node_sets[index]
            local = graph.induced_subgraph(node_set, name=f"{graph.name}|F{index}")
            manager.fragments.append(
                Fragment(
                    index=index,
                    graph=local,
                    owned_centers=manager.owned_centers(index),
                    sequence=manager._sequence,
                )
            )
        return manager
