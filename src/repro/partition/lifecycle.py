"""Fragment lifecycle management: residency, compaction, shedding, ownership.

Before this module, fragment residency was smeared across four layers: the
coordinator-side node sets and centre-ownership maps lived in
:class:`repro.stream.StreamingIdentifier`, the per-fragment update-slice
logs grew without bound next to them, the resident copies mutated inside
:mod:`repro.parallel.worker` contexts, and nothing ever *shrank* — a node
that left every owned centre's d-ball after deletions stayed resident
forever.  :class:`FragmentManager` owns the whole life of a fragment now:

* **membership via ball refcounts** — for every fragment the manager keeps
  each owned centre's current d-ball and a per-node refcount (how many
  owned balls contain the node).  A batch's recheck centres swap their old
  ball for the new one; nodes whose refcount drops to zero are *shed* from
  the resident fragment (the slice carries them in
  :attr:`FragmentUpdate.shed`), which also evicts them from the resident
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
    recheck: tuple = ()

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
    nodes: tuple  # (node, label, attrs-items), sorted
    edges: tuple  # (source, target, label), sorted
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
        """Snapshot the induced subgraph on *node_set* of *graph*."""
        edges = _ordered(
            (node, edge.target, edge.label)
            for node in node_set
            for edge in graph.out_edges(node)
            if edge.target in node_set
        )
        return cls(
            fragment_index=fragment_index,
            sequence=sequence,
            name=name,
            nodes=_described(graph, node_set),
            edges=edges,
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
    rechecked_centers: int = 0
    owned_added: int = 0
    owned_removed: int = 0
    entered_nodes: int = 0
    shed_nodes: int = 0
    shipped_edges: int = 0


class FragmentManager:
    """Coordinator-side owner of every fragment's residency and logs.

    Parameters
    ----------
    graph:
        The authoritative data graph (already partitioned).
    fragments:
        The fragments of :func:`repro.partition.partition_graph`; their node
        sets must equal the union of their owned centres' d-balls (the
        partitioner's contract), which seeds the refcounts.
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
        # Owned centres' d-balls as kernel handles (bit masks on a graph small
        # enough, sets otherwise); checkpoints store them as sets.
        self._neighborhoods = hoods = Neighborhoods(graph)
        self._refcounts: dict[int, dict[NodeId, int]] = {}
        self._node_sets: dict[int, set] = {}
        self._logs: dict[int, list[FragmentUpdate]] = {}
        self._bases: dict[int, FragmentCheckpoint | None] = {}
        self._base_sequences: dict[int, int] = {}
        self._sequence = 0
        self._balls = hoods.balls(
            [center for fragment in self.fragments for center in fragment.owned_centers], max_radius
        )
        for fragment in self.fragments:
            index = fragment.index
            refcounts: dict[NodeId, int] = {}
            for center in fragment.owned_centers:
                self._owner[center] = index
                for node in hoods.nodes(self._balls[center]):
                    refcounts[node] = refcounts.get(node, 0) + 1
            self._refcounts[index] = refcounts
            self._node_sets[index] = set(refcounts)
            self._logs[index] = []
            self._bases[index] = None
            self._base_sequences[index] = fragment.sequence

    # ------------------------------------------------------------------
    # membership / ownership accessors
    # ------------------------------------------------------------------
    def owned_centers(self, index: int) -> set:
        """Centres currently owned by fragment *index*."""
        return {center for center, owner in self._owner.items() if owner == index}

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
    def derive_batch(self, delta, region: set) -> BatchPlan:
        """Digest one applied batch: ownership, slices, refcounts.

        *delta* is the batch's recorded :class:`~repro.graph.graph.GraphDelta`
        and *region* the d-ball of its touched set on the post-update graph.
        Appends one :class:`FragmentUpdate` per fragment to the logs and
        returns the :class:`BatchPlan` (slices + counters).
        """
        graph = self.graph
        self._sequence += 1
        plan = BatchPlan()
        indexes = [fragment.index for fragment in self.fragments]
        # Every ball below is a BFS of the post-update graph over the
        # kernel's memoised neighbourhoods, of which this batch invalidates
        # only the touched nodes'.
        hoods = self._neighborhoods
        recode = hoods.update(delta.touched)
        if recode is not None:
            self._balls = {center: recode(handle) for center, handle in self._balls.items()}
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

        # Refcount bookkeeping: changed[index] maps every node whose count
        # moved to its count before the batch, so a release-then-retain
        # inside one batch (two ball swaps both keeping the node) cancels
        # out of the entered/vanished sets derived from it in step (4).
        changed: dict[int, dict] = {index: {} for index in indexes}

        def shift(index: int, nodes, step: int) -> None:
            refcounts = self._refcounts[index]
            before = changed[index]
            for node in nodes:
                count = refcounts.get(node, 0)
                before.setdefault(node, count)
                if count + step > 0:
                    refcounts[node] = count + step
                else:
                    refcounts.pop(node, None)

        # (2) centre-role maintenance: only touched nodes can change role.
        # A lost centre's stored ball is released from its old owner (which
        # may shed the nodes only it was covering).
        for node in sorted(delta.touched, key=str):
            owner = self._owner.get(node)
            is_center = graph.has_node(node) and graph.node_label(node) == self.x_label
            if owner is not None and not is_center:
                del self._owner[node]
                own_remove[owner].add(node)
                old_ball = self._balls.pop(node, None)
                if old_ball is not None:
                    shift(owner, hoods.nodes(old_ball), -1)
            elif owner is None and is_center:
                chosen = self._assign_owner(hoods.nodes(hoods.balls((node,), self.max_radius)[node]))
                self._owner[node] = chosen
                own_add[chosen].add(node)
        plan.owned_added = sum(len(centers) for centers in own_add.values())
        plan.owned_removed = sum(len(centers) for centers in own_remove.values())

        # (3) recheck centres (owned, inside the affected region): their
        # current balls in one pass, each swapped for the stored one by their
        # difference — shifting a node both balls hold down and up again
        # cancels, in the refcounts and in the entered / vanished sets alike,
        # so only the difference is decoded from the masks.  Freshly gained
        # centres have no stored ball yet; they are in the region by
        # construction (only touched nodes gain the centre label, and touched ⊆ region).
        recheck: dict[int, set] = {index: set() for index in indexes}
        for center, owner in self._owner.items():
            if center in region:
                recheck[owner].add(center)
        current = hoods.balls([center for centers in recheck.values() for center in centers], self.max_radius)
        for index in indexes:
            for center in sorted(recheck[index], key=str):
                old_ball = self._balls.get(center)
                new_ball = current[center]
                if old_ball is None:
                    shift(index, hoods.nodes(new_ball), +1)
                elif old_ball != new_ball:
                    moved = old_ball ^ new_ball
                    shift(index, hoods.nodes(old_ball & moved), -1)
                    shift(index, hoods.nodes(new_ball & moved), +1)
                self._balls[center] = new_ball

        # (4) membership deltas and the shipped slices.
        for index in indexes:
            refcounts = self._refcounts[index]
            node_set = self._node_sets[index]
            entered = {node for node, was in changed[index].items() if not was and node in refcounts}
            vanished = {node for node, was in changed[index].items() if was and node not in refcounts}
            remove_edges, remove_nodes, relabels = removals[index]
            shed = _ordered(node for node in vanished if graph.has_node(node))
            add_edge_set = {
                edge
                for edge in delta.added_edges
                if edge[0] in refcounts and edge[1] in refcounts
            }
            for node in entered:
                for edge in graph.out_edges(node):
                    if edge.target in refcounts:
                        add_edge_set.add((node, edge.target, edge.label))
                for edge in graph.in_edges(node):
                    if edge.source in refcounts:
                        add_edge_set.add((edge.source, node, edge.label))
            node_set.difference_update(vanished)
            node_set.difference_update(remove_nodes)
            node_set.update(entered)
            update = FragmentUpdate(
                sequence=self._sequence,
                remove_edges=remove_edges,
                remove_nodes=remove_nodes,
                add_nodes=_described(graph, entered),
                add_edges=_ordered(add_edge_set),
                relabels=relabels,
                shed=shed,
                own_add=_ordered(own_add[index]),
                own_remove=_ordered(own_remove[index]),
                recheck=_ordered(recheck[index]),
            )
            self._logs[index].append(update)
            plan.updates[index] = update
            plan.rechecked_centers += len(recheck[index])
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
        owned_counts: dict[int, int] = {
            fragment.index: 0 for fragment in self.fragments
        }
        for owner in self._owner.values():
            owned_counts[owner] = owned_counts.get(owner, 0) + 1
        best_index = None
        best_cost = None
        for fragment in self.fragments:
            index = fragment.index
            overlap = len(self._node_sets[index].intersection(center_ball))
            cost = (-overlap, owned_counts.get(index, 0), index)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_index = index
        return best_index

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
            self.owned_centers(index),
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
            "balls": {
                center: set(self._neighborhoods.nodes(handle))
                for center, handle in self._balls.items()
            },
            "refcounts": {
                index: dict(counts) for index, counts in self._refcounts.items()
            },
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
        per-fragment weights a retired rebalancer saved beside them.
        """
        manager = cls.__new__(cls)
        manager.graph = graph
        manager.max_radius = state["max_radius"]
        manager.x_label = state["x_label"]
        manager._owner = dict(state["owner"])
        # Handles are rebuilt, never pickled: the kernel is a function of the graph.
        manager._neighborhoods = hoods = Neighborhoods(graph)
        manager._balls = {center: hoods.reach(nodes, 0)[0] for center, nodes in state["balls"].items()}
        manager._refcounts = {
            index: dict(counts) for index, counts in state["refcounts"].items()
        }
        manager._node_sets = {
            index: set(nodes) for index, nodes in state["node_sets"].items()
        }
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
