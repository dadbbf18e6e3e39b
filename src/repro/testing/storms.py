"""Adversarial churn generators ("storms") for the streaming subsystem.

:func:`repro.stream.random_update_batch` samples *uniform* churn; real
deployments misbehave in *correlated* ways, and so do the maintenance bugs
worth finding.  Each storm here is an :class:`~repro.stream.UpdateBatch`
sampler with the same contract as ``random_update_batch`` — deterministic
under its seed, self-consistent (no op references state an earlier op of
the same batch invalidated), valid against the graph's current state — but
with its churn concentrated where the repair machinery is weakest:

* :func:`correlated_deletion_storm` — deletions clustered inside one
  2-ball, the regime where ball-membership refcounts and census counts
  drop in bulk;
* :func:`label_flip_storm` — a small victim set relabelled repeatedly
  (several flips of the *same* node per tick), stressing label-index
  buckets and the global label census;
* :func:`hub_churn_storm` — incident-edge churn on the highest-degree
  node, occasionally deleting and replacing the hub itself, the worst case
  for delta-patched indexes and ball refcounts;
* :func:`ball_burst_storm` — interleaved add/remove bursts aimed at a
  single ball: fresh nodes wired in and torn out within one batch.

:data:`STORM_FAMILIES` registers them (plus the uniform baseline) for the
differential oracle, the ``storm`` smoke gate and the distiller.
"""

from __future__ import annotations

from typing import Callable, Hashable

from repro.exceptions import StreamError
from repro.graph.graph import Graph
from repro.graph.neighborhood import ball
from repro.stream.updates import UpdateBatch, UpdateOp, random_update_batch
from repro.utils.rng import ensure_rng

NodeId = Hashable

#: Radius of the region a localized storm concentrates on.
STORM_RADIUS = 2


class _StormState:
    """Shared bookkeeping: what is still alive/present mid-batch.

    Mirrors the tracking inside ``random_update_batch`` so every generator
    emits self-consistent batches without re-deriving the rules.
    """

    def __init__(self, graph: Graph, seed) -> None:
        if not graph.num_nodes:
            raise StreamError("cannot sample updates against an empty graph")
        self.graph = graph
        self.rng = ensure_rng(seed)
        self.alive = set(graph.nodes())
        self.present = {(e.source, e.target, e.label) for e in graph.edges()}
        self.node_labels = sorted(graph.node_labels()) or ["node"]
        self.edge_labels = sorted(graph.edge_labels()) or ["edge"]
        self.ops: list[UpdateOp] = []
        self._fresh_serial = 0

    # -- pools ---------------------------------------------------------
    def live(self, nodes) -> list[NodeId]:
        return sorted((n for n in nodes if n in self.alive), key=str)

    def live_edges(self, region=None) -> list[tuple]:
        pool = [
            e
            for e in self.present
            if e[0] in self.alive and e[1] in self.alive
        ]
        if region is not None:
            pool = [e for e in pool if e[0] in region and e[1] in region]
        return sorted(pool, key=str)

    def pick(self, pool):
        return pool[self.rng.randrange(len(pool))]

    # -- emitters (each keeps alive/present truthful) ------------------
    def remove_edge(self, edge: tuple) -> None:
        self.present.discard(edge)
        self.ops.append(UpdateOp.remove_edge(*edge))

    def remove_node(self, node: NodeId) -> None:
        self.alive.discard(node)
        self.present = {e for e in self.present if node not in (e[0], e[1])}
        self.ops.append(UpdateOp.remove_node(node))

    def add_edge(self, source: NodeId, target: NodeId, label: str) -> bool:
        if (source, target, label) in self.present or source == target:
            return False
        self.present.add((source, target, label))
        self.ops.append(UpdateOp.add_edge(source, target, label))
        return True

    def add_fresh_node(self, prefix: str, label: str) -> NodeId:
        self._fresh_serial += 1
        node = f"{prefix}-{self._fresh_serial}"
        self.alive.add(node)
        self.ops.append(UpdateOp.add_node(node, label))
        return node

    def relabel(self, node: NodeId, label: str) -> None:
        self.ops.append(UpdateOp.relabel_node(node, label))

    def batch(self) -> UpdateBatch:
        return UpdateBatch(ops=tuple(self.ops))


def _check_size(size: int) -> None:
    if size < 1:
        raise StreamError(f"size must be >= 1, got {size}")


def _epicenter(state: _StormState) -> NodeId:
    """A deterministic random node to centre the storm on."""
    return state.pick(sorted(state.alive, key=str))


def correlated_deletion_storm(
    graph: Graph, size: int = 8, seed=0
) -> UpdateBatch:
    """Deletions clustered inside one ``STORM_RADIUS``-ball.

    Roughly three quarters of the operations remove edges whose *both*
    endpoints lie in the epicentre's ball; the rest remove ball nodes
    outright.  When the region runs dry the storm re-centres, so the batch
    always reaches *size* on any graph with edges (and degrades to node
    deletions on edgeless graphs).
    """
    _check_size(size)
    state = _StormState(graph, seed)
    region = ball(graph, _epicenter(state), STORM_RADIUS) & state.alive
    attempts = 0
    while len(state.ops) < size and attempts < size * 50:
        attempts += 1
        edges = state.live_edges(region)
        nodes = state.live(region)
        if not edges and (len(nodes) < 1 or len(state.alive) <= 2):
            if len(state.alive) <= 2:
                break  # nothing left that is safe to delete
            region = ball(graph, _epicenter(state), STORM_RADIUS) & state.alive
            continue
        if edges and (not nodes or state.rng.random() < 0.75):
            state.remove_edge(state.pick(edges))
        elif nodes and len(state.alive) > 2:
            victim = state.pick(nodes)
            region.discard(victim)
            state.remove_node(victim)
        else:
            region = ball(graph, _epicenter(state), STORM_RADIUS) & state.alive
    return state.batch()


def label_flip_storm(graph: Graph, size: int = 8, seed=0) -> UpdateBatch:
    """Repeated relabels of a small victim set.

    Victims are flipped through the graph's own label alphabet, several
    times each per batch — the same node may change label twice in one
    version tick, which is exactly the history a label census or a
    patched label-index bucket can get wrong.
    """
    _check_size(size)
    state = _StormState(graph, seed)
    pool = sorted(state.alive, key=str)
    victims = [
        state.pick(pool) for _ in range(max(2, min(len(pool), size // 3 + 1)))
    ]
    for position in range(size):
        victim = victims[position % len(victims)]
        current = graph.node_label(victim)
        flips = [label for label in state.node_labels if label != current]
        state.relabel(victim, state.pick(flips) if flips else current)
    return state.batch()


def hub_churn_storm(graph: Graph, size: int = 8, seed=0) -> UpdateBatch:
    """Churn concentrated on the highest-degree node.

    Alternates removing the hub's incident edges with wiring new edges at
    the hub; one batch in roughly eight deletes the hub outright and
    splices in a fresh same-labelled replacement — the maximal single-op
    invalidation the repair layers can face.
    """
    _check_size(size)
    state = _StormState(graph, seed)
    degree = {node: 0 for node in state.alive}
    for source, target, _label in state.present:
        degree[source] += 1
        degree[target] += 1
    hub = min(state.alive, key=lambda node: (-degree[node], str(node)))
    if degree[hub] and state.rng.random() < 0.125:
        replacement_label = graph.node_label(hub)
        neighbours = state.live(
            {e[1] for e in state.present if e[0] == hub}
            | {e[0] for e in state.present if e[1] == hub}
        )
        state.remove_node(hub)
        hub = state.add_fresh_node(f"hub-{seed}", replacement_label)
        for neighbour in neighbours:
            if len(state.ops) >= size:
                break
            state.add_edge(hub, neighbour, state.pick(state.edge_labels))
    attempts = 0
    while len(state.ops) < size and attempts < size * 50:
        attempts += 1
        incident = [
            e for e in state.live_edges() if hub in (e[0], e[1])
        ]
        if incident and state.rng.random() < 0.5:
            state.remove_edge(state.pick(incident))
            continue
        others = state.live(state.alive - {hub})
        if not others:
            break
        state.add_edge(hub, state.pick(others), state.pick(state.edge_labels))
    return state.batch()


def ball_burst_storm(graph: Graph, size: int = 8, seed=0) -> UpdateBatch:
    """Interleaved add/remove bursts aimed at one ball.

    Each round wires a fresh node into the epicentre's ball and then tears
    something in the same region out (an edge, or the just-added node one
    time in four) — additions and removals of the *same* locality
    interleave inside a single version tick.
    """
    _check_size(size)
    state = _StormState(graph, seed)
    center = _epicenter(state)
    region = ball(graph, center, STORM_RADIUS) & state.alive
    recent: list[NodeId] = []
    attempts = 0
    while len(state.ops) < size and attempts < size * 50:
        attempts += 1
        anchors = state.live(region)
        if not anchors:
            break
        roll = state.rng.random()
        if roll < 0.4:
            fresh = state.add_fresh_node(f"burst-{seed}", state.pick(state.node_labels))
            state.add_edge(fresh, state.pick(anchors), state.pick(state.edge_labels))
            region.add(fresh)
            recent.append(fresh)
        elif roll < 0.65 and recent:
            victim = recent.pop()
            region.discard(victim)
            state.remove_node(victim)
        else:
            edges = state.live_edges(region)
            if edges:
                state.remove_edge(state.pick(edges))
            elif len(anchors) > 1 and len(state.alive) > 2:
                victim = state.pick([n for n in anchors if n != center] or anchors)
                region.discard(victim)
                state.remove_node(victim)
    return state.batch()


#: name -> sampler(graph, size=, seed=); the oracle, the distiller and the
#: ``storm`` smoke gate iterate this registry.
STORM_FAMILIES: dict[str, Callable[..., UpdateBatch]] = {
    "random": random_update_batch,
    "correlated-deletions": correlated_deletion_storm,
    "label-flips": label_flip_storm,
    "hub-churn": hub_churn_storm,
    "ball-burst": ball_burst_storm,
}
