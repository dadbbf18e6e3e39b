"""Bounded breadth-first search utilities.

The paper's algorithms rely on *data locality* of subgraph isomorphism: a node
``vx`` matches the designated node ``x`` of a pattern of radius ``d`` iff it
matches inside the d-neighbourhood ``Gd(vx)`` — the subgraph induced by all
nodes within (undirected) distance ``d`` of ``vx`` (Sections 4.2 and 5.1).
"""

from __future__ import annotations

from collections import deque
from typing import Hashable

from repro.exceptions import NodeNotFoundError
from repro.graph.graph import Graph

NodeId = Hashable


def bfs_distances(
    graph: Graph,
    source: NodeId,
    radius: int | None = None,
    directed: bool = False,
    resident=None,
) -> dict[NodeId, int]:
    """Map each node within *radius* of *source* to its hop distance.

    Parameters
    ----------
    graph:
        The graph to traverse.
    source:
        Start node (distance 0).
    radius:
        Maximum distance to explore; ``None`` explores the whole component.
    directed:
        If ``True`` follow out-edges only; otherwise treat edges as
        undirected (the paper's notion of radius and ``Nr(vx)``).
    resident:
        Optional resident :class:`repro.graph.columnar.ColumnarFragment` of
        *graph*; undirected frontiers are then served from its memoised
        frozen neighbourhood view instead of a fresh set per visited node.
    """
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    distances: dict[NodeId, int] = {source: 0}
    queue: deque[NodeId] = deque([source])
    while queue:
        current = queue.popleft()
        current_distance = distances[current]
        if radius is not None and current_distance >= radius:
            continue
        if directed:
            frontier = graph.out_neighbors(current)
        elif resident is not None:
            frontier = resident.neighbors(current)
        else:
            frontier = graph.neighbors(current)
        for neighbor in frontier:
            if neighbor not in distances:
                distances[neighbor] = current_distance + 1
                queue.append(neighbor)
    return distances


def multi_source_distances(
    graph: Graph,
    sources,
    radius: int,
    resident=None,
) -> dict[NodeId, int]:
    """Hop distance to the nearest of *sources*, for nodes within *radius*.

    Sources absent from the graph are skipped (streaming deltas legitimately
    name removed nodes).  Edges are treated as undirected, matching the
    paper's ball notion — and the ball-scoped invalidation lemma of
    ``docs/streaming.md``, whose consumers (`ColumnarFragment.apply_delta`,
    `MatchStore.repair`, `StreamingIdentifier`) all derive their affected
    regions through this one helper.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    distances: dict[NodeId, int] = {
        source: 0 for source in sources if graph.has_node(source)
    }
    frontier = list(distances)
    neighbors = graph.neighbors if resident is None else resident.neighbors
    for hop in range(1, radius + 1):
        next_frontier: list[NodeId] = []
        for node in frontier:
            for neighbor in neighbors(node):
                if neighbor not in distances:
                    distances[neighbor] = hop
                    next_frontier.append(neighbor)
        if not next_frontier:
            break
        frontier = next_frontier
    return distances


def multi_source_ball(graph: Graph, sources, radius: int, resident=None) -> set[NodeId]:
    """Nodes within *radius* hops of any of *sources* (undirected)."""
    return set(multi_source_distances(graph, sources, radius, resident=resident))


def ball(graph: Graph, center: NodeId, radius: int, resident=None) -> set[NodeId]:
    """``Nr(vx)``: the set of nodes within *radius* hops of *center*.

    Includes *center* itself (distance 0).
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    return set(bfs_distances(graph, center, radius=radius, resident=resident))


def d_neighborhood(
    graph: Graph, center: NodeId, d: int, name: str | None = None, resident=None
) -> Graph:
    """``Gd(vx)``: the subgraph induced by ``Nd(vx)``.

    This is the unit of work shipped to a worker in both DMine and Match.
    """
    nodes = ball(graph, center, d, resident=resident)
    return graph.induced_subgraph(nodes, name=name or f"{graph.name}|G{d}({center})")


def eccentricity(graph: Graph, source: NodeId) -> int:
    """Longest undirected shortest-path distance from *source*.

    Only the component containing *source* is considered; for the connected
    patterns the paper allows this equals the radius ``r(Q, x)``.
    """
    distances = bfs_distances(graph, source, radius=None, directed=False)
    return max(distances.values()) if distances else 0
