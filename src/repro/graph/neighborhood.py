"""Bounded breadth-first search utilities.

The paper's algorithms rely on *data locality* of subgraph isomorphism: a node
``vx`` matches the designated node ``x`` of a pattern of radius ``d`` iff it
matches inside the d-neighbourhood ``Gd(vx)`` — the subgraph induced by all
nodes within (undirected) distance ``d`` of ``vx`` (Sections 4.2 and 5.1).

Every function here is a view of one traversal, :func:`bfs_levels`, whose
frontiers come from a *neighbors* callable (default ``graph.neighbors``, a
fresh set per call); callers that traverse one graph state many times pass
a memoising one — the resident structure's frozen views, or a per-batch
``functools.cache(graph.neighbors)``.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from repro.exceptions import NodeNotFoundError
from repro.graph.graph import Graph

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


def _distances(levels: list[set]) -> dict[NodeId, int]:
    return {node: hop for hop, level in enumerate(levels) for node in level}


def bfs_distances(
    graph: Graph, source: NodeId, radius: int | None = None, neighbors=None
) -> dict[NodeId, int]:
    """Map each node within *radius* undirected hops of *source* (the paper's
    notion of radius and ``Nr(vx)``) to its distance; ``None``: the component."""
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    return _distances(bfs_levels(graph, (source,), radius, neighbors))


def multi_source_distances(
    graph: Graph, sources, radius: int, neighbors=None
) -> dict[NodeId, int]:
    """Hop distance to the nearest of *sources*, for nodes within *radius*.

    Sources absent from the graph are skipped (streaming deltas legitimately
    name removed nodes).  Edges are treated as undirected, matching the
    paper's ball notion — and the ball-scoped invalidation lemma of
    ``docs/streaming.md``, whose consumers (`ColumnarFragment.apply_delta`,
    `MatchStore.repair`, `StreamingIdentifier`) all derive their affected
    regions through this module.
    """
    return _distances(bfs_levels(graph, sources, radius, neighbors))


def multi_source_ball(graph: Graph, sources, radius: int, neighbors=None) -> set[NodeId]:
    """Nodes within *radius* hops of any of *sources* (undirected)."""
    return set().union(*bfs_levels(graph, sources, radius, neighbors))


def ball(graph: Graph, center: NodeId, radius: int, neighbors=None) -> set[NodeId]:
    """``Nr(vx)``: the set of nodes within *radius* hops of *center*.

    Includes *center* itself (distance 0).
    """
    if not graph.has_node(center):
        raise NodeNotFoundError(center)
    return multi_source_ball(graph, (center,), radius, neighbors)


def d_neighborhood(
    graph: Graph, center: NodeId, d: int, name: str | None = None, neighbors=None
) -> Graph:
    """``Gd(vx)``: the subgraph induced by ``Nd(vx)``.

    This is the unit of work shipped to a worker in both DMine and Match.
    """
    nodes = ball(graph, center, d, neighbors)
    return graph.induced_subgraph(nodes, name=name or f"{graph.name}|G{d}({center})")


def eccentricity(graph: Graph, source: NodeId) -> int:
    """Longest undirected shortest-path distance from *source*.

    Only the component containing *source* is considered; for the connected
    patterns the paper allows this equals the radius ``r(Q, x)``.
    """
    return max(bfs_distances(graph, source).values())
