"""Pattern radius and connectivity (paper Section 2.1 notations)."""

from __future__ import annotations

from typing import Hashable

from repro.exceptions import PatternError
from repro.graph.neighborhood import bfs_distances
from repro.pattern.pattern import Pattern


def pattern_radius(pattern: Pattern, node: Hashable | None = None) -> int:
    """``r(Q, x)``: longest undirected distance from *node* to any pattern node.

    Defaults to the designated node ``x``.  Raises :class:`PatternError` if
    the pattern is not connected (the distance would be infinite).
    """
    anchor = pattern.x if node is None else node
    if not pattern.has_node(anchor):
        raise PatternError(f"{anchor!r} is not a pattern node")
    distances = bfs_distances(pattern, anchor)
    if len(distances) != pattern.num_nodes:
        raise PatternError(
            "pattern radius is undefined for a disconnected pattern "
            f"({len(distances)} of {pattern.num_nodes} nodes reachable from {anchor!r})"
        )
    return max(distances.values())


def is_connected(pattern: Pattern) -> bool:
    """Whether the pattern is connected when treated as undirected."""
    start = next(iter(pattern.nodes()))
    distances = bfs_distances(pattern, start)
    return len(distances) == pattern.num_nodes
