"""Fragment data structures."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from repro.graph.graph import Graph

NodeId = Hashable


@dataclass
class Fragment:
    """One worker's share of the data graph.

    Attributes
    ----------
    index:
        Fragment number (0-based).
    graph:
        The fragment's local graph: the union of the d-neighbourhoods of the
        centre nodes assigned to this fragment (border nodes may therefore be
        replicated across fragments).
    owned_centers:
        The candidate centre nodes *owned* by this fragment.  Ownership is
        disjoint across fragments, so counting owned centres never double
        counts a node in global support sums.
    """

    index: int
    graph: Graph
    owned_centers: set = field(default_factory=set)

    def __repr__(self) -> str:
        return (
            f"Fragment(index={self.index}, |V|={self.graph.num_nodes}, "
            f"|E|={self.graph.num_edges}, owned={len(self.owned_centers)})"
        )
