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
    sequence:
        The update-slice sequence number this resident copy reflects
        (see :mod:`repro.partition.lifecycle`); 0 for a fresh partition.
        A worker's applied-sequence counter initialises from it, so
        fragments re-materialised from a lifecycle checkpoint never replay
        slices they already contain.
    """

    index: int
    graph: Graph
    owned_centers: set = field(default_factory=set)
    sequence: int = 0

    def __repr__(self) -> str:
        return (
            f"Fragment(index={self.index}, |V|={self.graph.num_nodes}, "
            f"|E|={self.graph.num_edges}, owned={len(self.owned_centers)})"
        )
