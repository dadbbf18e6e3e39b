"""Balanced, neighbourhood-preserving graph fragmentation.

The partitioner assigns each candidate centre node to exactly one fragment
(greedy balancing on estimated fragment size, in the spirit of the balanced
partitioning of [Rahimian et al. 2013] used by the paper) and then builds the
fragment graph as the subgraph induced by the union of the owned centres'
d-neighbourhoods.  Border nodes are replicated, centre ownership is not.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from repro.exceptions import PartitionError
from repro.graph.graph import Graph
from repro.graph.neighborhood import Neighborhoods
from repro.partition.fragment import Fragment, FragmentationReport
from repro.utils.rng import ensure_rng

NodeId = Hashable


def partition_graph(
    graph: Graph,
    num_fragments: int,
    centers: Iterable[NodeId],
    d: int,
    seed: int | None = 0,
) -> list[Fragment]:
    """Fragment *graph* into *num_fragments* pieces that preserve d-balls.

    Parameters
    ----------
    graph:
        The data graph G.
    num_fragments:
        Number of fragments (one per worker).
    centers:
        Candidate centre nodes (nodes satisfying the search condition of x in
        the predicate q(x, y)); every centre's ``Gd`` ends up in its owning
        fragment.
    d:
        Neighbourhood radius to preserve.
    seed:
        Shuffling seed for tie-breaking; ``None`` disables shuffling.

    Returns
    -------
    list[Fragment]
        Exactly *num_fragments* fragments (some may own no centre when there
        are fewer centres than fragments).
    """
    if num_fragments < 1:
        raise PartitionError(f"num_fragments must be >= 1, got {num_fragments}")
    if d < 0:
        raise PartitionError(f"d must be >= 0, got {d}")
    center_list = [node for node in centers]
    for node in center_list:
        if not graph.has_node(node):
            raise PartitionError(f"center {node!r} is not a node of the graph")

    rng = ensure_rng(seed) if seed is not None else None
    # Deterministic base order, optionally shuffled for balance robustness.
    center_list.sort(key=str)
    if rng is not None:
        rng.shuffle(center_list)

    fragment_nodes, fragment_centers = _balance(Neighborhoods(graph), center_list, d, num_fragments)
    fragments: list[Fragment] = []
    for index in range(num_fragments):
        local = graph.induced_subgraph(fragment_nodes[index], name=f"{graph.name}|F{index}")
        fragments.append(
            Fragment(index=index, graph=local, owned_centers=fragment_centers[index])
        )
    return fragments


def _balance(
    hoods: Neighborhoods, center_list: Sequence[NodeId], d: int, num_fragments: int
) -> tuple[list[set], list[set]]:
    """Greedy balancing: ``(node set, owned centres)`` per fragment.

    Worker time is dominated by per-centre verification work (proportional
    to the centre's d-ball), so centres, in *center_list* order, go to the
    fragment with the smallest accumulated *work load* (sum of owned ball
    sizes); the resulting fragment node-set size breaks ties so that storage
    stays even too.  Balls and fragments are kernel handles, so a choice is
    a few popcounts on the mask side; each fragment's nodes are decoded once,
    at the end (``repro.testing.reference_balance`` decodes every ball).
    """
    size, balls = hoods.size, hoods.balls(center_list, d)
    handles = [0 if hoods.masks else set() for _ in range(num_fragments)]
    fragment_centers: list[set] = [set() for _ in range(num_fragments)]
    fragment_load = [0] * num_fragments
    fragment_size = [0] * num_fragments
    for center in center_list:
        center_ball = balls[center]
        ball_size = size(center_ball)
        best_index, best_cost = 0, None
        for index in range(num_fragments):
            new_nodes = ball_size - size(center_ball & handles[index])
            cost = (fragment_load[index] + ball_size, fragment_size[index] + new_nodes)
            if best_cost is None or cost < best_cost:
                best_cost, best_index = cost, index
        handles[best_index] |= center_ball  # in place on a set, rebinding an int
        fragment_centers[best_index].add(center)
        fragment_load[best_index], fragment_size[best_index] = best_cost
    return [hoods.nodes(handle) for handle in handles], fragment_centers


def fragmentation_report(graph: Graph, fragments: Sequence[Fragment]) -> FragmentationReport:
    """Compute size/ownership/replication statistics for a fragmentation."""
    sizes = tuple(fragment.size for fragment in fragments)
    owned = tuple(len(fragment.owned_centers) for fragment in fragments)
    total_local_nodes = sum(fragment.graph.num_nodes for fragment in fragments)
    distinct_nodes = len({node for fragment in fragments for node in fragment.graph.nodes()})
    return FragmentationReport(
        num_fragments=len(fragments),
        sizes=sizes,
        owned_counts=owned,
        replicated_nodes=total_local_nodes - distinct_nodes,
    )
