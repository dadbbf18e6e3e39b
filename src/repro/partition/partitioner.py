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

    # Greedy balancing.  Worker time is dominated by per-centre verification
    # work (proportional to the centre's d-ball), so centres are assigned to
    # the fragment with the smallest accumulated *work load* (sum of owned
    # ball sizes); the resulting fragment node-set size breaks ties so that
    # storage stays even too.
    hoods = Neighborhoods(graph)
    balls = hoods.balls(center_list, d)
    fragment_nodes: list[set[NodeId]] = [set() for _ in range(num_fragments)]
    fragment_centers: list[set[NodeId]] = [set() for _ in range(num_fragments)]
    fragment_load: list[int] = [0] * num_fragments
    for center in center_list:
        center_ball = hoods.nodes(balls[center])
        best_index = 0
        best_cost: tuple[int, int] | None = None
        for index in range(num_fragments):
            new_nodes = len(center_ball - fragment_nodes[index])
            cost = (fragment_load[index] + len(center_ball), len(fragment_nodes[index]) + new_nodes)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_index = index
        fragment_nodes[best_index].update(center_ball)
        fragment_centers[best_index].add(center)
        fragment_load[best_index] += len(center_ball)

    fragments: list[Fragment] = []
    for index in range(num_fragments):
        local = graph.induced_subgraph(fragment_nodes[index], name=f"{graph.name}|F{index}")
        fragments.append(
            Fragment(index=index, graph=local, owned_centers=set(fragment_centers[index]))
        )
    return fragments


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
