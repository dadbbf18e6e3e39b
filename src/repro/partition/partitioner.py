"""Balanced, neighbourhood-preserving graph fragmentation.

The partitioner assigns each candidate centre node to exactly one fragment
(greedy balancing on estimated fragment size, in the spirit of the balanced
partitioning of [Rahimian et al. 2013] used by the paper) and then builds the
fragment graph as the subgraph induced by the union of the owned centres'
d-neighbourhoods.  Border nodes are replicated, centre ownership is not.
"""

from __future__ import annotations

import threading
import weakref
from typing import Callable, Hashable, Iterable, Sequence

from repro.exceptions import PartitionError
from repro.graph.graph import Graph
from repro.graph.neighborhood import Neighborhoods
from repro.obs.registry import registry
from repro.partition.fragment import Fragment
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
        are fewer centres than fragments).  A centre listed twice is owned once.
    """
    from repro.parallel.executor import is_int  # repro.parallel imports this package

    if not is_int(num_fragments) or num_fragments < 1:
        raise PartitionError(f"num_fragments must be an int >= 1, got {num_fragments!r}")
    if not is_int(d) or d < 0:
        raise PartitionError(f"d must be an int >= 0, got {d!r}")
    center_list = list(dict.fromkeys(centers))
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
    registry().inc("repro_partition_built_total", help="Fragmentations partition_graph built")
    return fragments


# The last fragmentation shared_fragments built, per graph object: weak keys, so
# the memo never keeps a graph alive.  Read and written only outside an open
# batch_update (the open-batch rule of docs/columnar.md).
_SHARED: "weakref.WeakKeyDictionary[Graph, tuple]" = weakref.WeakKeyDictionary()
_SHARED_LOCK = threading.Lock()


def shared_fragments(
    graph: Graph, key: tuple, build: Callable[[], list[Fragment]]
) -> tuple[list[Fragment], bool]:
    """``(fragments, reused)``: what ``build()`` returned for *key* on an
    earlier call at the current ``graph.version``, else ``build()``'s result,
    which replaces *graph*'s entry.

    The fragments come as a :class:`repro.parallel.executor.PooledFragments`,
    which owns the process pool forked with them: a replaced entry is
    dropped, and with it its pool once no call holds it.  The fragments are
    shared by every caller: read them, never mutate them.  An entry whose
    fragment graphs have moved since it was stored is not served.  Callers
    that mutate their fragments call :func:`partition_graph`.
    """
    from repro.parallel.executor import PooledFragments  # repro.parallel imports this package

    key = (graph.version, *key)
    memoised = not graph.in_batch
    if memoised:
        with _SHARED_LOCK:
            entry = _SHARED.get(graph)
        if _serves(entry, key):
            registry().inc("repro_partition_reused_total", help="Fragmentations reused")
            return entry[1], True
    fragments = PooledFragments(build())
    if memoised:
        with _SHARED_LOCK:
            replaced = _SHARED.get(graph)
            if _serves(replaced, key):
                # A racing call stored this version's fragments first: share
                # them, so racing calls share one pool too.
                return replaced[1], False
            _SHARED[graph] = (key, fragments, [f.graph.version for f in fragments])
        # Released outside the lock: dropping it may join a process pool.
        del replaced
    return fragments, False


def _serves(entry: tuple | None, key: tuple) -> bool:
    """Whether memo *entry* holds *key*'s fragments, none of which has moved."""
    return entry is not None and entry[0] == key and all(
        f.graph.version == v for f, v in zip(entry[1], entry[2])
    )


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
