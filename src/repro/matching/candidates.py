"""Candidate generation and cheap necessary-condition filters.

Every helper accepts the graph's optional resident structure
(:class:`repro.graph.columnar.ColumnarFragment`); when one is supplied the
probe is answered from it — a frozen label bucket, an int row comparison
against the precomputed profile matrix — instead of being re-derived from
the raw graph (an O(degree) walk).
The results are identical by construction: the structure is a re-encoding
of exactly these quantities, and the label and profile-domination checks
are necessary conditions for an isomorphism match, so filtering never
changes a match set, only the work done to compute it.
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable, Iterable

from repro.graph.columnar import ColumnarFragment
from repro.graph.graph import Graph
from repro.pattern.pattern import Pattern

NodeId = Hashable

# A profile maps (direction, edge label, neighbour label) -> count, where
# direction is "out" or "in".  It summarises the labelled adjacency of a node.
Profile = dict[tuple[str, str, str], int]


def label_candidates(
    graph: Graph,
    pattern: Pattern,
    pattern_node,
    resident: ColumnarFragment | None = None,
) -> frozenset | set[NodeId]:
    """Data nodes whose label satisfies the search condition of *pattern_node*.

    With a *resident* structure this returns a frozen label bucket
    **directly** — no per-probe copy; callers that need to mutate the result
    must copy it themselves (``set(...)``).  Without one the graph already
    hands out a fresh mutable set.
    """
    label = pattern.label(pattern_node)
    if resident is not None:
        return resident.nodes_with_label(label)
    return graph.nodes_with_label(label)


def columnar_filter_candidates(
    columnar: ColumnarFragment,
    pattern: Pattern,
    pattern_node,
    pool: Iterable[NodeId],
) -> list[NodeId]:
    """Pool members that satisfy *pattern_node*'s label + profile requirement.

    Equivalent to keeping every ``v`` with ``graph.node_label(v) ==
    pattern.label(pattern_node)`` and ``degree_consistent(graph, v, pattern,
    pattern_node)``, evaluated against the columnar profile matrix.
    """
    requirement = columnar.compile_requirement(pattern, pattern_node)
    return columnar.filter_candidates(pool, requirement)


def required_profile(pattern: Pattern, pattern_node) -> Profile:
    """Adjacency profile a data node must dominate to match *pattern_node*.

    Computed on the copy-expanded pattern by the caller when copy counts
    matter; here the pattern is used as given.
    """
    profile: Counter = Counter()
    for edge in pattern.out_edges(pattern_node):
        profile[("out", edge.label, pattern.label(edge.target))] += 1
    for edge in pattern.in_edges(pattern_node):
        profile[("in", edge.label, pattern.label(edge.source))] += 1
    return dict(profile)


def adjacency_profile(
    graph: Graph, node: NodeId, resident: ColumnarFragment | None = None
) -> Profile:
    """Labelled adjacency profile of a data node.

    This is the quantity :class:`repro.matching.MultiPatternMatcher` caches
    per candidate so that every rule in Σ reuses it.  With a *resident*
    structure the profile is decoded from its profile store instead of
    walking the node's edges.
    """
    if resident is not None:
        return resident.profile(node)
    profile: Counter = Counter()
    for edge in graph.out_edges(node):
        profile[("out", edge.label, graph.node_label(edge.target))] += 1
    for edge in graph.in_edges(node):
        profile[("in", edge.label, graph.node_label(edge.source))] += 1
    return dict(profile)


def profile_satisfies(candidate_profile: Profile, needed: Profile) -> bool:
    """Whether a candidate's profile dominates the required profile."""
    for key, count in needed.items():
        if candidate_profile.get(key, 0) < count:
            return False
    return True


def degree_consistent(
    graph: Graph,
    data_node: NodeId,
    pattern: Pattern,
    pattern_node,
    resident: ColumnarFragment | None = None,
) -> bool:
    """Cheap degree-based necessary condition for ``data_node`` to match.

    For every (direction, edge label, neighbour label) the pattern requires,
    the data node must have at least as many such neighbours.  With a
    *resident* structure this is one int row comparison against a memoised
    compiled requirement (it runs once per expanded search state).
    """
    if resident is not None:
        return resident.degree_consistent(data_node, pattern, pattern_node)
    return profile_satisfies(
        adjacency_profile(graph, data_node), required_profile(pattern, pattern_node)
    )
