"""Canonical codes for patterns.

A canonical code is a string that is identical for isomorphic patterns
(designated nodes respected) and — up to a documented size cutoff — different
for non-isomorphic ones.  It is DMine's one automorphism test: rules group
by ``(consequent label, code)`` in :mod:`repro.pattern.automorphism`, which
also gives the argument that equal codes imply an isomorphism.

The code is computed by Weisfeiler–Lehman style colour refinement seeded with
``(label, is_x, is_y)`` followed by an exhaustive minimisation over orderings
within colour classes.  Patterns in GPAR mining have a handful of nodes, so
the exhaustive step is cheap; if the number of orderings would exceed
``_MAX_ORDERINGS`` we fall back to a deterministic encoding under one
ordering by node name.  The prefix says which: a ``canonical:`` code is a
complete invariant, a ``fallback:`` code is not.

The limit past the cap: isomorphic patterns whose large colour classes are
not twins (interchangeable nodes) can get different ``fallback:`` codes, and
then stay in separate automorphism groups.  Example: x with ``f``-edges to
six ``c`` nodes, each ``g``-wired to a distinct ``d`` node — two different
wirings are isomorphic, but both classes have six members (518,400
orderings) and the name order encodes the wirings differently.  That
pattern has 12 antecedent edges; mining grows at most ``max_edges`` (4 by
default).  Equal ``fallback:`` codes still imply an isomorphism, so a
group never joins rules that are not automorphic.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Hashable

from repro.pattern.pattern import Pattern

_MAX_ORDERINGS = 20_000
_REFINEMENT_ROUNDS = 4


def _refined_colors(pattern: Pattern) -> dict[Hashable, tuple]:
    colors: dict[Hashable, tuple] = {}
    for node, label in pattern.node_items():
        colors[node] = (label, node == pattern.x, node == pattern.y)
    for _ in range(_REFINEMENT_ROUNDS):
        next_colors: dict[Hashable, tuple] = {}
        for node in pattern.nodes():
            out_signature = tuple(
                sorted((edge.label, colors[edge.target]) for edge in pattern.out_edges(node))
            )
            in_signature = tuple(
                sorted((edge.label, colors[edge.source]) for edge in pattern.in_edges(node))
            )
            next_colors[node] = (colors[node], out_signature, in_signature)
        if len(set(next_colors.values())) == len(set(colors.values())):
            colors = next_colors
            break
        colors = next_colors
    return colors


def _encode(pattern: Pattern, ordering: list) -> tuple:
    index_of = {node: index for index, node in enumerate(ordering)}
    node_part = tuple(
        (index, pattern.label(node), node == pattern.x, node == pattern.y)
        for index, node in enumerate(ordering)
    )
    edge_part = tuple(
        sorted(
            (index_of[edge.source], index_of[edge.target], edge.label)
            for edge in pattern.edges()
        )
    )
    return (node_part, edge_part)


def canonical_code(pattern: Pattern) -> str:
    """The canonical code of (the copy-expanded) *pattern*, kept on the pattern."""
    code = pattern._code
    if code is None:
        code = pattern._code = _compute_code(pattern)
    return code


def _compute_code(pattern: Pattern) -> str:
    expanded = pattern.expanded()
    colors = _refined_colors(expanded)

    # Group nodes by colour; orderings permute only within a colour class.
    classes: dict[tuple, list] = {}
    for node in expanded.nodes():
        classes.setdefault(colors[node], []).append(node)
    ordered_classes = [
        sorted(members, key=str) for _, members in sorted(classes.items(), key=lambda kv: repr(kv[0]))
    ]

    total_orderings = 1
    for members in ordered_classes:
        factor = 1
        for i in range(2, len(members) + 1):
            factor *= i
        total_orderings *= factor
        if total_orderings > _MAX_ORDERINGS:
            break

    if total_orderings > _MAX_ORDERINGS:
        # Deterministic fallback: fixed order inside each class.
        ordering = [node for members in ordered_classes for node in members]
        return "fallback:" + repr(_encode(expanded, ordering))

    best: tuple | None = None
    for combo in product(*(permutations(members) for members in ordered_classes)):
        ordering = [node for group in combo for node in group]
        code = _encode(expanded, ordering)
        if best is None or code < best:
            best = code
    return "canonical:" + repr(best)
