"""Isomorphism between rule patterns and automorphic grouping.

DMine deduplicates GPARs generated independently by different workers; two
GPARs are "automorphic" when their rule patterns PR are isomorphic under a
mapping that preserves the designated nodes (paper Section 4.2).

:func:`group_automorphic` keys groups by ``(consequent label, canonical
code)``.  A ``canonical:`` code is a complete invariant, so within such a
bucket no check runs at all:

* *isomorphic ⇒ equal codes.*  The code is computed on the copy-expanded
  pattern from colours seeded with ``(label, is_x, is_y)`` and refined by
  labelled neighbourhoods — nothing reads a node's name — so an isomorphism
  ``φ`` preserving x and y maps colour classes onto equal colour classes,
  and the classes are ordered by their colours.  Each ordering that respects
  the classes encodes ``P`` exactly as its image under ``φ`` encodes
  ``φ(P)``; the code is the minimum over *all* such orderings, so both
  patterns take the minimum over the same set of encodings.
* *equal codes ⇒ isomorphic.*  An encoding lists, per position, the node's
  label and x / y flags and the sorted labelled edge set over positions.
  Two equal encodings therefore define a position-to-position bijection
  that preserves labels, the designated nodes and every labelled edge —
  exactly what :func:`are_isomorphic` searches for.

A ``fallback:`` code (more than ``_MAX_ORDERINGS`` orderings) fixes one
ordering by node name, so isomorphic patterns may get different codes; its
bucket keeps the bisimulation filter (Lemma 4) and the exact check.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.pattern.bisimulation import are_bisimilar
from repro.pattern.canonical import canonical_code
from repro.pattern.gpar import GPAR
from repro.pattern.pattern import Pattern


def are_isomorphic(first: Pattern, second: Pattern) -> bool:
    """Designated-node-preserving isomorphism between two patterns.

    Both patterns are copy-expanded first.  The mapping must send x to x and
    y to y (when present), preserve node labels, and induce a bijection
    between the edge sets with matching labels.
    """
    a = first.expanded()
    b = second.expanded()
    if a.num_nodes != b.num_nodes or a.num_edges != b.num_edges:
        return False
    if (a.y is None) != (b.y is None):
        return False

    b_nodes_by_label: dict[str, list] = {}
    for node, label in b.node_items():
        b_nodes_by_label.setdefault(label, []).append(node)
    a_nodes = sorted(a.nodes(), key=lambda n: (n != a.x, n != a.y, str(n)))
    b_edge_set = {(e.source, e.target, e.label) for e in b.edges()}
    a_edges = a.edges()

    def consistent(mapping: dict) -> bool:
        for edge in a_edges:
            if edge.source in mapping and edge.target in mapping:
                if (mapping[edge.source], mapping[edge.target], edge.label) not in b_edge_set:
                    return False
        return True

    def backtrack(index: int, mapping: dict, used: set) -> bool:
        if index == len(a_nodes):
            return True
        node = a_nodes[index]
        if node == a.x:
            candidates = [b.x]
        elif a.y is not None and node == a.y:
            candidates = [b.y]
        else:
            candidates = b_nodes_by_label.get(a.label(node), [])
        for candidate in candidates:
            if candidate in used:
                continue
            if b.label(candidate) != a.label(node):
                continue
            mapping[node] = candidate
            used.add(candidate)
            if consistent(mapping) and backtrack(index + 1, mapping, used):
                return True
            used.discard(candidate)
            del mapping[node]
        return False

    return backtrack(0, {}, set())


def gpars_automorphic(first: GPAR, second: GPAR) -> bool:
    """Whether two GPARs have the same consequent and isomorphic PR patterns."""
    if first.consequent_label != second.consequent_label:
        return False
    return are_isomorphic(first.pr_pattern(), second.pr_pattern())


def group_automorphic(
    rules: Sequence[GPAR],
    use_bisimulation_filter: bool = True,
) -> list[list[GPAR]]:
    """Partition *rules* into groups of pairwise-automorphic GPARs.

    Groups come in order of their first member, members in input order.  A
    rule with a ``canonical:`` code joins its bucket's one group outright;
    under a ``fallback:`` code it joins the bucket's first group that passes
    the bisimulation filter and the exact check (see the module docstring).
    """
    groups: list[list[GPAR]] = []
    buckets: dict[tuple[str, str], list[list[GPAR]]] = {}
    for rule in rules:
        code = canonical_code(rule.pr_pattern())
        bucket = buckets.setdefault((rule.consequent_label, code), [])
        complete = code.startswith("canonical:")
        for group in bucket:
            if complete or (
                (not use_bisimulation_filter or are_bisimilar(rule.pr_pattern(), group[0].pr_pattern()))
                and gpars_automorphic(rule, group[0])
            ):
                group.append(rule)
                break
        else:
            bucket.append([rule])
            groups.append(bucket[-1])
    return groups


def deduplicate(rules: Iterable[GPAR]) -> list[GPAR]:
    """Keep one representative GPAR per automorphism class, preserving order."""
    return [group[0] for group in group_automorphic(list(rules))]
