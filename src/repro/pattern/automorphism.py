"""Automorphic grouping of GPARs by canonical code.

DMine deduplicates GPARs generated independently by different workers; two
GPARs are "automorphic" when their rule patterns PR are isomorphic under a
mapping that preserves the designated nodes (paper Section 4.2).

:func:`group_automorphic` keys groups by ``(consequent label, canonical
code)`` and runs no pairwise check:

* *equal codes ⇒ isomorphic.*  An encoding lists, per position, the node's
  label and x / y flags and the sorted labelled edge set over positions.
  Two equal encodings — ``canonical:`` or ``fallback:`` alike — therefore
  define a position-to-position bijection that preserves labels, the
  designated nodes and every labelled edge, which is an isomorphism.
* *isomorphic ⇒ equal codes* for every ``canonical:`` code.  The code is
  computed on the copy-expanded pattern from colours seeded with
  ``(label, is_x, is_y)`` and refined by labelled neighbourhoods — nothing
  reads a node's name — so an isomorphism ``φ`` preserving x and y maps
  colour classes onto equal colour classes, and the classes are ordered by
  their colours.  Each ordering that respects the classes encodes ``P``
  exactly as its image under ``φ`` encodes ``φ(P)``; the code is the minimum
  over *all* such orderings, so both patterns take the minimum over the same
  set of encodings.

The paper prunes its pairwise isomorphism checks with Lemma 4 (bisimilarity
is necessary for automorphism).  Here no pairwise check is left to prune: a
rule joins the group whose code equals its own, and equal codes already
imply the isomorphism.  Past the ordering cap a ``fallback:`` code fixes one
ordering by node name, so isomorphic patterns may get different codes and
then stay in separate groups (see :mod:`repro.pattern.canonical`).  The
pairwise oracle is :func:`repro.testing.reference_group_automorphic`.
"""

from __future__ import annotations

from typing import Sequence

from repro.pattern.canonical import canonical_code
from repro.pattern.gpar import GPAR


def group_automorphic(rules: Sequence[GPAR]) -> list[list[GPAR]]:
    """Partition *rules* by ``(consequent label, canonical code)``.

    Groups come in order of their first member, members in input order.
    """
    groups: dict[tuple[str, str], list[GPAR]] = {}
    for rule in rules:
        groups.setdefault((rule.consequent_label, canonical_code(rule.pr_pattern())), []).append(rule)
    return list(groups.values())
