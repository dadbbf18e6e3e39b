"""Graph patterns and graph-pattern association rules (GPARs).

A pattern ``Q = (Vp, Ep, f, C)`` is a small labelled graph whose node labels
are search conditions and whose optional copy counts ``C(u)`` denote ``k``
sibling nodes with the same label and links (paper Section 2.1).  A GPAR
``R(x, y): Q(x, y) ⇒ q(x, y)`` pairs a pattern antecedent with a single-edge
consequent between the two designated nodes (Section 2.2).
"""

from repro.pattern.pattern import Pattern, PatternEdge
from repro.pattern.builder import PatternBuilder
from repro.pattern.gpar import GPAR
from repro.pattern.radius import pattern_radius, is_connected
from repro.pattern.automorphism import group_automorphic
from repro.pattern.canonical import canonical_code

__all__ = [
    "Pattern",
    "PatternEdge",
    "PatternBuilder",
    "GPAR",
    "pattern_radius",
    "is_connected",
    "group_automorphic",
    "canonical_code",
]
