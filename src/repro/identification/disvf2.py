"""``disVF2``: the brute-force parallel baseline of Exp-3.

The paper contrasts Match against a straightforward parallelisation of VF2:
for every rule, *all* isomorphic matches of the rule pattern PR and of the
antecedent are enumerated in each fragment (no early termination, no degree
or sketch filtering), and supports are derived from the enumerations.  It is
exact but wasteful — exactly the cost profile the optimised algorithms avoid.
"""

from __future__ import annotations

from typing import Sequence

from repro.graph.graph import Graph
from repro.identification.eip import Verdicts
from repro.identification.matchc import MatchC
from repro.matching.base import Matcher
from repro.matching.vf2 import VF2Matcher
from repro.pattern.gpar import GPAR


class DisVF2(MatchC):
    """Distributed full-enumeration VF2 baseline."""

    # Full enumeration runs directly on the fragment graphs, so the resident
    # structure (label buckets, frozen adjacency views) is consumed.
    _consumes_resident = True

    def _make_matcher(self, max_radius: int) -> Matcher:
        # No locality wrapper and no degree filtering: the whole fragment is
        # searched for every candidate, as a naive port of VF2 would.
        return VF2Matcher(use_degree_filter=False)

    def _verify_fragment(
        self,
        graph: Graph,
        centres,
        rules: Sequence[GPAR],
        matcher: Matcher,
        predicate,
    ) -> Verdicts:
        report, owned = Verdicts.start(graph, centres, predicate)

        for rule in rules:
            # Two *full* enumerations per rule — every match of the
            # antecedent and every match of PR in the fragment — exactly the
            # wasted work the paper attributes to disVF2; the candidate
            # match sets are then read off the enumerated mappings.
            report.candidates_examined += len(owned)
            antecedent_matches = {
                mapping[rule.antecedent.x]
                for mapping in matcher.find_all(graph, rule.antecedent)
            } & owned
            pr_matches = {
                mapping[rule.x]
                for mapping in matcher.find_all(graph, rule.pr_pattern())
            } & owned
            report.rule_matches[rule] = pr_matches & report.positives
            report.antecedent_sets[rule] = antecedent_matches
        return report
