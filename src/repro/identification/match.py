"""``Match``: Matchc plus the optimisations of Section 5.2.

Four optimisations over :class:`repro.identification.MatchC`:

* **early termination** — candidates are accepted on the first witnessing
  match (inherited from the anchored matcher interface, but here combined
  with the pruning below so far fewer search states are expanded);
* **no search on a star** — where the pattern is a star at x whose leaves
  of one label share one slot (every rule mined on the batch benchmark),
  the candidate's label and adjacency profile decide the verdict, so the
  profile-filtered pool is the match set (see :mod:`repro.matching.guided`);
* **guided search** — the sketch-guided matcher prunes candidate
  assignments by k-hop neighbourhood sketches when it tries them (the
  paper's surplus order is not applied, see :mod:`repro.matching.guided`);
* **shared work across Σ** — antecedent prefixes common to several rules
  are matched once and their match sets reused as candidate pools, and each
  pool is checked against the rule's required adjacency profile (a
  necessary condition) before any isomorphism search runs: the common
  sub-pattern sharing of [Le et al. 2012] in spirit.
"""

from __future__ import annotations

from typing import Sequence

from repro.graph.graph import Graph
from repro.identification.eip import Verdicts
from repro.identification.matchc import MatchC
from repro.matching.base import Matcher
from repro.matching.guided import GuidedMatcher
from repro.matching.multi import MultiPatternMatcher
from repro.pattern.gpar import GPAR


class Match(MatchC):
    """Optimised parallel EIP solver (the paper's ``Match``)."""

    # The guided matcher runs directly on each fragment graph, so the
    # worker-initializer compile pays off here (unlike MatchC's
    # ball-restricted search).
    _consumes_resident = True

    def _make_matcher(self, max_radius: int) -> Matcher:
        # The fragment itself is the locality unit (it is the union of the
        # owned candidates' d-balls); running the guided matcher directly on
        # it lets the k-hop sketch cache be shared across all candidates and
        # all rules of Σ instead of being rebuilt per extracted ball.
        return GuidedMatcher()

    def _verify_fragment(
        self,
        graph: Graph,
        centres,
        rules: Sequence[GPAR],
        matcher: Matcher,
        predicate,
        recheck: tuple | None = None,
    ) -> Verdicts:
        """Prefix-trie evaluation of Σ: shared antecedent-prefix match sets.

        Produces the same verdict sets as verifying every (candidate, rule)
        pair on its own — pool restriction by prefix match sets is lossless —
        while rules grown from common prefixes (the normal shape of a mined Σ
        with one consequent) scan the candidate pool once per shared prefix
        instead of once per rule.  *recheck*,
        ``({rule index: centres}, {rule index: centres})``, narrows each
        antecedent's and each PR's pool to the centres listed for it (a
        streaming tick's); ``None`` pools every one of *centres* for every rule.
        """
        report, owned = Verdicts.start(graph, centres, predicate)
        local_positives = report.positives
        # PR matches only count at positive centres.
        if recheck is None:  # one pool every key shares: the trie's prefixes need no union
            antecedent_pools = dict.fromkeys(rules, owned)
            pr_pools = dict.fromkeys(rules, owned & local_positives)
        else:
            antecedents, prs = recheck
            antecedent_pools = {rule: owned.intersection(antecedents.get(i, ())) for i, rule in enumerate(rules)}
            pr_pools = {rule: local_positives.intersection(prs.get(i, ())) for i, rule in enumerate(rules)}
        # Every pooled (candidate, rule) pair is decided exactly once, whether
        # by a shared prefix pool or by its own search.
        report.candidates_examined = sum(len(pool) for pool in antecedent_pools.values())

        multi = MultiPatternMatcher(matcher)
        antecedent_sets = multi.antecedent_match_sets(graph, rules, antecedent_pools)
        pr_sets = multi.match_sets(graph, rules, pr_pools)
        report.prefix_pool_hits = multi.statistics.prefix_pool_hits
        report.antecedent_sets = {rule: antecedent_sets[rule] for rule in rules}
        report.rule_matches = {rule: pr_sets[rule] for rule in rules}
        return report
