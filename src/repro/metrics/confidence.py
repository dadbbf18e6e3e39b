"""Confidence measures for GPARs (paper Section 3 and Exp-2).

The paper's primary metric revises the Bayes Factor of association rules
under the LCWA:

    conf(R, G) = supp(R, G) * supp(q̄, G) / (supp(Qq̄, G) * supp(q, G))

Two alternatives are also implemented because Exp-2 compares against them:
the PCA confidence of AMIE (``supp(R)/supp(Qq̄)``) and an image-based variant
that replaces the topological support with minimum-image support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable

from repro.graph.graph import Graph
from repro.matching.base import Matcher
from repro.matching.vf2 import VF2Matcher
from repro.metrics.lcwa import PredicateStats, predicate_stats, q_bar_intersection
from repro.metrics.support import minimum_image_support
from repro.pattern.gpar import GPAR

NodeId = Hashable


def bayes_factor_confidence(
    supp_r: int,
    supp_q_bar: int,
    supp_q_qbar: int,
    supp_q: int,
) -> float:
    """The LCWA Bayes-factor confidence.

    The two "trivial" cases of Section 3 are mapped to ``math.inf``:
    ``supp(Qq̄, G) = 0`` (the rule holds as a logic rule on all of G) and
    ``supp(q, G) = 0`` (the predicate identifies no user at all).  Callers —
    the miner and the identifier — detect and discard/flag these cases.
    """
    if supp_r < 0 or supp_q_bar < 0 or supp_q_qbar < 0 or supp_q < 0:
        raise ValueError("support counts must be non-negative")
    denominator = supp_q_qbar * supp_q
    if denominator == 0:
        return math.inf
    return (supp_r * supp_q_bar) / denominator


def pca_confidence(supp_r: int, supp_q_qbar: int) -> float:
    """PCA confidence [Galárraga et al. 2013]: ``supp(R) / supp(Qq̄)``.

    Only measures "coverage" of the rule among LCWA-negative antecedent
    matches; returns ``math.inf`` when there are none.
    """
    if supp_q_qbar == 0:
        return math.inf
    return supp_r / supp_q_qbar


def image_based_confidence(
    image_supp_r: int,
    supp_q_bar: int,
    supp_q_qbar: int,
    supp_q: int,
) -> float:
    """Bayes-factor formula with image-based rule support substituted in."""
    denominator = supp_q_qbar * supp_q
    if denominator == 0:
        return math.inf
    return (image_supp_r * supp_q_bar) / denominator


def conventional_confidence(supp_r: int, supp_q_antecedent: int) -> float:
    """The classical ``supp(R)/supp(Q)`` confidence (for comparison only)."""
    if supp_q_antecedent == 0:
        return 0.0
    return supp_r / supp_q_antecedent


@dataclass(frozen=True)
class RuleEvaluation:
    """All supports and confidences of one GPAR on one graph."""

    rule: GPAR
    supp_r: int
    supp_antecedent: int
    supp_q: int
    supp_q_bar: int
    supp_q_qbar: int
    confidence: float
    pca: float
    conventional: float
    rule_matches: frozenset
    antecedent_matches: frozenset

    @property
    def is_trivial(self) -> bool:
        """Trivial per Section 3: infinite confidence or an empty predicate."""
        return math.isinf(self.confidence) or self.supp_q == 0

    def as_row(self) -> str:
        """One-line report used by the examples."""
        conf = "inf" if math.isinf(self.confidence) else f"{self.confidence:.3f}"
        return (
            f"{self.rule.name}: supp={self.supp_r} conf={conf} "
            f"pca={'inf' if math.isinf(self.pca) else f'{self.pca:.3f}'} "
            f"supp(q)={self.supp_q} supp(q̄)={self.supp_q_bar} supp(Qq̄)={self.supp_q_qbar}"
        )


def evaluate_rule(
    graph: Graph,
    rule: GPAR,
    matcher: Matcher | None = None,
    stats: PredicateStats | None = None,
    candidates=None,
) -> RuleEvaluation:
    """Compute every support/confidence quantity for *rule* on *graph*.

    Parameters
    ----------
    matcher:
        Anchored matcher (defaults to :class:`VF2Matcher`).
    stats:
        Pre-computed LCWA statistics for the rule's predicate; pass them when
        evaluating many rules over the same predicate to avoid recomputation.
    candidates:
        Optional restriction of the probed x-candidates (fragment-local
        evaluation in the parallel algorithms).
    """
    engine = matcher if matcher is not None else VF2Matcher()
    predicate = stats if stats is not None else predicate_stats(graph, rule.q_pattern())

    antecedent_matches = engine.match_set(graph, rule.antecedent, candidates=candidates)
    # PR(x, G) ⊆ Q(x, G) ∩ Pq(x, G): only antecedent matches that are LCWA
    # positives can possibly match the full rule pattern, so probe just those.
    rule_candidate_pool = antecedent_matches & set(predicate.positives)
    rule_matches = engine.match_set(graph, rule.pr_pattern(), candidates=rule_candidate_pool)

    supp_q_qbar = len(q_bar_intersection(predicate.negatives, antecedent_matches))
    confidence = bayes_factor_confidence(
        len(rule_matches), predicate.supp_q_bar, supp_q_qbar, predicate.supp_q
    )
    return RuleEvaluation(
        rule=rule,
        supp_r=len(rule_matches),
        supp_antecedent=len(antecedent_matches),
        supp_q=predicate.supp_q,
        supp_q_bar=predicate.supp_q_bar,
        supp_q_qbar=supp_q_qbar,
        confidence=confidence,
        pca=pca_confidence(len(rule_matches), supp_q_qbar),
        conventional=conventional_confidence(len(rule_matches), len(antecedent_matches)),
        rule_matches=frozenset(rule_matches),
        antecedent_matches=frozenset(antecedent_matches),
    )


def evaluate_rule_image_based(
    graph: Graph,
    rule: GPAR,
    matcher: Matcher | None = None,
    stats: PredicateStats | None = None,
    max_matches: int = 10_000,
) -> float:
    """Image-based confidence ``Iconf`` of Exp-2 (expensive; small graphs only)."""
    engine = matcher if matcher is not None else VF2Matcher()
    predicate = stats if stats is not None else predicate_stats(graph, rule.q_pattern())
    antecedent_matches = engine.match_set(graph, rule.antecedent)
    supp_q_qbar = len(q_bar_intersection(predicate.negatives, antecedent_matches))
    image_supp = minimum_image_support(
        rule.pr_pattern(), graph, matcher=engine, max_matches=max_matches
    )
    return image_based_confidence(
        image_supp, predicate.supp_q_bar, supp_q_qbar, predicate.supp_q
    )
