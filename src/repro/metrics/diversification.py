"""Diversification objective for top-k GPAR sets (paper Section 4.1).

Rules are compared by the Jaccard distance of their match sets (the social
groups they identify); a top-k set is scored by max-sum diversification

    F(Lk) = (1-λ) Σ conf(Ri)/N  +  2λ/(k-1) Σ_{i<j} diff(Ri, Rj)

with the confidence sum normalised by ``N = supp(q, G) * supp(q̄, G)``.  The
incremental miner works with the pairwise score

    F'(R, R') = (1-λ)/(N(k-1)) (conf(R)+conf(R')) + 2λ/(k-1) diff(R, R').
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Hashable, Iterable, Mapping, Sequence

NodeId = Hashable


def jaccard_distance(first: Iterable[NodeId], second: Iterable[NodeId]) -> float:
    """``1 - |A ∩ B| / |A ∪ B|``; two empty sets have distance 0."""
    set_a = first if isinstance(first, (set, frozenset)) else set(first)
    set_b = second if isinstance(second, (set, frozenset)) else set(second)
    shared = len(set_a & set_b)
    union = len(set_a) + len(set_b) - shared
    if not union:
        return 0.0
    return 1.0 - shared / union


def rule_difference(matches_a: Iterable[NodeId], matches_b: Iterable[NodeId]) -> float:
    """``diff(R1, R2)``: Jaccard distance of the rules' match sets."""
    return jaccard_distance(matches_a, matches_b)


@dataclass(frozen=True)
class DiversificationObjective:
    """The bi-criteria objective of DMP, parameterised by λ, k and N.

    Parameters
    ----------
    lam:
        The user-controlled balance λ ∈ [0, 1]; 0 = pure confidence,
        1 = pure diversity.
    k:
        Size of the sought top-k set.
    normalizer:
        ``N = supp(q, G) * supp(q̄, G)`` (a constant for a fixed predicate).
        When 0 (degenerate predicate) the confidence term is dropped.
    """

    lam: float
    k: int
    normalizer: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {self.lam}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

    # -- helpers -----------------------------------------------------------
    def _confidence_weight(self) -> float:
        if self.normalizer <= 0:
            return 0.0
        return (1.0 - self.lam) / self.normalizer

    def _pair_confidence_weight(self) -> float:
        if self.normalizer <= 0 or self.k <= 1:
            return 0.0
        return (1.0 - self.lam) / (self.normalizer * (self.k - 1))

    def _diversity_weight(self) -> float:
        if self.k <= 1:
            return 0.0
        return 2.0 * self.lam / (self.k - 1)

    # -- scores ------------------------------------------------------------
    def total(
        self,
        confidences: Sequence[float],
        pairwise_diffs: Mapping[tuple[int, int], float],
    ) -> float:
        """``F(Lk)`` for rules given by index.

        *confidences* holds conf(Ri); *pairwise_diffs* maps index pairs
        ``(i, j)`` with ``i < j`` to diff(Ri, Rj).  Infinite confidences
        (trivial rules) are not expected here — the miner filters them first —
        but are clamped to 0 to keep the objective finite if they appear.
        """
        confidence_sum = sum(0.0 if math.isinf(c) else c for c in confidences)
        diversity_sum = 0.0
        for i, j in combinations(range(len(confidences)), 2):
            key = (i, j) if (i, j) in pairwise_diffs else (j, i)
            diversity_sum += pairwise_diffs.get(key, 0.0)
        return (
            self._confidence_weight() * confidence_sum
            + self._diversity_weight() * diversity_sum
        )

    def total_from_matches(
        self,
        confidences: Sequence[float],
        match_sets: Sequence[Iterable[NodeId]],
    ) -> float:
        """``F(Lk)`` computed directly from match sets."""
        if len(confidences) != len(match_sets):
            raise ValueError("confidences and match_sets must align")
        materialized = [set(matches) for matches in match_sets]
        diffs = {
            (i, j): jaccard_distance(materialized[i], materialized[j])
            for i, j in combinations(range(len(materialized)), 2)
        }
        return self.total(confidences, diffs)

    def pair_score(self, conf_a: float, conf_b: float, diff: float) -> float:
        """``F'(R, R')`` — the incremental pair score used by incDiv."""
        conf_a = 0.0 if math.isinf(conf_a) else conf_a
        conf_b = 0.0 if math.isinf(conf_b) else conf_b
        return self._pair_confidence_weight() * (conf_a + conf_b) + self._diversity_weight() * diff

    def upper_bound_contribution(self, conf_a: float, conf_b: float) -> float:
        """Upper bound of a pair's F' assuming maximal diversity (diff = 1).

        This is the quantity the message-reduction rules (Lemma 3) compare
        against the current minimum pair score of Lk.
        """
        return self.pair_score(conf_a, conf_b, 1.0)
