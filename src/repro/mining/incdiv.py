"""Incremental diversification (procedure ``incDiv`` of Section 4.2).

The coordinator keeps a priority queue of at most ⌈k/2⌉ *disjoint* GPAR
pairs, each scored by the pairwise objective F'.  New rules arriving in a
round either fill the queue greedily or replace the minimum-score pair when
they can form a better one — so the top-k set is maintained incrementally
instead of being recomputed from scratch every round.  The greedy pairing is
the 2-approximation of max-sum dispersion [Gollapudi & Sharma 2009].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

from repro.metrics.diversification import DiversificationObjective, jaccard_distance
from repro.pattern.gpar import GPAR

NodeId = Hashable


@dataclass(frozen=True)
class RuleInfo:
    """What the coordinator knows about a candidate rule."""

    confidence: float
    support: int
    matches: frozenset
    upper_confidence: float = math.inf
    extendable: bool = False

    @property
    def finite_confidence(self) -> float:
        """Confidence with trivial (infinite) values clamped to 0."""
        return 0.0 if math.isinf(self.confidence) else self.confidence


@dataclass
class _Pair:
    first: GPAR
    second: GPAR
    score: float


class IncrementalDiversifier:
    """Maintains the diversified top-k set across mining rounds."""

    def __init__(self, objective: DiversificationObjective, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.objective = objective
        self.k = k
        self.max_pairs = (k + 1) // 2
        self._pairs: list[_Pair] = []
        self._info: dict[GPAR, RuleInfo] = {}

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _rules_in_queue(self) -> set[GPAR]:
        rules: set[GPAR] = set()
        for pair in self._pairs:
            rules.add(pair.first)
            rules.add(pair.second)
        return rules

    def _pair_score(self, first: GPAR, second: GPAR) -> float:
        info_a = self._info[first]
        info_b = self._info[second]
        diff = jaccard_distance(info_a.matches, info_b.matches)
        return self.objective.pair_score(info_a.confidence, info_b.confidence, diff)

    @property
    def min_pair_score(self) -> float:
        """``F'_m``: the smallest pair score currently in the queue.

        Returns ``-inf`` while the queue is not yet full, so the reduction
        rules never prune anything before the top-k set has stabilised.
        """
        if len(self._pairs) < self.max_pairs or not self._pairs:
            return -math.inf
        return min(pair.score for pair in self._pairs)

    # ------------------------------------------------------------------
    # the incremental update
    # ------------------------------------------------------------------
    def update(self, delta: Mapping[GPAR, RuleInfo], sigma: Mapping[GPAR, RuleInfo]) -> None:
        """Incorporate the round's new rules ΔE given the accumulated Σ.

        Trivial rules (infinite confidence) are ignored, per Section 3.
        """
        for rule, info in sigma.items():
            if not math.isinf(info.confidence):
                self._info[rule] = info
        fresh: list[GPAR] = []
        for rule, info in delta.items():
            if math.isinf(info.confidence):
                continue
            self._info[rule] = info
            fresh.append(rule)

        self._fill_queue()
        self._replace_with(fresh)

    def _fill_queue(self) -> None:
        available = [rule for rule in self._info if rule not in self._rules_in_queue()]
        while len(self._pairs) < self.max_pairs and len(available) >= 2:
            best: tuple[float, GPAR, GPAR] | None = None
            for index, first in enumerate(available):
                for second in available[index + 1:]:
                    score = self._pair_score(first, second)
                    if best is None or score > best[0]:
                        best = (score, first, second)
            if best is None:
                break
            score, first, second = best
            self._pairs.append(_Pair(first, second, score))
            available.remove(first)
            available.remove(second)

    def _replace_with(self, fresh: Iterable[GPAR]) -> None:
        if len(self._pairs) < self.max_pairs:
            return
        for rule in fresh:
            in_queue = self._rules_in_queue()
            if rule in in_queue:
                continue
            best_partner: GPAR | None = None
            best_score = -math.inf
            for partner in self._info:
                if partner == rule or partner in in_queue:
                    continue
                score = self._pair_score(rule, partner)
                if score > best_score:
                    best_score = score
                    best_partner = partner
            if best_partner is None:
                continue
            worst_index = min(range(len(self._pairs)), key=lambda i: self._pairs[i].score)
            if best_score > self._pairs[worst_index].score:
                self._pairs[worst_index] = _Pair(rule, best_partner, best_score)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def top_k(self) -> list[GPAR]:
        """The current diversified top-k rules (highest-score pairs first)."""
        rules: list[GPAR] = []
        for pair in sorted(self._pairs, key=lambda p: -p.score):
            for rule in (pair.first, pair.second):
                if rule not in rules:
                    rules.append(rule)
        return rules[: self.k]

    def objective_value(self) -> float:
        """``F(Lk)`` of the current top-k set."""
        rules = self.top_k()
        confidences = [self._info[rule].confidence for rule in rules]
        match_sets = [self._info[rule].matches for rule in rules]
        return self.objective.total_from_matches(confidences, match_sets)
