"""Incremental diversification (procedure ``incDiv`` of Section 4.2).

The coordinator keeps a priority queue of at most ⌈k/2⌉ *disjoint* GPAR
pairs, each scored by the pairwise objective F'.  New rules arriving in a
round either fill the queue greedily or replace the minimum-score pair when
they can form a better one — so the top-k set is maintained incrementally
instead of being recomputed from scratch every round.  The greedy pairing is
the 2-approximation of max-sum dispersion [Gollapudi & Sharma 2009].

A rule pays for its identity once: the first time it is seen it gets a dense
id, and the info table, the queue and the in-queue set are all kept by id.
A fresh rule is scored only against partners that can still win — those
whose pair-score upper bound (``diff = 1``, the Lemma 3 bound) exceeds the
queue's minimum pair score ``F'_m``; every other partner's real score is at
most its bound, so skipping it cannot change which pair is chosen.  The
bound is monotone in the partner's confidence (in floating point too), so
partners are visited in falling confidence and the scan stops at the first
bound ``<= F'_m``; equal scores go to the smaller id, as in insertion order.
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
    first: int  # dense rule ids
    second: int
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
        # Dense ids in first-insertion order: rule -> id, id -> rule / info.
        self._ids: dict[GPAR, int] = {}
        self._rules: list[GPAR] = []
        self._infos: list[RuleInfo] = []
        self._queued: set[int] = set()  # ids of the rules in self._pairs

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _remember(self, rule: GPAR, info: RuleInfo) -> int:
        index = self._ids.get(rule)
        if index is None:
            index = self._ids[rule] = len(self._rules)
            self._rules.append(rule)
            self._infos.append(info)
        else:
            self._infos[index] = info
        return index

    def _pair_score(self, first: int, second: int) -> float:
        info_a = self._infos[first]
        info_b = self._infos[second]
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
                self._remember(rule, info)
        fresh = [
            self._remember(rule, info)
            for rule, info in delta.items()
            if not math.isinf(info.confidence)
        ]
        self._fill_queue()
        self._replace_with(fresh)

    def _fill_queue(self) -> None:
        if len(self._pairs) >= self.max_pairs:
            return
        available = [index for index in range(len(self._rules)) if index not in self._queued]
        while len(self._pairs) < self.max_pairs and len(available) >= 2:
            best: tuple[float, int, int] | None = None
            for position, first in enumerate(available):
                for second in available[position + 1:]:
                    score = self._pair_score(first, second)
                    if best is None or score > best[0]:
                        best = (score, first, second)
            score, first, second = best
            self._pairs.append(_Pair(first, second, score))
            self._queued.update((first, second))
            available.remove(first)
            available.remove(second)

    def _replace_with(self, fresh: Iterable[int]) -> None:
        if len(self._pairs) < self.max_pairs:
            return
        pairs, queued, infos = self._pairs, self._queued, self._infos
        upper_bound = self.objective.upper_bound_contribution
        by_confidence = sorted(range(len(infos)), key=lambda i: (-infos[i].confidence, i))
        for rule in fresh:
            if rule in queued:
                continue
            worst_index = min(range(len(pairs)), key=lambda i: pairs[i].score)
            worst = pairs[worst_index]
            confidence = infos[rule].confidence
            best_partner = -1
            best_score = worst.score
            for partner in by_confidence:
                if partner == rule or partner in queued:
                    continue
                if upper_bound(confidence, infos[partner].confidence) <= worst.score:
                    break  # even at diff = 1 neither this pair nor a later one beats F'_m
                score = self._pair_score(rule, partner)
                if score > best_score or (score == best_score and best_partner > partner):
                    best_score = score
                    best_partner = partner
            if best_partner >= 0:
                pairs[worst_index] = _Pair(rule, best_partner, best_score)
                queued.difference_update((worst.first, worst.second))
                queued.update((rule, best_partner))

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def top_k(self) -> list[GPAR]:
        """The current diversified top-k rules (highest-score pairs first)."""
        ranked = sorted(self._pairs, key=lambda p: -p.score)
        return [self._rules[index] for pair in ranked for index in (pair.first, pair.second)][: self.k]

    def objective_value(self) -> float:
        """``F(Lk)`` of the current top-k set."""
        infos = [self._infos[self._ids[rule]] for rule in self.top_k()]
        return self.objective.total_from_matches(
            [info.confidence for info in infos], [info.matches for info in infos]
        )
