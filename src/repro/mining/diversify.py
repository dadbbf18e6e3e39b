"""Batch diversification: the "discover then diversify" strategy.

The greedy pairing below is the classical 2-approximation for max-sum
dispersion; it is the final step of the unoptimised miner ``DMineno``,
which collects all candidate rules first.
"""

from __future__ import annotations

from typing import Mapping

from repro.metrics.diversification import DiversificationObjective, jaccard_distance
from repro.mining.incdiv import RuleInfo
from repro.pattern.gpar import GPAR


def greedy_diversify(
    infos: Mapping[GPAR, RuleInfo],
    k: int,
    objective: DiversificationObjective,
) -> list[GPAR]:
    """Pick a diversified top-k set by greedy max-sum dispersion.

    Repeatedly selects the pair of unused rules maximising the pairwise
    objective F' until k rules are chosen (the last pick may add a single
    rule when k is odd or candidates run out).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    available = [rule for rule, info in infos.items() if info.support >= 0]
    chosen: list[GPAR] = []
    while len(chosen) < k and available:
        if len(available) == 1 or len(chosen) == k - 1:
            # Single slot left: take the highest-confidence remaining rule.
            best_single = max(available, key=lambda rule: infos[rule].finite_confidence)
            chosen.append(best_single)
            available.remove(best_single)
            continue
        best: tuple[float, GPAR, GPAR] | None = None
        for index, first in enumerate(available):
            for second in available[index + 1:]:
                diff = jaccard_distance(infos[first].matches, infos[second].matches)
                score = objective.pair_score(
                    infos[first].confidence, infos[second].confidence, diff
                )
                if best is None or score > best[0]:
                    best = (score, first, second)
        if best is None:
            break
        _, first, second = best
        chosen.append(first)
        chosen.append(second)
        available.remove(first)
        available.remove(second)
    return chosen[:k]
