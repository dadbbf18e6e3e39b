"""Diversified GPAR mining (DMP, paper Section 4).

:class:`DMine` is the parallel miner of Theorem 2: a coordinator/worker BSP
loop that grows rule antecedents levelwise from the predicate ``q(x, y)``,
assembles supports and Bayes-factor confidences from fragment-local counts,
maintains the top-k diversified set incrementally (``incDiv``), and prunes
non-promising rules with the reduction rules of Lemma 3, grouping automorphic
proposals by canonical code.  ``DMineNo`` (the paper's ``DMineno``) is the
same miner with every optimisation disabled, used as the baseline in the
Exp-1 benchmarks.
"""

from repro.mining.config import DMineConfig
from repro.mining.dmine import (
    DMine,
    DMineResult,
    MinedRule,
    dmine,
    dmine_auto,
    dmine_baseline,
    dmine_for_predicates,
)
from repro.mining.diversify import greedy_diversify
from repro.mining.incdiv import IncrementalDiversifier
from repro.mining.local_mine import LocalMiner
from repro.mining.reduction import apply_reduction_rules

__all__ = [
    "DMineConfig",
    "DMine",
    "DMineResult",
    "MinedRule",
    "dmine",
    "dmine_baseline",
    "dmine_for_predicates",
    "dmine_auto",
    "LocalMiner",
    "IncrementalDiversifier",
    "apply_reduction_rules",
    "greedy_diversify",
]
