"""Configuration of the DMine miner."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Real

from repro.exceptions import MiningError
from repro.parallel.executor import BACKENDS, is_int, valid_pool_size

#: Fields that must be exact ints (``seed``, which may also be ``None``, is checked apart).
_INT_FIELDS = ("k", "d", "num_workers", "max_edges", "max_extensions_per_rule", "max_rules_per_round")


@dataclass(frozen=True)
class DMineConfig:
    """Parameters of a DMine run.

    Attributes
    ----------
    k:
        Size of the diversified top-k set to return.
    d:
        Maximum radius ``r(PR, x)`` of mined rule patterns.
    sigma:
        Minimum global support ``supp(R, G) >= sigma``.
    lam:
        Diversification balance λ ∈ [0, 1] (paper default 0.5).
    num_workers:
        Number of fragments / workers n.
    max_edges:
        Maximum number of antecedent edges (bounds the levelwise growth; the
        paper bounds growth by radius only, but unbounded edge growth is not
        meaningful on dense graphs).  One edge is added per levelwise round,
        so this is also the number of rounds.
    max_extensions_per_rule:
        Cap on the number of distinct extensions a worker proposes for one
        rule in one round (most-frequent extensions are kept).
    max_rules_per_round:
        Beam width: at most this many extendable rules are carried into the
        next round's message set M (highest optimistic confidence first).
        The paper reports "up to 300 patterns" being verified; this knob
        keeps the levelwise search within the same order of magnitude.
    optimized:
        DMine's optimisations: incDiv, the message-reduction rules of Lemma 3
        and the bisimulation prefilter of Lemma 4 before exact automorphism
        checks.  ``False`` is the paper's DMineno baseline ("discover then
        diversify"); see :meth:`without_optimizations`.
    seed:
        Seed for partitioning tie-breaks (an ``int``, or ``None`` for an
        unseeded partition).
    backend:
        Execution backend: ``"sequential"`` (default) or ``"processes"``
        (real multi-core parallelism via a persistent worker pool).  Both
        backends produce identical rule sets.
    executor_workers:
        Pool size (an ``int``) for the process backend; ``None`` sizes the
        pool to ``min(num_workers, cpu_count)``.
    """

    k: int = 10
    d: int = 2
    sigma: int = 1
    lam: float = 0.5
    num_workers: int = 4
    max_edges: int = 4
    max_extensions_per_rule: int = 30
    max_rules_per_round: int = 60
    optimized: bool = True
    seed: int | None = 0
    backend: str = "sequential"
    executor_workers: int | None = None

    def __post_init__(self) -> None:
        for name in _INT_FIELDS:
            if not is_int(getattr(self, name)):
                raise MiningError(f"{name} must be an int, got {getattr(self, name)!r}")
        if self.seed is not None and not is_int(self.seed):
            raise MiningError(f"seed must be an int or None, got {self.seed!r}")
        if isinstance(self.sigma, bool) or not isinstance(self.sigma, Real) or math.isnan(self.sigma):
            raise MiningError(f"sigma must be a real number, got {self.sigma!r}")
        if self.k < 1:
            raise MiningError(f"k must be >= 1, got {self.k}")
        if self.d < 1:
            raise MiningError(f"d must be >= 1, got {self.d}")
        if self.sigma < 0:
            raise MiningError(f"sigma must be >= 0, got {self.sigma}")
        if not 0.0 <= self.lam <= 1.0:
            raise MiningError(f"lambda must be in [0, 1], got {self.lam}")
        if self.num_workers < 1:
            raise MiningError(f"num_workers must be >= 1, got {self.num_workers}")
        if self.max_edges < 1:
            raise MiningError(f"max_edges must be >= 1, got {self.max_edges}")
        if self.max_rules_per_round < 1:
            raise MiningError(
                f"max_rules_per_round must be >= 1, got {self.max_rules_per_round}"
            )
        if self.backend not in BACKENDS:
            raise MiningError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if not valid_pool_size(self.executor_workers):
            raise MiningError(
                f"executor_workers must be an int >= 1, got {self.executor_workers!r}"
            )

    def without_optimizations(self) -> "DMineConfig":
        """The DMineno variant: identical search, all optimisations off."""
        return replace(self, optimized=False)
