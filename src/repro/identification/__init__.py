"""Entity identification with GPARs (EIP, paper Section 5).

Given a set Σ of GPARs pertaining to the same predicate ``q(x, y)``, a graph
G and a confidence bound η, EIP computes

    Σ(x, G, η) = { vx | vx ∈ Q(x, G), Q ⇒ q ∈ Σ, conf(R, G) ≥ η }

Algorithms
----------
:class:`MatchC`
    The parallel-scalable baseline of Theorem 6: partition G so every
    candidate's d-ball is local, verify candidates per fragment with plain
    subgraph isomorphism, assemble confidences at the coordinator.
:class:`Match`
    ``MatchC`` plus the optimisations of Section 5.2: early termination,
    sketch-guided search and shared per-candidate adjacency profiles across
    the rules of Σ.
:class:`DisVF2`
    The ``disVF2`` baseline: per rule, enumerate *all* matches of PR and of
    Qq̄ in each fragment with an unfiltered VF2 — the cost the paper's
    optimisations avoid.

The single-machine reference the algorithms are held to is
:func:`repro.testing.identify_sequential`.
"""

from repro.identification.eip import (
    AnswerEntry,
    AnswerPage,
    EIPConfig,
    EIPResult,
    identify_entities,
    solver_class,
)
from repro.identification.matchc import MatchC
from repro.identification.match import Match
from repro.identification.disvf2 import DisVF2

__all__ = [
    "AnswerEntry",
    "AnswerPage",
    "EIPConfig",
    "EIPResult",
    "identify_entities",
    "solver_class",
    "MatchC",
    "Match",
    "DisVF2",
]
