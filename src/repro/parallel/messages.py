"""Messages exchanged between workers and the coordinator (Section 4.2).

A worker reports, for every GPAR it generated or evaluated locally, the
triple ``<R, conf, flag>`` of the paper: the rule, the local support counts
needed to assemble the global confidence, and whether the rule can still be
extended at this worker.  The local match sets of the designated node are
included so the coordinator can compute the diversification distance
``diff(R, R')`` (Jaccard over match sets) — exactly the information shown in
the message tables of Example 9.

Everything in this module is a frozen dataclass built from picklable parts
(patterns, frozensets, ints) so the same messages can cross a process
boundary on the multiprocessing backend.  The payload types describe one
round's worth of coordinator → worker instructions; they carry witness
*sets of node ids*, never graphs, which keeps per-round IPC small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.pattern.gpar import GPAR

NodeId = Hashable


@dataclass(frozen=True)
class RuleMessage:
    """Per-rule, per-fragment message ``<R, conf, flag>``."""

    rule: GPAR
    fragment_index: int
    supp_r: int = 0
    supp_antecedent: int = 0
    supp_q_qbar: int = 0
    supp_q: int = 0
    supp_q_bar: int = 0
    extendable: bool = False
    # Witness sets (owned centres only), used for diff() and for Σ(x, G, η).
    rule_matches: frozenset = frozenset()
    antecedent_matches: frozenset = frozenset()
    qbar_matches: frozenset = frozenset()
    # Upper-bound support for the message-reduction rules (Lemma 3): owned
    # centres matching R that still have unexplored structure at hop r + 1.
    upper_support: int = 0


@dataclass(frozen=True)
class RuleFocus:
    """Coordinator → worker guidance for expanding one rule at one fragment.

    ``centers`` is the fragment's match set of the rule from the previous
    round — the centres worth expanding around.  ``None`` means "no
    previous-round knowledge": the worker falls back to its local positive
    centres.  (The anti-monotone evaluation pools travel separately in
    :class:`EvaluatePayload`, which only ships them for the deduplicated
    representatives actually being evaluated.)
    """

    centers: frozenset | None = None


@dataclass(frozen=True)
class Proposal:
    """One proposed extension, tagged with the message-set rule it extends."""

    rule: GPAR
    parent_index: int


@dataclass(frozen=True)
class ProposePayload:
    """Round payload for the propose half-round (coordinator → worker).

    ``focus`` is parallel to ``rules``.  ``predicate`` and ``config`` let a
    cold worker process rebuild its per-fragment miner deterministically.
    """

    rules: tuple[GPAR, ...]
    focus: tuple[RuleFocus, ...]
    predicate: object
    config: object


@dataclass(frozen=True)
class EvaluatePayload:
    """Round payload for the evaluate half-round (coordinator → worker).

    ``pools`` is parallel to ``rules``: the inherited candidate pool for each
    representative at this fragment (``None`` → the fragment's full
    candidate set).  ``parents`` (also parallel to ``rules``) names the
    message-set rule each representative was proposed from *at this
    fragment*, so the worker can delta-extend the parent's materialized
    matches instead of re-matching from scratch; a
    ``None`` parent means "no materialized lineage here — full match".
    Only rule objects travel, never match stores: the stores are
    fragment-resident and rebuilt from the fragment on a cache miss.
    """

    rules: tuple[GPAR, ...]
    pools: tuple[frozenset | None, ...]
    predicate: object
    config: object
    parents: tuple[GPAR | None, ...] = ()
