"""Messages exchanged between workers and the coordinator (Section 4.2).

A worker reports, for every GPAR it evaluated locally, the triple
``<R, conf, flag>`` of the paper as a :class:`RuleMessage`: the rule, the
local support counts needed to assemble the global confidence, and whether
the rule can still be extended at this worker.  The local match sets of the
designated node are included so the coordinator can compute the
diversification distance ``diff(R, R')`` (Jaccard over match sets) —
exactly the information shown in the message tables of Example 9.

What crosses the process boundary names rules the coordinator already holds
rather than rebuilding them:

* a worker's proposals are ``(parent_index, key)`` pairs — the index of the
  message-set rule extended and the plain tuple of an extension key
  (:func:`repro.mining.expansion.extension_keys`).  The coordinator
  materialises each distinct pair once, on its own parent object, into a
  :class:`Proposal`;
* a :class:`RuleMessage` names its rule by ``rule_index``, the position in
  the :class:`EvaluatePayload`'s ``rules``.

Payloads are frozen dataclasses built from picklable parts (rules,
frozensets, ints); they carry witness *sets of node ids*, never graphs,
which keeps per-round IPC small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.pattern.gpar import GPAR

NodeId = Hashable


@dataclass(frozen=True)
class RuleMessage:
    """Per-rule, per-fragment message ``<R, conf, flag>``; the rule is
    ``rules[rule_index]`` of the evaluated payload."""

    rule_index: int
    fragment_index: int
    supp_r: int = 0
    supp_q_qbar: int = 0
    extendable: bool = False
    # Witness sets (owned centres only), used for diff() and for Σ(x, G, η).
    rule_matches: frozenset = frozenset()
    antecedent_matches: frozenset = frozenset()


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
    """One proposed extension, tagged with the message-set rule it extends
    (built by the coordinator from a worker's ``(parent_index, key)``)."""

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
