"""Worker-side mining (procedure ``localMine`` of Fig. 4).

Each worker holds one fragment.  Per round it (a) proposes single-edge
extensions of the rules received from the coordinator, guided by the data
around its matched centre nodes, and (b) evaluates rules on its fragment,
producing the ``<R, conf, flag>`` messages the coordinator assembles.
All support counts are restricted to the fragment's *owned* centres, so the
coordinator can sum them without double counting.

The miner itself is **stateless across rounds**: everything it needs beyond
its fragment arrives in the round payload (previous-round witness sets are
tracked by the coordinator and shipped back as :class:`RuleFocus` entries).
That makes the propose/evaluate steps pure functions of
``(fragment, payload)``, which is what allows the process-pool backend to
run any fragment's task in any worker process and still produce results
identical to the sequential backend.  The module-level
:func:`propose_worker` / :func:`evaluate_worker` functions are the picklable
entry points handed to :class:`repro.parallel.runtime.BSPRuntime`.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.matching.incremental import DeltaMatcher, MatchEntry, MatchStore, single_edge_delta
from repro.matching.vf2 import VF2Matcher
from repro.metrics.lcwa import predicate_stats_over
from repro.mining.config import DMineConfig
from repro.mining.expansion import extension_keys
from repro.parallel.messages import EvaluatePayload, ProposePayload, RuleFocus, RuleMessage
from repro.parallel.worker import WorkerContext
from repro.partition.fragment import Fragment
from repro.pattern.gpar import GPAR
from repro.pattern.pattern import Pattern

NodeId = Hashable


def seed_rule(predicate: Pattern, name: str = "seed") -> GPAR:
    """The round-0 seed: the predicate with an *empty* antecedent.

    It is not a valid (nontrivial) GPAR — its antecedent has no edge — so it
    is built without validation and never reported; it exists only to be
    expanded in the first round.
    """
    antecedent = Pattern(
        nodes={predicate.x: predicate.label(predicate.x), predicate.y: predicate.label(predicate.y)},
        edges=[],
        x=predicate.x,
        y=predicate.y,
    )
    edge = predicate.edges()[0]
    return GPAR(antecedent, consequent_label=edge.label, name=name, validate=False)


class LocalMiner:
    """Per-fragment mining state and the propose/evaluate round steps.

    Construction is deterministic in ``(fragment, predicate, config)``, so a
    worker process can rebuild an equivalent miner from scratch; the
    instance carries no cross-round mutable state.
    """

    def __init__(self, fragment: Fragment, predicate: Pattern, config: DMineConfig) -> None:
        self.fragment = fragment
        self.predicate = predicate
        self.config = config
        self.matcher = VF2Matcher()
        # Fragment-resident match materialization: parent levels' match sets
        # and embeddings live here between rounds so children are matched by
        # delta extension.  Like the fragment's index, the store never
        # crosses a pickle boundary — a cold worker process simply starts
        # with an empty store and the evaluation falls back to full matching
        # (identical results).
        self.store = MatchStore(fragment.graph)
        self.delta = DeltaMatcher(fragment.graph, self.matcher, self.store)

        stats = predicate_stats_over(fragment.graph, predicate, fragment.owned_centers)
        # Candidate centres C_i: owned nodes satisfying the search condition on x.
        self.candidates: set[NodeId] = (
            set(stats.positives) | set(stats.negatives) | set(stats.unknown)
        )
        # Fragment-local supp(q, F_i) / supp(q̄, F_i) are their sizes.
        self.local_positives: set[NodeId] = set(stats.positives)
        self.local_negatives: set[NodeId] = set(stats.negatives)

    # ------------------------------------------------------------------
    def propose(
        self, rules: Sequence[GPAR], focus: Sequence[RuleFocus] | None = None
    ) -> list[tuple[int, tuple]]:
        """Propose single-edge extensions for every rule in *rules*, as
        ``(index into rules, extension key as a plain tuple)`` pairs.

        *focus* (parallel to *rules*) carries the previous round's witness
        sets at this fragment: expansion starts from the centres that
        matched the rule.  The parent's index lets the coordinator build the
        child on its own parent object and hand the evaluation the parent's
        anti-monotone candidate pool.
        """
        proposals: list[tuple[int, tuple]] = []
        for index, rule in enumerate(rules):
            entry = focus[index] if focus is not None else RuleFocus()
            if rule.antecedent.num_edges == 0 or entry.centers is None:
                centers: set[NodeId] = set(self.local_positives)
            else:
                centers = set(entry.centers)
            if not centers:
                continue
            witnesses = None
            if rule.antecedent.num_edges > 0:
                entry = self.store.get(rule.antecedent)
                # Only canonical entries are safe to reuse: their first
                # embedding per centre *is* the mapping find_match_at would
                # return, so the proposed extensions are identical whether
                # the witness comes from the store or from a fresh probe.
                if entry is not None and entry.canonical_witness:
                    witnesses = entry
            keys = extension_keys(
                self.fragment.graph,
                rule,
                sorted(centers, key=str),
                self.matcher,
                max_radius=self.config.d,
                max_extensions=self.config.max_extensions_per_rule,
                witnesses=witnesses,
            )
            proposals.extend((index, tuple(key)) for key in keys)
        return proposals

    def evaluate(
        self,
        rules: Sequence[GPAR],
        pools: Sequence[frozenset | None] | None = None,
        parents: Sequence[GPAR | None] | None = None,
    ) -> list[RuleMessage]:
        """Evaluate *rules* on the fragment, producing one message per rule.

        *pools* (parallel to *rules*) restricts each rule's evaluation to the
        inherited candidate pool — its parent's antecedent matches at this
        fragment; by anti-monotonicity the restriction never changes the
        result, only the work.  ``None`` entries fall back to the fragment's
        full candidate set.

        *parents* (parallel to *rules*) names the rule each entry was
        proposed from at this fragment.  Every rule's antecedent is matched
        first, then its PR pattern over the antecedent matches that are local
        positives.  On each side the rules whose parent pattern is resident
        in the fragment's :class:`~repro.matching.incremental.MatchStore` are
        delta-extended as one sibling group per parent entry; the rest are
        matched in full, with identical messages.
        """
        # The seed (no antecedent edge) is never evaluated, so never stored.
        parents = [
            parent if parent is not None and parent.antecedent.num_edges else None
            for parent in (parents or [None] * len(rules))
        ]
        # Materialize embeddings only for rules whose children can still be
        # proposed: a rule at the edge budget is never extended, so storing
        # its embeddings would be pure overhead.
        want = [rule.antecedent.num_edges < self.config.max_edges for rule in rules]
        stored: list[MatchEntry | None] = []
        antecedent_sets = self._match_side(
            [rule.antecedent for rule in rules],
            [None if parent is None else parent.antecedent for parent in parents],
            [self.candidates if pool is None else set(pool) for pool in (pools or [None] * len(rules))],
            want,
            stored,
        )
        rule_sets = self._match_side(
            [rule.pr_pattern() for rule in rules],
            [None if parent is None else parent.pr_pattern() for parent in parents],
            [matches & self.local_positives for matches in antecedent_sets],
            want,
            stored,
        )
        messages = [
            RuleMessage(
                rule_index=index,
                fragment_index=self.fragment.index,
                supp_r=len(rule_sets[index]),
                supp_q_qbar=len(antecedent_sets[index] & self.local_negatives),
                extendable=bool(rule_sets[index]) and want[index],
                rule_matches=frozenset(rule_sets[index]),
                antecedent_matches=frozenset(antecedent_sets[index]),
            )
            for index in range(len(rules))
        ]
        # The only parents the next level can need are this level's
        # children: evict everything else.  The store itself then holds one
        # level of entries; note that a child's lazy embedding streams keep
        # their ancestors' streams reachable (they pull parent embeddings on
        # demand), so resident embedding memory is bounded by ancestry depth
        # (<= max_edges) x matched centres x the per-centre cap, not by the
        # entry count alone.
        self.store.retain(entry.pattern for entry in stored if entry is not None)
        return messages

    def _match_side(
        self,
        patterns: list[Pattern],
        parent_patterns: list[Pattern | None],
        pools: list[set[NodeId]],
        want: list[bool],
        stored: list[MatchEntry | None],
    ) -> list[set[NodeId]]:
        """Match sets of *patterns* over *pools*: one :meth:`DeltaMatcher.extend`
        call per resident parent entry, a full match for the rest; each
        pattern's entry for the next level (or ``None``) goes to *stored*."""
        results: list[set[NodeId]] = [set() for _ in patterns]
        entries: dict[Pattern, MatchEntry | None] = {}
        groups: dict[Pattern, tuple[MatchEntry, list]] = {}
        for index, (pattern, parent) in enumerate(zip(patterns, parent_patterns)):
            if parent is not None and parent not in entries:
                entries[parent] = self.store.get(parent)
            entry = entries.get(parent)
            delta = single_edge_delta(parent, pattern) if entry is not None else None
            if delta is None:
                results[index], kept = self.delta.materialize(pattern, pools[index], want[index])
                stored.append(kept)
            else:
                groups.setdefault(parent, (entry, []))[1].append(
                    (index, (pattern, delta, pools[index], want[index]))
                )
        for entry, members in groups.values():
            outcomes = self.delta.extend(entry, [request for _, request in members])
            for (index, _), (matches, kept) in zip(members, outcomes):
                results[index] = matches
                stored.append(kept)
        return results


# ----------------------------------------------------------------------
# Module-level worker entry points (picklable by reference).
# ----------------------------------------------------------------------
def miner_for(context: WorkerContext, predicate: Pattern, config: DMineConfig) -> LocalMiner:
    """The context's cached :class:`LocalMiner` for (predicate, config)."""
    return context.cached(
        ("local-miner", predicate, config),
        lambda: LocalMiner(context.fragment, predicate, config),
    )


def propose_worker(context: WorkerContext, payload: ProposePayload) -> list[tuple[int, tuple]]:
    """BSP worker function for the propose half-round."""
    miner = miner_for(context, payload.predicate, payload.config)
    return miner.propose(payload.rules, payload.focus)


def evaluate_worker(context: WorkerContext, payload: EvaluatePayload) -> list[RuleMessage]:
    """BSP worker function for the evaluate half-round."""
    miner = miner_for(context, payload.predicate, payload.config)
    return miner.evaluate(payload.rules, payload.pools, payload.parents or None)
