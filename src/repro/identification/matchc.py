"""``Matchc``: the parallel-scalable EIP algorithm of Theorem 6.

Steps (Section 5.1):

1. **Partitioning** — fragment G so that every candidate centre's d-ball is
   local to one fragment (d = the largest rule radius in Σ).  G is
   fragmented once per version: a later call on the unchanged graph reuses
   the fragments, their compiled resident structures and, on the
   ``processes`` backend, the worker pool forked with them
   (:class:`repro.parallel.executor.PooledFragments`): only the per-query
   round moves.
2. **Matching** — each worker verifies, for every owned candidate ``vx`` and
   every rule R, whether ``vx ∈ PR(x, Gd(vx))`` and ``vx ∈ Q(x, Gd(vx))``,
   and classifies vx against the predicate (positive / LCWA-negative).
3. **Assembling** — the coordinator takes the supports as sizes of the
   fragments' verdict sets (:func:`repro.identification.eip.assemble`),
   derives ``conf(R, G)`` per rule and outputs the matches of rules whose
   confidence reaches η.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.graph.columnar import columnar_view
from repro.graph.graph import Graph
from repro.matching.base import Matcher
from repro.matching.locality import LocalityMatcher
from repro.matching.vf2 import VF2Matcher
from repro.identification.census import (
    CensusMatcher,
    apply_census,
    max_verification_radius,
    plan_census,
)
from repro.identification.eip import EIPConfig, EIPResult, Verdicts, _shared_predicate, assemble
from repro.obs.tracing import span
from repro.parallel.runtime import BSPRuntime
from repro.parallel.worker import WorkerContext
from repro.partition.partitioner import partition_graph, shared_fragments
from repro.pattern.gpar import GPAR

NodeId = Hashable


@dataclass(frozen=True)
class VerifyPayload:
    """Round payload of the matching step (coordinator → worker).

    Ships the solver *class* (picklable by reference) plus its config so a
    worker process can rebuild the solver — and through it the right matcher
    — deterministically; the fragment itself never travels with the round.
    ``census`` maps census-split patterns to their x-components (see
    :class:`repro.identification.census.CensusMatcher`): workers verify the
    ball-local x-component, the coordinator applies the global half at
    assembly time, so free-pattern verdicts never depend on the partitioning.
    """

    solver_cls: type
    config: EIPConfig
    rules: tuple[GPAR, ...]
    max_radius: int
    predicate: object
    census: tuple = ()  # ((pattern, x_part), ...)


def verify_worker(context: WorkerContext, payload: VerifyPayload) -> Verdicts:
    """BSP worker function: verify one fragment's owned candidates."""
    solver = payload.solver_cls(payload.config)
    # Kept as long as the pool, which outlives the call: keyed by what the
    # matcher is built from, so calls that differ in η share one.
    matcher = context.cached(
        ("eip-matcher", payload.solver_cls, payload.max_radius),
        lambda: solver._make_matcher(payload.max_radius),
    )
    if payload.census:
        matcher = CensusMatcher(matcher, dict(payload.census))
    fragment = context.fragment
    return solver._verify_fragment(
        fragment.graph, fragment.owned_centers, payload.rules, matcher, payload.predicate
    )


class MatchC:
    """Parallel EIP solver without the Section 5.2 optimisations."""

    #: Whether this solver's matcher probes the fragments' *resident*
    #: structure.  MatchC searches exclusively inside extracted d-balls,
    #: which are transient and never compiled, so building the per-fragment
    #: structures would be pure overhead; Match and DisVF2 run directly on
    #: the fragment graphs and override this to ``True``.
    _consumes_resident = False

    def __init__(self, config: EIPConfig) -> None:
        self.config = config

    # -- hooks overridden by Match / DisVF2 --------------------------------
    def _make_matcher(self, max_radius: int) -> Matcher:
        """Anchored matcher used per fragment (plain VF2 inside the d-ball)."""
        return LocalityMatcher(VF2Matcher(), radius=max_radius)

    def _verify_fragment(
        self,
        graph: Graph,
        centres,
        rules: Sequence[GPAR],
        matcher: Matcher,
        predicate,
    ) -> Verdicts:
        """Verify every one of *centres* in *graph* against every rule."""
        report, owned = Verdicts.start(graph, centres, predicate)
        local_positives = report.positives

        for rule in rules:
            rule_matches: set[NodeId] = set()
            antecedent_matches: set[NodeId] = set()
            for candidate in owned:
                report.candidates_examined += 1
                in_antecedent = matcher.exists_match_at(graph, rule.antecedent, candidate)
                if not in_antecedent:
                    continue
                antecedent_matches.add(candidate)
                if candidate in local_positives and matcher.exists_match_at(
                    graph, rule.pr_pattern(), candidate
                ):
                    rule_matches.add(candidate)
            report.rule_matches[rule] = rule_matches
            report.antecedent_sets[rule] = antecedent_matches
        return report

    # ----------------------------------------------------------------------
    def identify(self, graph: Graph, rules: Sequence[GPAR]) -> EIPResult:
        """Compute ``Σ(x, G, η)`` on *graph*."""
        representative = _shared_predicate(rules)
        predicate = representative.q_pattern()
        # Disconnected rules split: workers verify the connected x-component
        # inside its ball, the coordinator resolves the free part globally
        # (apply_census below) so the answer matches whole-graph semantics
        # regardless of how G was fragmented.
        census_plan = plan_census(rules)
        # Fragments must preserve a ball large enough to verify both PR and
        # the antecedent Q at every owned candidate.
        max_radius = max_verification_radius(rules, census_plan)

        x_label, workers, seed = representative.x_label, self.config.num_workers, self.config.seed
        with span("eip.partition", workers=workers) as trace:
            fragments, reused = shared_fragments(
                graph,
                (x_label, workers, max_radius, seed),
                lambda: partition_graph(
                    graph, workers, graph.nodes_with_label(x_label), d=max_radius, seed=seed
                ),
            )
            trace.set(reused=reused, centers=sum(len(f.owned_centers) for f in fragments))
            if self._consumes_resident:
                # Compiled here, once per fragmentation: a forked pool worker
                # inherits the views, so only a spawned one compiles its own.
                for fragment in fragments:
                    columnar_view(fragment.graph)
        executor = fragments.pool.lease(
            self.config.backend, self.config.executor_workers, self._consumes_resident
        )
        runtime = BSPRuntime(fragments, executor)

        payload = VerifyPayload(
            solver_cls=type(self),
            config=self.config,
            rules=tuple(rules),
            max_radius=max_radius,
            predicate=predicate,
            census=census_plan.substitutions,
        )
        failed = True
        try:
            runtime.start_run()
            with span("eip.verify", rules=len(rules), backend=self.config.backend):
                reports = runtime.run_round(verify_worker, [payload] * len(fragments))
            with span("eip.assemble"):
                reports = apply_census(graph, rules, reports, census_plan)
                # Assemble inside the timed window so wall_time keeps covering
                # the coordinator's assembling phase, as it always has.
                result = assemble(rules, reports, self.config.eta)
            failed = False
        finally:
            timings = runtime.finish_run()
            # A run that raised retires the pool: the next call forks anew.
            fragments.pool.release(executor, failed)
        result.timings = timings
        return result
