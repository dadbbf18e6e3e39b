"""Differential oracle: maintained streaming state vs fresh recomputes.

The oracle's contract (see ``docs/adversarial.md``): after **every** update
batch, on every configured backend,

* a :class:`~repro.stream.StreamingIdentifier` maintained across the
  batches must report an :func:`eip_fingerprint` byte-identical to
  ``identify_entities`` re-run from scratch on a pristine copy of the
  mutated graph, and
* the per-rule antecedent match sets that identifier serves
  (:func:`served_antecedent_sets`) must equal, for every rule of Σ, the
  x-labelled nodes where the naive
  :class:`~repro.testing.reference.ReferenceMatcher` finds the antecedent
  on the live graph.

Any exception raised by the maintained side is itself a divergence
(``component="error"``) — a streaming path that rejects a workload the
static path accepts is exactly the kind of semantics gap this harness
exists to catch.  The oracle reports the **first** divergence per backend
and keeps backends independent (each gets its own graph copy), so a
reported batch index is the true minimal failing prefix for that backend.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.graph.graph import Graph
from repro.identification import identify_entities
from repro.identification.census import CensusMatcher, apply_census
from repro.identification.eip import EIPConfig, EIPResult
from repro.metrics.lcwa import predicate_stats_over
from repro.pattern.gpar import GPAR
from repro.stream import StreamingIdentifier, StreamUpdateReport, UpdateBatch
from repro.testing.reference import ReferenceMatcher, reference_recheck

#: batch_index used for the pre-batch (initial assembly) check.
INITIAL = -1


def eip_fingerprint(result: EIPResult) -> tuple:
    """Order-independent identity of an EIP answer (entities, confidences,
    per-rule match sets) — two results with equal fingerprints answer every
    query of the serving layer identically."""
    return (
        tuple(sorted(str(node) for node in result.identified)),
        tuple(
            sorted(
                (rule.name, round(confidence, 9))
                for rule, confidence in result.rule_confidences.items()
            )
        ),
        tuple(
            sorted(
                (rule.name, tuple(sorted(str(node) for node in matches)))
                for rule, matches in result.rule_matches.items()
            )
        ),
    )


def served_antecedent_sets(identifier: StreamingIdentifier) -> dict[GPAR, frozenset]:
    """Every rule's antecedent match set ``Q(x, G)`` as *identifier* serves it.

    The stored reports hold x-part verdicts; ``apply_census`` — the step
    ``_assemble`` runs on every read of ``identifier.result`` — rewrites them
    to whole-graph verdicts.
    """
    identifier.check_current()
    reports = apply_census(
        identifier.graph,
        identifier.rules,
        list(identifier._reports.values()),
        identifier._census_plan,
    )
    return {
        rule: frozenset().union(*(report.antecedent_sets.get(rule, ()) for report in reports))
        for rule in identifier.rules
    }


def _verdicts(identifier: StreamingIdentifier, truth: bool) -> set:
    """The verdicts that hold, one ``(fragment, kind, which, centre)`` fact
    each: kind 0 / 1 for rule *which*'s antecedent / PR, ``"lcwa"`` for the
    class ``"+"`` / ``"-"``.  Stored, or with *truth* decided afresh for
    every owned centre by the :class:`ReferenceMatcher` on the whole graph
    (census-split rules store their x-part's verdicts)."""
    graph, facts = identifier.graph, set()
    probe = CensusMatcher(ReferenceMatcher(), dict(identifier._census_pairs)).exists_match_at
    for index, stored in identifier._reports.items():
        if truth:
            owned = identifier.manager.owned_centers(index)
            stats = predicate_stats_over(graph, identifier.predicate, owned)
            classes = {"+": stats.positives, "-": stats.negatives}
            sides = [
                (
                    {center for center in owned if probe(graph, rule.antecedent, center)},
                    {center for center in stats.positives if probe(graph, rule.pr_pattern(), center)},
                )
                for rule in identifier.rules
            ]
        else:
            classes = {"+": stored.positives, "-": stored.negatives}
            sides = [(stored.antecedent_sets.get(rule, ()), stored.rule_matches.get(rule, ())) for rule in identifier.rules]
        facts.update((index, "lcwa", sign, center) for sign, centres in classes.items() for center in centres)
        for which, pair in enumerate(sides):
            facts.update((index, kind, which, center) for kind, centres in enumerate(pair) for center in centres)
    return facts


def apply_with_coverage(
    identifier: StreamingIdentifier, batch: UpdateBatch
) -> tuple[StreamUpdateReport, dict, list[str]]:
    """Apply *batch*; return the tick's report, its recheck pairs (per
    fragment, as its verification round was given them) and what it got
    wrong.

    Wrong is: a verdict that changed (stored before the tick against the
    reference after it) at a centre still owned, whose pair — for an LCWA
    class, whose centre — the tick did not re-verify; a stored verdict
    differing from the reference afterwards; a re-verified centre beyond
    :func:`reference_recheck`.
    """
    before = _verdicts(identifier, truth=False)
    pairs: dict = {}
    planned = identifier._recheck_pairs

    def capture(delta, plan) -> dict:
        pairs.update(planned(delta, plan))
        return pairs

    identifier._recheck_pairs = capture  # shadows the method for this one tick
    try:
        report = identifier.apply(batch)
    finally:
        del identifier._recheck_pairs
    truth = _verdicts(identifier, truth=True)
    problems = [
        f"stored verdict differs from the reference: {fact}"
        for fact in sorted(_verdicts(identifier, truth=False) ^ truth, key=str)
    ]
    region = reference_recheck(identifier, report.delta)
    changed = sorted(before ^ truth, key=str)
    for index, (antecedents, prs, classify) in pairs.items():
        verified = set(classify).union(*antecedents.values(), *prs.values())
        owned = identifier.manager.owned_centers(index)
        problems += [f"re-verified centre {center!r} beyond d hops" for center in verified - region[index]]
        for fact in changed:
            fragment, kind, which, center = fact
            rechecked = verified if kind == "lcwa" else (antecedents, prs)[kind].get(which, ())
            if fragment == index and center in owned and center not in rechecked:
                problems.append(f"changed verdict outside the tick's recheck pairs: {fact}")
    return report, pairs, problems


@dataclass(frozen=True)
class Divergence:
    """First observed disagreement between maintained and fresh state."""

    batch_index: int  #: batch after which it surfaced (-1 = initial state)
    component: str  #: "identifier", "matches", "coverage" or "error"
    backend: str
    detail: str
    expected: object = None  #: fresh-recompute side (fingerprint / sets)
    actual: object = None  #: maintained side

    def describe(self) -> str:
        where = "initial state" if self.batch_index == INITIAL else f"batch {self.batch_index}"
        return f"[{self.component}] {where} on backend={self.backend}: {self.detail}"


@dataclass
class OracleReport:
    """Outcome of one :meth:`DifferentialOracle.run`."""

    divergences: list[Divergence] = field(default_factory=list)
    batches_checked: int = 0
    combos_run: int = 0
    checks: int = 0  #: individual maintained-vs-fresh comparisons
    #: Distinct identified sets the identifier check compared: one empty set
    #: means every such comparison was vacuous, one set that none changed.
    answers: set = field(default_factory=set)
    #: Distinct served antecedent match sets (all of Σ at once) the matches
    #: check compared, read the same way.
    match_answers: set = field(default_factory=set)
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.divergences

    @property
    def checks_per_second(self) -> float:
        return self.checks / self.wall_time if self.wall_time > 0 else 0.0


class DifferentialOracle:
    """Run maintained streaming state against fresh recomputes.

    Parameters
    ----------
    rules:
        The Σ under test.
    eta, num_workers, seed:
        Forwarded to both the maintained identifier and the fresh
        ``identify_entities`` runs (the two sides must answer the same
        question; both run ``Match``).
    backends:
        The streaming backends to exercise; the fresh side always
        recomputes sequentially on a pristine graph copy.
    """

    def __init__(
        self,
        rules: Sequence[GPAR],
        eta: float = 0.5,
        num_workers: int = 2,
        seed: int = 0,
        backends: Sequence[str] = ("sequential",),
    ) -> None:
        self.rules = tuple(rules)
        self.eta = eta
        self.num_workers = num_workers
        self.seed = seed
        self.backends = tuple(backends)

    # -- configuration ----------------------------------------------------
    def narrowed(self, divergence: Divergence) -> "DifferentialOracle":
        """A single-backend oracle replaying *divergence*'s config — what
        the distiller iterates with."""
        return DifferentialOracle(
            self.rules,
            eta=self.eta,
            num_workers=self.num_workers,
            seed=self.seed,
            backends=(divergence.backend,),
        )

    def checker_for(self, divergence: Divergence):
        """A distillation predicate pinned to *divergence*.

        Replays only the failing backend and only accepts a failure of
        the same ``component`` — delta debugging must shrink towards the
        *original* bug, not towards whatever new failure (e.g. an op made
        invalid by dropping its predecessor) a reduction introduces.
        """
        oracle = self.narrowed(divergence)

        def check(graph: Graph, batches: Sequence[UpdateBatch]) -> Divergence | None:
            found = oracle.check(graph, batches)
            if found is not None and found.component == divergence.component:
                return found
            return None

        return check

    def _config(self, backend: str) -> EIPConfig:
        return EIPConfig(
            eta=self.eta, num_workers=self.num_workers, seed=self.seed, backend=backend
        )

    # -- fresh side -------------------------------------------------------
    def _fresh_result(self, graph: Graph) -> EIPResult:
        return identify_entities(
            graph.copy(),
            list(self.rules),
            eta=self.eta,
            num_workers=self.num_workers,
            seed=self.seed,
        )

    # -- the run ----------------------------------------------------------
    def run(
        self,
        graph: Graph,
        batches: Sequence[UpdateBatch],
        stop_at_first: bool = False,
    ) -> OracleReport:
        """Replay *batches* on every backend; report first divergences.

        *graph* itself is never mutated — every backend maintains its own
        copy.  With ``stop_at_first`` the run short-circuits at the
        first divergence found (the distiller's mode).
        """
        report = OracleReport()
        started = time.perf_counter()
        for backend in self.backends:
            report.combos_run += 1
            divergence = self._run_combo(graph, batches, backend, report)
            if divergence is not None:
                report.divergences.append(divergence)
                if stop_at_first:
                    report.wall_time = time.perf_counter() - started
                    return report
        report.batches_checked = len(batches)
        report.wall_time = time.perf_counter() - started
        return report

    def check(self, graph: Graph, batches: Sequence[UpdateBatch]) -> Divergence | None:
        """First divergence on the configured backends, or ``None`` — the
        predicate the distiller shrinks against."""
        report = self.run(graph, batches, stop_at_first=True)
        return report.divergences[0] if report.divergences else None

    # ------------------------------------------------------------------
    def _run_combo(
        self,
        graph: Graph,
        batches: Sequence[UpdateBatch],
        backend: str,
        report: OracleReport,
    ) -> Divergence | None:
        live = graph.copy()
        mark = lambda **kw: Divergence(backend=backend, **kw)  # noqa: E731
        try:
            identifier = StreamingIdentifier(
                live,
                list(self.rules),
                config=self._config(backend),
            )
        except Exception as error:  # semantics gap: streaming rejects Σ
            return mark(
                batch_index=INITIAL,
                component="error",
                detail=f"StreamingIdentifier rejected the workload: {error}",
                actual=repr(error),
            )
        try:
            divergence = self._compare(identifier, INITIAL, mark, report)
            if divergence is not None:
                return divergence
            for index, batch in enumerate(batches):
                try:
                    _report, _pairs, problems = apply_with_coverage(identifier, batch)
                except Exception as error:
                    return mark(
                        batch_index=index,
                        component="error",
                        detail=f"maintenance raised while applying the batch: {error}",
                        actual=repr(error),
                    )
                divergence = self._compare(identifier, index, mark, report)
                if divergence is not None:
                    return divergence
                report.checks += 1
                if problems:
                    return mark(
                        batch_index=index,
                        component="coverage",
                        detail=problems[0],
                        actual=tuple(problems),
                    )
        finally:
            identifier.close()
        return None

    def _compare(
        self, identifier, batch_index: int, mark, report: OracleReport
    ) -> Divergence | None:
        graph = identifier.graph
        maintained = eip_fingerprint(identifier.result)
        fresh = eip_fingerprint(self._fresh_result(graph))
        report.checks += 1
        report.answers.add(fresh[0])
        if maintained != fresh:
            return mark(
                batch_index=batch_index,
                component="identifier",
                detail="maintained EIP result differs from a fresh recompute",
                expected=fresh,
                actual=maintained,
            )
        served = served_antecedent_sets(identifier)
        reference = ReferenceMatcher()
        for rule, kept in served.items():
            report.checks += 1
            truth = frozenset(reference.match_set(graph, rule.antecedent))
            if kept != truth:
                return mark(
                    batch_index=batch_index,
                    component="matches",
                    detail=(
                        "served antecedent match set differs from the reference "
                        f"for rule {rule.name!r}"
                    ),
                    expected=tuple(sorted(map(str, truth))),
                    actual=tuple(sorted(map(str, kept))),
                )
        report.match_answers.add(
            tuple(sorted((rule.name, tuple(sorted(map(str, found)))) for rule, found in served.items()))
        )
        return None


# ----------------------------------------------------------------------
# Multi-tenant checker
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TenantDivergence:
    """A tenant's projected answer disagreeing with its independent run."""

    batch_index: int  #: batch after which it surfaced (-1 = initial state)
    tenant: str  #: "*" for failures not attributable to one tenant
    backend: str
    detail: str
    expected: object = None  #: independent ``identify_entities`` fingerprint
    actual: object = None  #: shared-core projection fingerprint

    def describe(self) -> str:
        where = "initial state" if self.batch_index == INITIAL else f"batch {self.batch_index}"
        return f"[tenant {self.tenant}] {where} on backend={self.backend}: {self.detail}"


def multi_tenant_check(
    graph: Graph,
    tenants: Mapping[str, Sequence[GPAR]],
    batches: Sequence[UpdateBatch],
    *,
    eta: float = 0.5,
    num_workers: int = 2,
    seed: int = 0,
    backends: Sequence[str] = ("sequential",),
    radius_floor: int = 0,
) -> list[TenantDivergence]:
    """Cross-Σ correctness: shared-core projections vs independent runs.

    For every backend, admits every tenant into
    one :class:`~repro.api.SharedSessionCore` over a copy of *graph*,
    then — initially and after **each** batch — asserts every tenant's
    :meth:`~repro.api.SharedSessionCore.result_for` projection is
    :func:`eip_fingerprint`-identical to an
    independent ``identify_entities`` run with that tenant's rules on the
    same (mutated) graph.  Backends stay independent (own graph copy); the
    first divergence per backend is reported, one entry per backend at most,
    and an empty list means the shared substrate is answer-preserving on
    all of them.
    """
    from repro.api import SharedSessionCore

    divergences: list[TenantDivergence] = []
    for backend in backends:
        config = EIPConfig(eta=eta, num_workers=num_workers, seed=seed, backend=backend)
        mark = lambda **kw: TenantDivergence(backend=backend, **kw)  # noqa: E731
        core = SharedSessionCore(graph.copy(), config=config, radius_floor=radius_floor)
        try:
            divergence = _run_tenant_combo(core, tenants, batches, mark)
        finally:
            core.close()
        if divergence is not None:
            divergences.append(divergence)
    return divergences


def _run_tenant_combo(
    core,
    tenants: Mapping[str, Sequence[GPAR]],
    batches: Sequence[UpdateBatch],
    mark,
) -> TenantDivergence | None:
    try:
        for tenant, rules in tenants.items():
            core.admit(tenant, tuple(rules))
    except Exception as error:  # semantics gap: shared core rejects a Σ
        return mark(
            batch_index=INITIAL,
            tenant="*",
            detail=f"admission rejected a tenant rule set: {error}",
            actual=repr(error),
        )
    divergence = _compare_tenants(core, INITIAL, mark)
    if divergence is not None:
        return divergence
    for index, batch in enumerate(batches):
        try:
            core.apply(batch)
        except Exception as error:
            return mark(
                batch_index=index,
                tenant="*",
                detail=f"shared core raised while applying the batch: {error}",
                actual=repr(error),
            )
        divergence = _compare_tenants(core, index, mark)
        if divergence is not None:
            return divergence
    return None


def _compare_tenants(core, batch_index: int, mark) -> TenantDivergence | None:
    for tenant, session in core.sessions.items():
        projected = eip_fingerprint(core.result_for(tenant))
        fresh = eip_fingerprint(session.recompute())
        if projected != fresh:
            return mark(
                batch_index=batch_index,
                tenant=tenant,
                detail="shared-core projection differs from an independent run",
                expected=fresh,
                actual=projected,
            )
    return None


__all__ = [
    "Divergence",
    "DifferentialOracle",
    "OracleReport",
    "TenantDivergence",
    "eip_fingerprint",
    "multi_tenant_check",
    "served_antecedent_sets",
    "INITIAL",
]
