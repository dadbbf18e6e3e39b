"""One public entry layer over mining, identification and streaming.

Before this module the repository had three ad-hoc entry paths — the CLI's
``_cmd_mine`` / ``_cmd_identify`` / ``_cmd_stream`` each assembled its own
flags into its own calls, and long-lived use meant driving a
:class:`~repro.stream.StreamingIdentifier` by hand.  :mod:`repro.api` is the
single facade both the CLI and the HTTP service (:mod:`repro.serve`) consume:

* :func:`mine` / :func:`identify` — one-shot runs from **explicit** config
  objects (:class:`~repro.mining.DMineConfig`,
  :class:`~repro.identification.eip.EIPConfig`);
* :func:`open_shared_core` — a resident :class:`SharedSessionCore` over one
  graph that admits any number of rule sets Σ as tenant :class:`Session`
  objects, verifying the union of their distinct canonical antecedents in
  one :class:`~repro.stream.StreamingIdentifier`; :func:`open_session` is
  the k = 1 convenience (a private core with one tenant).  There is one
  session shape, with the concurrency contract a serving layer needs:

  - **updates serialize** — :meth:`SharedSessionCore.apply` (and
    :meth:`Session.apply`, its shorthand) queues writers on the core's one
    lock, which also covers admission, eviction, checkpoint and close; a
    write ticks the graph once and publishes to every member (the
    identifier itself rejects true re-entrancy with
    :class:`~repro.exceptions.StreamError`);
  - **reads never block** — :meth:`Session.answer` pages over immutable
    snapshots pinned to the ``Graph.version`` they were assembled at, and
    ``Session.rules`` is a stored tuple, so a reader paginating (or a
    status request) while a batch applies sees one consistent version
    throughout and never waits on the tick;
  - **answers are a feed** — every tick's :class:`SessionDelta` (per-rule
    entities that entered/left the match set, plus the identified-set
    delta) is retained in a bounded history that :meth:`Session.deltas`
    and the server's subscription endpoint replay;
  - **cores are durable** — :meth:`SharedSessionCore.save_state` checkpoints
    the core with its tenant table and :func:`restore_core` resumes it
    (docs/streaming.md).

The snapshot/delta histories hold references to the immutable per-tick
``EIPResult`` objects (each projection assembles a fresh one per tick), so
retention costs the answer sets, not graph copies.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Hashable, Mapping, Sequence

from repro.exceptions import StreamError
from repro.graph.graph import Graph
from repro.identification.census import apply_census, plan_census
from repro.identification.eip import (
    AnswerPage,
    EIPConfig,
    EIPResult,
    _decode_cursor,
    _encode_cursor,
    solver_class,
)
from repro.identification.matchc import _FragmentReport
from repro.matching.shared import SharedPatternPool
from repro.mining.config import DMineConfig
from repro.mining.dmine import DMine, DMineResult
from repro.obs.registry import registry
from repro.pattern.gpar import GPAR
from repro.pattern.pattern import Pattern
from repro.stream.identifier import (
    StreamingIdentifier,
    StreamUpdateReport,
    read_checkpoint,
    write_checkpoint,
)
from repro.stream.multitenant import TenantAdmission
from repro.stream.updates import UpdateBatch

NodeId = Hashable

__all__ = [
    "Session",
    "SessionDelta",
    "SessionSnapshot",
    "SharedSessionCore",
    "SnapshotExpired",
    "identify",
    "mine",
    "open_session",
    "open_shared_core",
    "parse_predicate",
    "restore_core",
]

#: How many (snapshot, delta) ticks a session retains for paginating readers
#: and catching-up subscribers before evicting the oldest.
SESSION_HISTORY_LIMIT = 64

#: Tenant name of a session opened through :func:`open_session` without one.
DEFAULT_TENANT = "default"


class SnapshotExpired(StreamError):
    """A reader asked for a snapshot/delta range the session has evicted.

    Carries the oldest version still retained so the caller can resync
    (restart pagination, or take a fresh full answer) instead of guessing.
    """

    def __init__(self, requested_version: int, oldest_retained: int):
        super().__init__(requested_version, oldest_retained)
        self.requested_version = requested_version
        self.oldest_retained = oldest_retained

    def __str__(self) -> str:
        return (
            f"snapshot for graph version {self.requested_version} has been "
            f"evicted (oldest retained: {self.oldest_retained}); restart "
            "from the current answer"
        )


# ----------------------------------------------------------------------
# one-shot facades
# ----------------------------------------------------------------------
def parse_predicate(text: str) -> Pattern:
    """Parse ``X_LABEL:EDGE_LABEL:Y_LABEL`` into a single-edge predicate.

    The textual predicate form shared by the CLI and the HTTP service.
    """
    from repro.pattern.pattern import PatternEdge

    parts = text.split(":")
    if len(parts) != 3 or not all(parts):
        raise ValueError(
            f"predicate must look like 'x_label:edge_label:y_label', got {text!r}"
        )
    x_label, edge_label, y_label = parts
    return Pattern(
        nodes={"x": x_label, "y": y_label},
        edges=[PatternEdge("x", "y", edge_label)],
        x="x",
        y="y",
    )


def mine(graph: Graph, predicate: Pattern, config: DMineConfig | None = None) -> DMineResult:
    """Run DMine on *graph* for *predicate* with an explicit config object."""
    return DMine(config if config is not None else DMineConfig()).mine(graph, predicate)


def identify(
    graph: Graph,
    rules: Sequence[GPAR],
    config: EIPConfig | None = None,
    algorithm: str = "match",
) -> EIPResult:
    """Solve EIP on *graph* with an explicit config object.

    *algorithm* names a batch solver of :func:`repro.identification.solver_class`
    (``match`` / ``matchc`` / ``disvf2``); unlike the legacy
    :func:`~repro.identification.identify_entities`, the configuration arrives
    as one :class:`EIPConfig` instead of a parameter list.
    """
    solver = solver_class(algorithm)
    return solver(config if config is not None else EIPConfig()).identify(graph, list(rules))


# ----------------------------------------------------------------------
# sessions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SessionSnapshot:
    """One immutable (graph version, assembled answer) pair."""

    version: int
    result: EIPResult


@dataclass(frozen=True)
class SessionDelta:
    """What one update tick changed in the maintained answer.

    ``rule_entered`` / ``rule_left`` map rule **names** to the entities
    that entered/left that rule's match set between ``base_version`` and
    ``version``; ``identified_entered`` / ``identified_left`` are the same
    diff on the overall identified-entity answer.  Equal by construction to
    the set-difference of from-scratch recomputes before and after the
    batch (the property the serve tests and the repo benchmark check).
    """

    version: int
    base_version: int
    rule_entered: Mapping[str, frozenset]
    rule_left: Mapping[str, frozenset]
    identified_entered: frozenset
    identified_left: frozenset
    report: StreamUpdateReport | None = field(default=None, compare=False)

    def as_dict(self) -> dict:
        """JSON-friendly form (entities rendered as sorted strings)."""
        return {
            "version": self.version,
            "base_version": self.base_version,
            "rules": {
                name: {
                    "entered": sorted(map(str, self.rule_entered.get(name, ()))),
                    "left": sorted(map(str, self.rule_left.get(name, ()))),
                }
                for name in sorted(set(self.rule_entered) | set(self.rule_left))
            },
            "identified_entered": sorted(map(str, self.identified_entered)),
            "identified_left": sorted(map(str, self.identified_left)),
        }


def diff_results(before: EIPResult, after: EIPResult, base_version: int, version: int) -> SessionDelta:
    """The per-rule and identified-set difference between two EIP answers.

    Works on any two results over the same Σ — the session uses it between
    consecutive maintained ticks, and the equivalence gates use it between
    from-scratch recomputes to check the subscription feed tells the truth.
    """
    names_before = {rule.name: matches for rule, matches in before.rule_matches.items()}
    names_after = {rule.name: matches for rule, matches in after.rule_matches.items()}
    entered: dict[str, frozenset] = {}
    left: dict[str, frozenset] = {}
    for name in sorted(set(names_before) | set(names_after)):
        old = names_before.get(name, frozenset())
        new = names_after.get(name, frozenset())
        gained = frozenset(new - old)
        lost = frozenset(old - new)
        if gained:
            entered[name] = gained
        if lost:
            left[name] = lost
    return SessionDelta(
        version=version,
        base_version=base_version,
        rule_entered=entered,
        rule_left=left,
        identified_entered=frozenset(after.identified - before.identified),
        identified_left=frozenset(before.identified - after.identified),
    )


class Session:
    """One tenant's resident EIP answer on a :class:`SharedSessionCore`.

    Every session is a tenant of a core (a solo session is the only tenant
    of a private one, see :func:`open_session`) and is the core's tenant
    table entry: it carries the tenant's :class:`~repro.stream.TenantAdmission`,
    the pool representative each rule reads its verdicts from and the
    tenant's census plan.  The session owns the *read* side — its immutable
    ``rules``, the bounded snapshot/delta histories, pagination and the
    long-poll primitive — and reads each tick's answer from
    ``core.result_for(tenant)``; the write side (:meth:`apply`,
    :meth:`close`) is the core's, so nothing a reader touches ever waits on
    a tick.  Obtain one through :func:`open_session` or
    :meth:`SharedSessionCore.open_session`; use as a context manager or call
    :meth:`close`.
    """

    def __init__(
        self,
        core: "SharedSessionCore",
        admission: TenantAdmission,
        representatives: Mapping[GPAR, GPAR],
        history_limit: int = SESSION_HISTORY_LIMIT,
    ) -> None:
        self._core = core
        self.tenant = admission.tenant
        #: What admitting this tenant cost (:class:`~repro.stream.TenantAdmission`).
        self.admission = admission
        #: This tenant's Σ — a stored tuple, so reading it never takes a lock.
        self.rules: tuple[GPAR, ...] = admission.rules
        self._representatives = dict(representatives)
        self._census_plan = plan_census(self.rules)
        #: Pinned for the core's lifetime (admissions never widen the radius).
        self.max_radius = core.identifier.max_radius
        self._history_limit = history_limit
        self._state_lock = threading.Lock()  # guards the histories (briefly)
        self._tick_condition = threading.Condition(self._state_lock)
        self._snapshots: OrderedDict[int, SessionSnapshot] = OrderedDict()
        self._deltas: OrderedDict[int, SessionDelta] = OrderedDict()
        version = core.graph.version
        self._snapshots[version] = SessionSnapshot(version, core._project(self))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def core(self) -> "SharedSessionCore":
        """The core this session is a tenant of (owns writes and durability)."""
        return self._core

    @property
    def graph_version(self) -> int:
        """Version of the newest assembled snapshot (never a torn mid-apply view)."""
        with self._state_lock:
            return next(reversed(self._snapshots))

    @property
    def oldest_retained_version(self) -> int:
        """Version of the oldest retained snapshot (the resync horizon)."""
        with self._state_lock:
            return next(iter(self._snapshots))

    @property
    def result(self) -> EIPResult:
        """The newest assembled answer (immutable; safe to read concurrently)."""
        with self._state_lock:
            return self._snapshots[next(reversed(self._snapshots))].result

    def snapshot(self, version: int | None = None) -> SessionSnapshot:
        """The retained snapshot at *version* (newest when ``None``).

        Raises :class:`SnapshotExpired` when the version has been evicted
        from the bounded history.
        """
        with self._state_lock:
            if version is None:
                version = next(reversed(self._snapshots))
            found = self._snapshots.get(version)
            if found is None:
                raise SnapshotExpired(version, next(iter(self._snapshots)))
            return found

    # ------------------------------------------------------------------
    # reads: paginated answers pinned to one version
    # ------------------------------------------------------------------
    def answer(self, cursor: str | None = None, limit: int = 100) -> tuple[AnswerPage, int]:
        """One page of the answer plus the ``Graph.version`` it reflects.

        The first call (no cursor) pages the newest snapshot; the returned
        cursor pins that snapshot's version, so every later page of the
        same pagination reads the same immutable result even while update
        batches tick the session forward.  Raises :class:`SnapshotExpired`
        once the pinned snapshot falls out of the bounded history.
        """
        if cursor is None:
            pinned = self.snapshot()
            inner = None
        else:
            version, inner = _decode_cursor(cursor, (int,), (str, type(None)))
            pinned = self.snapshot(version)
        page = pinned.result.pages(cursor=inner, limit=limit)
        if page.next_cursor is not None:
            page = AnswerPage(
                entries=page.entries,
                next_cursor=_encode_cursor([pinned.version, page.next_cursor]),
                total=page.total,
            )
        return page, pinned.version

    # ------------------------------------------------------------------
    # writes: the core's
    # ------------------------------------------------------------------
    def apply(self, batch: UpdateBatch) -> tuple[StreamUpdateReport, SessionDelta]:
        """Apply one update batch as a tick; returns (report, this session's delta).

        Shorthand for ``core.apply(batch, origin=self)``: the batch ticks
        the core's graph **once**, every member session publishes its own
        projected delta, and concurrent writers queue on the core's
        lock.  Raises :class:`StreamError` — touching nothing — once this
        session is closed.
        """
        return self._core.apply(batch, origin=self)

    def _publish_tick(self, report: StreamUpdateReport) -> SessionDelta:
        """Project and publish the tick the core just applied.

        The caller holds the core's lock.
        """
        before = self.snapshot()
        version = self._core.graph.version
        result = self._core.result_for(self.tenant)
        delta = replace(
            diff_results(before.result, result, before.version, version),
            report=report,
        )
        with self._tick_condition:
            self._snapshots[version] = SessionSnapshot(version, result)
            self._deltas[version] = delta
            while len(self._snapshots) > self._history_limit:
                self._snapshots.popitem(last=False)
            while len(self._deltas) > self._history_limit:
                self._deltas.popitem(last=False)
            self._tick_condition.notify_all()
        return delta

    # ------------------------------------------------------------------
    # subscriptions: the answer as a feed
    # ------------------------------------------------------------------
    def deltas(self, since_version: int) -> list[SessionDelta]:
        """Every retained tick delta strictly after *since_version*, in order.

        Raises :class:`SnapshotExpired` when *since_version* predates the
        retained history (the subscriber must resync from a fresh answer);
        returns ``[]`` when the session has not ticked past it yet.
        """
        with self._state_lock:
            ticks = [
                delta for version, delta in self._deltas.items() if version > since_version
            ]
            if ticks and ticks[0].base_version != since_version:
                # The contiguous chain from since_version is broken: the
                # subscriber missed evicted ticks.
                raise SnapshotExpired(since_version, ticks[0].base_version)
            if not ticks and self._snapshots:
                newest = next(reversed(self._snapshots))
                oldest = next(iter(self._snapshots))
                if since_version < newest and since_version < oldest:
                    raise SnapshotExpired(since_version, oldest)
            return ticks

    def wait_for_version(self, version: int, timeout: float | None = None) -> bool:
        """Block until the newest snapshot's version exceeds *version*.

        Returns ``False`` on timeout.  This is the long-poll primitive the
        HTTP subscription endpoint builds on.
        """
        with self._tick_condition:
            return self._tick_condition.wait_for(
                lambda: next(reversed(self._snapshots)) > version, timeout=timeout
            )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def recompute(self) -> EIPResult:
        """From-scratch answer on the current graph (equivalence baseline)."""
        return self._core.identifier.recompute(self.rules)

    def close(self) -> None:
        """Evict this tenant from its core; retained snapshots stay readable.

        Sibling tenants (and the verdict state they read) stay live; the
        last tenant's eviction closes the core's identifier.
        """
        self._core.close_session(self)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def _check_history_limit(history_limit: int) -> None:
    if history_limit < 1:
        raise StreamError(f"history_limit must be >= 1, got {history_limit}")


class SharedSessionCore:
    """The resident streaming core every :class:`Session` is a tenant of.

    N tenant rule sets Σ share **one** :class:`StreamingIdentifier` whose Σ
    is the union of their distinct canonical antecedents (deduplicated by
    the core's :class:`~repro.matching.SharedPatternPool`), so a tick
    verifies each touched centre once per distinct antecedent — not once
    per tenant — and each tenant's answer is a *projection* of the shared
    per-fragment verdicts:

    * admission (:meth:`open_session`) registers the tenant's Σ in the pool;
      the first tenant builds the identifier (cold full verify), a later one
      backfills only its novel keys through
      :meth:`StreamingIdentifier.admit_rules` (warm admission) and a fully
      resident Σ admits with zero verification;
    * :meth:`result_for` rebinds each tenant rule to its representative's
      witness sets, re-runs the tenant's census plan over the projected
      reports and assembles with the tenant's rules — byte-identical to an
      independent :func:`~repro.identification.eip.identify_entities` run,
      because anchored match sets are invariant under antecedent isomorphism
      that preserves the x/y designation (what canonical codes quotient by);
    * eviction (:meth:`close_session`) releases the tenant's pool references
      and retires representatives that lost their last owner, without
      touching verdicts a remaining tenant reads.

    One lock covers admission, eviction, the tick plus its publish to every
    member, checkpoint and close; the tenant table is :attr:`sessions` (each
    :class:`Session` carries its admission, representatives and census
    plan).  All tenants share the consequent predicate and the
    :class:`~repro.identification.eip.EIPConfig`.  ``radius_floor`` gives
    the pinned verification radius headroom for tenants admitted later.  :meth:`save_state`
    checkpoints the core with its tenant table, :func:`restore_core`
    resumes it.
    """

    def __init__(
        self,
        graph: Graph,
        config: EIPConfig | None = None,
        radius_floor: int = 0,
    ) -> None:
        self.graph = graph
        self.config = config if config is not None else EIPConfig()
        self.radius_floor = radius_floor
        self.pool = SharedPatternPool()
        self._identifier: StreamingIdentifier | None = None
        self._lock = threading.Lock()
        self._sessions: dict[str, Session] = {}
        self._closed = False

    @property
    def identifier(self) -> StreamingIdentifier:
        """The union streaming engine (raises while no tenant is admitted)."""
        identifier = self._identifier
        if identifier is None:
            raise StreamError("no tenant is admitted; this core maintains nothing")
        return identifier

    @property
    def sessions(self) -> dict[str, Session]:
        """The live member sessions by tenant name, in admission order."""
        with self._lock:
            return dict(self._sessions)

    def open_session(
        self,
        tenant: str,
        rules: Sequence[GPAR],
        history_limit: int = SESSION_HISTORY_LIMIT,
    ) -> Session:
        """Admit *tenant* (warm when its Σ overlaps resident Σ) as a session.

        The admission record lands on ``session.admission`` (a
        :class:`~repro.stream.TenantAdmission`) so callers can observe the
        marginal cost they paid.  A refused call admits nothing; a closed
        core refuses every call.
        """
        _check_history_limit(history_limit)
        rules = tuple(rules)
        with self._lock:
            if self._closed:
                raise StreamError("this core is closed; it admits no tenants")
            started = time.perf_counter()
            registration = self.pool.register(tenant, rules)
            novel = registration.novel
            cold = self._identifier is None
            try:
                if cold:
                    representatives = dict.fromkeys(
                        registration.representatives[rule] for rule in rules
                    )
                    self._identifier = StreamingIdentifier(
                        self.graph,
                        tuple(representatives),
                        config=self.config,
                        radius_floor=self.radius_floor,
                    )
                    backfill = len(self.graph.nodes_with_label(self._identifier.x_label))
                elif novel:
                    backfill = self._identifier.admit_rules(novel).backfill_centers
                else:
                    backfill = 0
            except BaseException:
                self.pool.release(tenant)
                raise
            admission = TenantAdmission(
                tenant=tenant,
                rules=rules,
                shared_rules=len(registration.shared),
                novel_rules=len(novel),
                shared_prefix_hits=registration.shared_prefix_hits,
                backfill_centers=backfill,
                cold_start=cold,
                wall_time=time.perf_counter() - started,
            )
            _count_admission(admission)
            session = Session(self, admission, registration.representatives, history_limit)
            self._sessions[tenant] = session
            return session

    # The benchmark's wrap table (benchmarks/e2e/wraps.py) names this entry
    # point ``MultiTenantIdentifier.admit`` too; see repro.stream.multitenant.
    admit = open_session

    def apply(
        self, batch: UpdateBatch, origin: Session | None = None
    ) -> tuple[StreamUpdateReport, SessionDelta | dict[str, SessionDelta]]:
        """Tick the core once; publish a delta to **every** member.

        One verification per distinct canonical antecedent; the verdicts fan
        out at publish time.  Returns ``(report, origin's delta)`` when
        called through a member session, or ``(report, {tenant: delta})``
        when driven directly.  An *origin* that is no longer a member
        (closed) is refused with :class:`StreamError` before the graph is
        touched, and so is any call while no tenant is admitted.
        """
        with self._lock:
            if origin is not None and self._sessions.get(origin.tenant) is not origin:
                raise StreamError(
                    f"session {origin.tenant!r} is closed; it can no longer "
                    "apply updates to its core"
                )
            identifier = self.identifier
            report = identifier.apply(batch)
            total_rules = sum(len(session.rules) for session in self._sessions.values())
            registry().inc(
                "repro_tenant_overlay_verdicts_total",
                report.rechecked_centers * max(0, total_rules - len(identifier.rules)),
                help=(
                    "Per-tenant centre verdicts served from the shared "
                    "substrate instead of being re-verified (an upper bound: "
                    "centres re-verified for some pattern x tenant rules "
                    "served by a shared one)"
                ),
            )
            deltas = {
                tenant: session._publish_tick(report)
                for tenant, session in self._sessions.items()
            }
        if origin is not None:
            return report, deltas[origin.tenant]
        return report, deltas

    def result_for(self, tenant: str) -> EIPResult:
        """The maintained answer for *tenant*'s Σ on the current graph.

        Byte-identical to an independent
        :func:`~repro.identification.eip.identify_entities` run with the
        tenant's rules.  Raises :class:`StreamError` for a non-member.
        """
        session = self._sessions.get(tenant)
        if session is None:
            raise StreamError(f"unknown tenant {tenant!r}")
        return self._project(session)

    def _project(self, session: Session) -> EIPResult:
        identifier = self.identifier
        identifier.check_current()  # the union answer itself is never assembled
        projected = _rebind(identifier._report, session.rules, session._representatives)
        reports = apply_census(self.graph, session.rules, [projected], session._census_plan)
        return identifier._solver._assemble(list(session.rules), reports)

    def save_state(self, path: Path | str) -> Path:
        """Durable checkpoint of the core and its tenant table.

        One pickle: the union engine's own checkpoint
        (:meth:`StreamingIdentifier.state_dict` — so
        :meth:`StreamingIdentifier.restore` can resume the bare engine from
        the same file) plus ``tenants`` (the admission records, which carry
        each tenant's Σ, in admission order) and ``representatives`` (the
        pool's key → representative map: a representative can outlive the
        tenant that introduced it, and the saved verdicts are keyed by it).
        Replaced atomically, like every stream-state file; resume with
        :func:`restore_core`.
        """
        with self._lock:
            state = self.identifier.state_dict()
            state["tenants"] = [session.admission for session in self._sessions.values()]
            state["representatives"] = self.pool.representatives()
            return write_checkpoint(Path(path), state)

    def close_session(self, session: Session) -> None:
        """Evict one tenant; sibling tenants' sessions stay live.

        Representatives that lost their last owner leave the identifier;
        the last tenant's eviction closes it (a later admission starts cold).
        """
        with self._lock:
            if self._sessions.get(session.tenant) is not session:
                return
            del self._sessions[session.tenant]
            retired = self.pool.release(session.tenant)
            if not self._sessions:
                self._identifier.close()
                self._identifier = None
            elif retired:
                self._identifier.retire_rules(retired)
            registry().inc(
                "repro_tenant_evictions_total", help="Tenants evicted from shared cores"
            )

    def close(self) -> None:
        """Evict every tenant and release the core; it admits no tenant again."""
        with self._lock:
            self._closed = True
            self._sessions.clear()
            if self._identifier is not None:
                self._identifier.close()
                self._identifier = None

    def __enter__(self) -> "SharedSessionCore":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def _rebind(
    stored: _FragmentReport,
    rules: tuple[GPAR, ...],
    representatives: Mapping[GPAR, GPAR],
) -> _FragmentReport:
    """Rebind the shared verdicts to a tenant's rule objects."""
    projected = _FragmentReport(
        fragment_index=stored.fragment_index,
        supp_q=stored.supp_q,
        supp_q_bar=stored.supp_q_bar,
        candidates_examined=stored.candidates_examined,
        prefix_pool_hits=stored.prefix_pool_hits,
        positives=stored.positives,
        negatives=stored.negatives,
    )
    for rule in rules:
        representative = representatives[rule]
        projected.rule_matches[rule] = stored.rule_matches.get(representative, set())
        projected.antecedent_sets[rule] = stored.antecedent_sets.get(representative, set())
        projected.antecedent_counts[rule] = stored.antecedent_counts.get(representative, 0)
        projected.qbar_counts[rule] = stored.qbar_counts.get(representative, 0)
    return projected


def _count_admission(admission: TenantAdmission) -> None:
    metrics = registry()
    metrics.inc("repro_tenant_admissions_total", help="Tenants admitted to shared cores")
    metrics.inc(
        "repro_tenant_shared_rules_total",
        admission.shared_rules,
        help="Admitted rules fully served by a resident canonical antecedent",
    )
    metrics.inc(
        "repro_tenant_novel_rules_total",
        admission.novel_rules,
        help="Admitted rules that required a backfill verification",
    )
    metrics.inc(
        "repro_tenant_shared_prefix_hits_total",
        admission.shared_prefix_hits,
        help="Antecedent prefixes already resident for another tenant",
    )
    metrics.inc(
        "repro_tenant_admission_backfill_centers_total",
        admission.backfill_centers,
        help="Centres verified during admission backfills (0 = fully warm)",
    )


def open_shared_core(
    graph: Graph,
    config: EIPConfig | None = None,
    radius_floor: int = 0,
) -> SharedSessionCore:
    """Start a resident core over *graph*; admit Σ per tenant.

    ``core.open_session(tenant, rules)`` admits each tenant's Σ, sharing
    verification across tenants by canonical antecedent
    (docs/multitenant.md).
    """
    return SharedSessionCore(graph, config=config, radius_floor=radius_floor)


def open_session(
    graph: Graph,
    rules: Sequence[GPAR],
    config: EIPConfig | None = None,
    history_limit: int = SESSION_HISTORY_LIMIT,
    tenant: str | None = None,
) -> Session:
    """Start a resident streaming session over *graph* and Σ.

    The k = 1 case of :func:`open_shared_core`: a private core with this
    session as its only tenant, so closing the session releases the core.
    Reach the core (``save_state``, further tenants) as ``session.core``.
    """
    core = SharedSessionCore(graph, config)
    try:
        return core.open_session(
            tenant if tenant is not None else DEFAULT_TENANT, rules, history_limit
        )
    except BaseException:
        core.close()
        raise


def restore_core(
    path: Path | str,
    backend: str | None = None,
    executor_workers: int | None = None,
    history_limit: int = SESSION_HISTORY_LIMIT,
) -> SharedSessionCore:
    """Resume a core checkpointed by :meth:`SharedSessionCore.save_state`.

    Every saved tenant is back as a member session (``core.sessions``)
    whose answer is byte-identical to the one checkpointed — no
    verification runs: the union engine resumes from its stored verdicts
    and each tenant re-registers against the saved representatives — with
    a fresh history starting at the saved graph version.  ``backend`` /
    ``executor_workers`` override the saved :class:`EIPConfig` (they steer
    only ``recompute``), as in
    :meth:`repro.stream.StreamingIdentifier.restore`.
    """
    _check_history_limit(history_limit)
    state = read_checkpoint(path)
    if "tenants" not in state or "representatives" not in state:
        raise StreamError(
            f"{path} checkpoints a bare StreamingIdentifier, not a shared "
            "core; resume it with StreamingIdentifier.restore"
        )
    pool = SharedPatternPool(state["representatives"])
    registrations = [
        (admission, pool.register(admission.tenant, admission.rules))
        for admission in state["tenants"]
    ]
    identifier = StreamingIdentifier.from_state(state, backend, executor_workers)
    core = SharedSessionCore(
        identifier.graph, config=identifier.config, radius_floor=identifier.radius_floor
    )
    core.pool, core._identifier = pool, identifier
    for admission, registration in registrations:
        core._sessions[admission.tenant] = Session(
            core, admission, registration.representatives, history_limit
        )
    return core
