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
  graph (a :class:`~repro.stream.MultiTenantIdentifier` underneath) that
  admits any number of rule sets Σ as tenant :class:`Session` objects;
  :func:`open_session` is the k = 1 convenience (a private core with one
  tenant).  There is one session shape, with the concurrency contract a
  serving layer needs:

  - **updates serialize** — :meth:`SharedSessionCore.apply` (and
    :meth:`Session.apply`, its shorthand) queues writers on the core's
    write lock, ticks the graph once and publishes to every member (the
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
    (docs/lifecycle.md).

The snapshot/delta histories hold references to the immutable per-tick
``EIPResult`` objects (each projection assembles a fresh one per tick), so
retention costs the answer sets, not graph copies.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Hashable, Mapping, Sequence

from repro.exceptions import StreamError
from repro.graph.graph import Graph
from repro.identification.eip import AnswerPage, EIPConfig, EIPResult, _decode_cursor, _encode_cursor
from repro.mining.config import DMineConfig
from repro.mining.dmine import DMine, DMineResult
from repro.pattern.gpar import GPAR
from repro.pattern.pattern import Pattern
from repro.stream.config import StreamConfig
from repro.stream.identifier import StreamUpdateReport
from repro.stream.multitenant import MultiTenantIdentifier
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

    The algorithm registry matches :func:`repro.identification.identify_entities`
    (``match`` / ``matchc`` / ``disvf2``); unlike that legacy wrapper, the
    configuration arrives as one :class:`EIPConfig` instead of a parameter
    list.
    """
    from repro.identification.disvf2 import DisVF2
    from repro.identification.match import Match
    from repro.identification.matchc import MatchC

    algorithms = {"match": Match, "matchc": MatchC, "disvf2": DisVF2}
    try:
        implementation = algorithms[algorithm.lower()]
    except KeyError:
        raise StreamError(
            f"unknown algorithm {algorithm!r}; expected one of {sorted(algorithms)}"
        ) from None
    return implementation(config if config is not None else EIPConfig()).identify(
        graph, list(rules)
    )


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

    @property
    def empty(self) -> bool:
        """Whether the tick changed nothing in the answer."""
        return (
            not self.identified_entered
            and not self.identified_left
            and not any(self.rule_entered.values())
            and not any(self.rule_left.values())
        )

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
    of a private one, see :func:`open_session`).  The session owns the
    *read* side — its immutable ``rules``, the bounded snapshot/delta
    histories, pagination and the long-poll primitive — and reads each
    tick's answer from ``core.multi.result_for(tenant)``; the write side
    (:meth:`apply`, :meth:`close`) is the core's, so nothing a reader
    touches ever waits on a tick.  Obtain one through :func:`open_session`
    or :meth:`SharedSessionCore.open_session`; use as a context manager or
    call :meth:`close`.
    """

    def __init__(
        self,
        core: "SharedSessionCore",
        tenant: str,
        history_limit: int = SESSION_HISTORY_LIMIT,
    ) -> None:
        if history_limit < 1:
            raise StreamError(f"history_limit must be >= 1, got {history_limit}")
        self._core = core
        self.tenant = tenant
        #: What admitting this tenant cost (:class:`~repro.stream.TenantAdmission`).
        self.admission = core.multi.admission_for(tenant)
        #: This tenant's Σ — a stored tuple, so reading it never takes a lock.
        self.rules: tuple[GPAR, ...] = self.admission.rules
        #: Pinned for the core's lifetime (admissions never widen the balls).
        self.max_radius = core.multi.identifier.max_radius
        self._history_limit = history_limit
        self._state_lock = threading.Lock()  # guards the histories (briefly)
        self._tick_condition = threading.Condition(self._state_lock)
        self._snapshots: OrderedDict[int, SessionSnapshot] = OrderedDict()
        self._deltas: OrderedDict[int, SessionDelta] = OrderedDict()
        version = core.graph.version
        self._snapshots[version] = SessionSnapshot(
            version, core.multi.result_for(tenant)
        )

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
            version, inner = _decode_cursor(cursor)
            pinned = self.snapshot(int(version))
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
        projected delta, and concurrent writers queue on the core's write
        lock.  Raises :class:`StreamError` — touching nothing — once this
        session is closed.
        """
        return self._core.apply(batch, origin=self)

    def _publish_tick(self, report: StreamUpdateReport) -> SessionDelta:
        """Project and publish the tick the core just applied.

        The caller holds the core's write lock.
        """
        before = self.snapshot()
        version = self._core.graph.version
        result = self._core.multi.result_for(self.tenant)
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
        return self._core.multi.recompute_for(self.tenant)

    def close(self) -> None:
        """Evict this tenant from its core; retained snapshots stay readable.

        Sibling tenants (and the verdict state they read) stay live; the
        last tenant's eviction releases the core's worker pool.
        """
        self._core.close_session(self)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class SharedSessionCore:
    """The resident streaming core every :class:`Session` is a tenant of.

    Owns a :class:`~repro.stream.MultiTenantIdentifier` plus the one write
    lock shared by every member: an update batch applied through *any*
    member session ticks the graph once — verifying each touched centre
    once per distinct canonical antecedent across all Σ — and then every
    member publishes its own projected snapshot/delta, so each tenant's
    subscription feed behaves exactly as if it ran alone (and with one
    tenant, it does).  Durability lives here too: :meth:`save_state`
    checkpoints the core with its tenant table, :func:`restore_core`
    resumes it.
    """

    def __init__(
        self,
        graph: Graph,
        config: EIPConfig | None = None,
        algorithm: str = "match",
        stream_config: StreamConfig | None = None,
        radius_floor: int = 0,
    ) -> None:
        self._adopt(
            MultiTenantIdentifier(
                graph,
                config=config,
                algorithm=algorithm,
                stream_config=stream_config,
                radius_floor=radius_floor,
            )
        )

    def _adopt(self, multi: MultiTenantIdentifier) -> None:
        self._multi = multi
        self._write_lock = threading.Lock()
        self._sessions: dict[str, Session] = {}

    @property
    def multi(self) -> MultiTenantIdentifier:
        return self._multi

    @property
    def graph(self) -> Graph:
        return self._multi.graph

    @property
    def sessions(self) -> dict[str, Session]:
        """The live member sessions by tenant name, in admission order."""
        with self._write_lock:
            return dict(self._sessions)

    @property
    def tenants(self) -> tuple[str, ...]:
        return tuple(self.sessions)

    def open_session(
        self,
        tenant: str,
        rules: Sequence[GPAR],
        history_limit: int = SESSION_HISTORY_LIMIT,
    ) -> Session:
        """Admit *tenant* (warm when its Σ overlaps resident Σ) as a session.

        The admission record lands on ``session.admission`` (a
        :class:`~repro.stream.TenantAdmission`) so callers can observe the
        marginal cost they paid.
        """
        with self._write_lock:
            self._multi.admit(tenant, tuple(rules))
            session = Session(self, tenant, history_limit)
            self._sessions[tenant] = session
            return session

    def apply(
        self, batch: UpdateBatch, origin: Session | None = None
    ) -> tuple[StreamUpdateReport, SessionDelta | dict[str, SessionDelta]]:
        """Tick the core once; publish a delta to **every** member.

        Returns ``(report, origin's delta)`` when called through a member
        session, or ``(report, {tenant: delta})`` when driven directly.  An
        *origin* that is no longer a member (closed) is refused with
        :class:`StreamError` before the graph is touched.
        """
        with self._write_lock:
            if origin is not None and self._sessions.get(origin.tenant) is not origin:
                raise StreamError(
                    f"session {origin.tenant!r} is closed; it can no longer "
                    "apply updates to its core"
                )
            report = self._multi.apply(batch)
            deltas = {
                tenant: session._publish_tick(report)
                for tenant, session in self._sessions.items()
            }
        if origin is not None:
            return report, deltas[origin.tenant]
        return report, deltas

    def save_state(self, path: Path | str | None = None) -> Path:
        """Durable checkpoint of the core and its tenant table.

        See :meth:`repro.stream.MultiTenantIdentifier.save_state`; resume
        with :func:`restore_core`.
        """
        with self._write_lock:
            return self._multi.save_state(path)

    def close_session(self, session: Session) -> None:
        """Evict one tenant; sibling tenants' sessions stay live."""
        with self._write_lock:
            if self._sessions.get(session.tenant) is session:
                del self._sessions[session.tenant]
                self._multi.evict(session.tenant)

    def close(self) -> None:
        """Evict every tenant and release the core."""
        with self._write_lock:
            self._sessions.clear()
        self._multi.close()

    def __enter__(self) -> "SharedSessionCore":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def open_shared_core(
    graph: Graph,
    config: EIPConfig | None = None,
    algorithm: str = "match",
    stream_config: StreamConfig | None = None,
    radius_floor: int = 0,
) -> SharedSessionCore:
    """Start a resident core over *graph*; admit Σ per tenant.

    ``core.open_session(tenant, rules)`` admits each tenant's Σ, sharing
    verification across tenants by canonical antecedent
    (docs/multitenant.md).
    """
    return SharedSessionCore(
        graph,
        config=config,
        algorithm=algorithm,
        stream_config=stream_config,
        radius_floor=radius_floor,
    )


def open_session(
    graph: Graph,
    rules: Sequence[GPAR],
    config: EIPConfig | None = None,
    algorithm: str = "match",
    stream_config: StreamConfig | None = None,
    history_limit: int = SESSION_HISTORY_LIMIT,
    tenant: str | None = None,
) -> Session:
    """Start a resident streaming session over *graph* and Σ.

    The k = 1 case of :func:`open_shared_core`: a private core with this
    session as its only tenant, so closing the session releases the core.
    Reach the core (``save_state``, further tenants) as ``session.core``.
    """
    core = SharedSessionCore(graph, config, algorithm, stream_config)
    return core.open_session(
        tenant if tenant is not None else DEFAULT_TENANT, rules, history_limit
    )


def restore_core(
    path: Path | str,
    backend: str | None = None,
    executor_workers: int | None = None,
    history_limit: int = SESSION_HISTORY_LIMIT,
) -> SharedSessionCore:
    """Resume a core checkpointed by :meth:`SharedSessionCore.save_state`.

    Every saved tenant is back as a member session (``core.sessions``)
    whose answer is byte-identical to the one checkpointed — no
    verification runs — with a fresh history starting at the saved graph
    version.  ``backend`` / ``executor_workers`` override the saved
    :class:`EIPConfig`, as in :meth:`repro.stream.StreamingIdentifier.restore`.
    """
    core = SharedSessionCore.__new__(SharedSessionCore)
    core._adopt(MultiTenantIdentifier.restore(path, backend, executor_workers))
    for tenant in core.multi.tenants:
        core._sessions[tenant] = Session(core, tenant, history_limit)
    return core
