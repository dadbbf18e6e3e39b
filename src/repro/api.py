"""One public entry layer over mining, identification and streaming.

Before this module the repository had three ad-hoc entry paths — the CLI's
``_cmd_mine`` / ``_cmd_identify`` / ``_cmd_stream`` each assembled its own
flags into its own calls, and long-lived use meant driving a
:class:`~repro.stream.StreamingIdentifier` by hand.  :mod:`repro.api` is the
single facade both the CLI and the HTTP service (:mod:`repro.serve`) consume:

* :func:`mine` / :func:`identify` — one-shot runs from **explicit** config
  objects (:class:`~repro.mining.DMineConfig`,
  :class:`~repro.identification.eip.EIPConfig`);
* :func:`open_session` — a resident :class:`Session` wrapping a
  ``StreamingIdentifier`` with the concurrency contract a serving layer
  needs:

  - **updates serialize** — :meth:`Session.apply` queues writers on a lock
    (and the identifier itself rejects true re-entrancy with
    :class:`~repro.exceptions.StreamError`);
  - **reads never block** — :meth:`Session.answer` pages over immutable
    snapshots pinned to the ``Graph.version`` they were assembled at, so a
    reader paginating while a batch applies sees one consistent version
    throughout, never the identifier's in-flight state;
  - **answers are a feed** — every tick's :class:`SessionDelta` (per-rule
    entities that entered/left the match set, plus the identified-set
    delta) is retained in a bounded history that :meth:`Session.deltas`
    and the server's subscription endpoint replay.

The snapshot/delta histories hold references to the immutable per-tick
``EIPResult`` objects (``_assemble`` builds a fresh one per tick), so
retention costs the answer sets, not graph copies.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
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
from repro.stream.identifier import StreamingIdentifier, StreamUpdateReport
from repro.stream.multitenant import MultiTenantIdentifier, TenantAdmission
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
]

#: How many (snapshot, delta) ticks a session retains for paginating readers
#: and catching-up subscribers before evicting the oldest.
SESSION_HISTORY_LIMIT = 64


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
    batch (the property the serve bench family gates on).
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
    """A resident EIP answer with serving semantics.

    Wraps a running :class:`~repro.stream.StreamingIdentifier` and layers
    the reader/writer contract on top (see the module docstring).  Obtain
    one through :func:`open_session`; use as a context manager or call
    :meth:`close`.
    """

    def __init__(
        self,
        identifier: StreamingIdentifier,
        history_limit: int = SESSION_HISTORY_LIMIT,
        tenant: str | None = None,
        core: "SharedSessionCore | None" = None,
    ) -> None:
        if history_limit < 1:
            raise StreamError(f"history_limit must be >= 1, got {history_limit}")
        self._identifier = identifier
        self._history_limit = history_limit
        self.tenant = tenant
        self._core = core
        self._write_lock = threading.Lock()  # serializes apply()
        self._state_lock = threading.Lock()  # guards the histories (briefly)
        self._tick_condition = threading.Condition(self._state_lock)
        self._snapshots: OrderedDict[int, SessionSnapshot] = OrderedDict()
        self._deltas: OrderedDict[int, SessionDelta] = OrderedDict()
        version = identifier.graph.version
        self._snapshots[version] = SessionSnapshot(version, identifier.result)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def identifier(self) -> StreamingIdentifier:
        """The underlying identifier (advanced use; do not mutate its graph)."""
        return self._identifier

    @property
    def rules(self) -> tuple[GPAR, ...]:
        return self._identifier.rules

    @property
    def max_radius(self) -> int:
        return self._identifier.max_radius

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
    # writes: serialized update ticks
    # ------------------------------------------------------------------
    def apply(self, batch: UpdateBatch) -> tuple[StreamUpdateReport, SessionDelta]:
        """Apply one update batch as a tick; returns (report, answer delta).

        Writers queue on the session's write lock — concurrent callers
        serialize rather than error (the identifier's own re-entrancy guard
        only trips when it is driven *around* the session).  Readers are
        never blocked: the new snapshot and delta publish atomically after
        the repair finishes.

        A tenant session on a :class:`SharedSessionCore` routes through the
        core: the batch ticks the shared graph **once** and every sibling
        tenant's session publishes its own projected delta.
        """
        if self._core is not None:
            return self._core.apply(batch, origin=self)
        with self._write_lock:
            report = self._identifier.apply(batch)
            return report, self._publish_tick(report)

    def _publish_tick(self, report: StreamUpdateReport) -> SessionDelta:
        """Assemble and publish the tick the identifier just applied.

        The caller must hold write exclusion (the session's own write lock,
        or the shared core's when the identifier is shared).
        """
        before = self.snapshot()
        version = self._identifier.graph.version
        result = self._identifier.result
        delta = diff_results(before.result, result, before.version, version)
        delta = SessionDelta(
            version=delta.version,
            base_version=delta.base_version,
            rule_entered=delta.rule_entered,
            rule_left=delta.rule_left,
            identified_entered=delta.identified_entered,
            identified_left=delta.identified_left,
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
        return self._identifier.recompute()

    def save_state(self, path: Path | str | None = None) -> Path:
        """Durable checkpoint of the underlying identifier (see its docs)."""
        with self._write_lock:
            return self._identifier.save_state(path)

    def close(self) -> None:
        """Release the identifier's worker pool; snapshots stay readable.

        On a shared core this evicts only this session's tenant — sibling
        tenants (and the verdict state they read) stay live.
        """
        if self._core is not None:
            self._core.close_session(self)
        else:
            self._identifier.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


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

    Owns config construction: callers hand in explicit
    :class:`EIPConfig` / :class:`StreamConfig` objects (or take the
    defaults).  ``tenant`` is a display identity only here; sessions that
    *share* one resident core go through :func:`open_shared_core` instead.
    """
    identifier = StreamingIdentifier(
        graph,
        rules,
        config=config if config is not None else EIPConfig(),
        algorithm=algorithm,
        stream_config=stream_config,
    )
    return Session(identifier, history_limit=history_limit, tenant=tenant)


# ----------------------------------------------------------------------
# multi-tenant: N sessions over one shared streaming core
# ----------------------------------------------------------------------
class _TenantIdentifier:
    """Per-tenant facade over a shared :class:`MultiTenantIdentifier`.

    Duck-types the :class:`StreamingIdentifier` surface a :class:`Session`
    reads (graph, rules, radius, result, recompute, manager) while routing
    every answer through the tenant's projection.  Direct writes are
    rejected — ticks on a shared core go through
    :meth:`SharedSessionCore.apply` so every sibling publishes.
    """

    def __init__(self, multi: MultiTenantIdentifier, tenant: str) -> None:
        self._multi = multi
        self.tenant = tenant

    @property
    def graph(self) -> Graph:
        return self._multi.graph

    @property
    def rules(self) -> tuple[GPAR, ...]:
        return self._multi.rules_for(self.tenant)

    @property
    def max_radius(self) -> int:
        return self._multi.identifier.max_radius

    @property
    def manager(self):
        return self._multi.identifier.manager

    @property
    def result(self) -> EIPResult:
        return self._multi.result_for(self.tenant)

    def recompute(self) -> EIPResult:
        return self._multi.recompute_for(self.tenant)

    def apply(self, batch: UpdateBatch) -> StreamUpdateReport:
        raise StreamError(
            "this session shares a multi-tenant core; apply updates through "
            "Session.apply (which ticks the shared core once for all tenants)"
        )

    def save_state(self, path: Path | str | None = None) -> Path:
        raise StreamError(
            "checkpointing a shared multi-tenant core is not supported; "
            "open a dedicated session to save durable state"
        )

    def close(self) -> None:
        self._multi.evict(self.tenant)


class SharedSessionCore:
    """N tenant :class:`Session` objects over one resident streaming core.

    Owns a :class:`~repro.stream.MultiTenantIdentifier` plus one write lock
    shared by every member: an update batch applied through *any* member
    session ticks the shared graph once — verifying each touched centre
    once per distinct canonical antecedent across all Σ — and then every
    member publishes its own projected snapshot/delta, so each tenant's
    subscription feed behaves exactly as if it ran a private core.
    """

    def __init__(
        self,
        graph: Graph,
        config: EIPConfig | None = None,
        algorithm: str = "match",
        stream_config: StreamConfig | None = None,
        radius_floor: int = 0,
    ) -> None:
        self._multi = MultiTenantIdentifier(
            graph,
            config=config,
            algorithm=algorithm,
            stream_config=stream_config,
            radius_floor=radius_floor,
        )
        self._write_lock = threading.Lock()
        self._sessions: dict[str, Session] = {}

    @property
    def multi(self) -> MultiTenantIdentifier:
        return self._multi

    @property
    def graph(self) -> Graph:
        return self._multi.graph

    @property
    def tenants(self) -> tuple[str, ...]:
        with self._write_lock:
            return tuple(self._sessions)

    def __len__(self) -> int:
        with self._write_lock:
            return len(self._sessions)

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
            admission = self._multi.admit(tenant, tuple(rules))
            session = Session(
                _TenantIdentifier(self._multi, tenant),
                history_limit=history_limit,
                tenant=tenant,
                core=self,
            )
            session.admission = admission
            self._sessions[tenant] = session
            return session

    def admission_for(self, tenant: str) -> TenantAdmission:
        return self._multi.admission_for(tenant)

    def apply(
        self, batch: UpdateBatch, origin: Session | None = None
    ) -> tuple[StreamUpdateReport, SessionDelta | dict[str, SessionDelta]]:
        """Tick the shared core once; publish a delta to **every** member.

        Returns ``(report, origin's delta)`` when called through a member
        session, or ``(report, {tenant: delta})`` when driven directly.
        """
        with self._write_lock:
            report = self._multi.apply(batch)
            deltas = {
                tenant: session._publish_tick(report)
                for tenant, session in self._sessions.items()
            }
        if origin is not None:
            return report, deltas[origin.tenant]
        return report, deltas

    def close_session(self, session: Session) -> None:
        """Evict one tenant; sibling tenants' sessions stay live."""
        with self._write_lock:
            tenant = session.tenant
            if tenant is not None and self._sessions.get(tenant) is session:
                del self._sessions[tenant]
                self._multi.evict(tenant)

    def close(self) -> None:
        """Evict every tenant and release the shared core."""
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
    """Start a shared multi-tenant core over *graph*; admit Σ per tenant.

    The multi-tenant counterpart of :func:`open_session`:
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
