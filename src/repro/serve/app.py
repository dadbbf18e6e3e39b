"""EIP-as-a-service: the HTTP application over :mod:`repro.api` sessions.

Endpoints (full contract in ``docs/serving.md``):

========  =================================  =========================================
method    path                               purpose
========  =================================  =========================================
POST      ``/sessions``                      load graph + Σ, start a resident session
GET       ``/sessions``                      list live sessions
GET       ``/sessions/{id}``                 one session's status
GET       ``/sessions/{id}/answer``          paginated answer pinned to one version
POST      ``/sessions/{id}/updates``         apply an UpdateBatch as one tick
GET       ``/sessions/{id}/subscribe``       long-poll per-rule match-set deltas
DELETE    ``/sessions/{id}``                 close a session
GET       ``/healthz``                       liveness
========  =================================  =========================================

Concurrency model: the event loop only parses/serializes HTTP; every
blocking operation (session construction, ``apply``, pagination, long-poll
waits) runs on a thread pool via ``run_in_executor``.  Updates and
admissions to one core queue on a per-core ``asyncio.Lock`` in the event
loop, so a waiting writer parks a coroutine rather than an executor thread;
underneath, the core's one lock (:class:`repro.api.SharedSessionCore`)
serializes the same work for any other caller.  Reads go straight to the
session's immutable snapshots and never wait on a writer — every response
body carries the ``graph_version`` it reflects.
Connections are persistent (HTTP/1.1 keep-alive, see
:mod:`repro.serve.http`): one task serves requests off the same socket
until the client closes, asks for ``Connection: close`` or idles past
:data:`KEEPALIVE_IDLE_TIMEOUT`.

Every session is a tenant of one :class:`repro.api.SharedSessionCore`
(:class:`CoreHandle`).  ``POST /sessions`` bodies naming a ``graph_path``
attach to the core keyed by their (path, predicate, config) — the graph
loads and partitions once, each tenant's Σ admits warm against the resident
canonical-antecedent pool, and one update tick fans out to every tenant's
subscription feed (docs/multitenant.md).  Inline ``graph`` documents get
an anonymous core nobody else can join.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import logging
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro import api
from repro.exceptions import ReproError, StreamError
from repro.datasets import generate_gpars
from repro.graph.io import graph_from_dict, load_graph_json
from repro.identification.eip import EIPConfig
from repro.obs.registry import registry
from repro.serve.http import (
    ProtocolError,
    Request,
    Response,
    RouteError,
    Router,
    read_request,
)
from repro.stream.updates import OP_KINDS, UpdateBatch, UpdateOp

DEFAULT_SUBSCRIBE_TIMEOUT = 30.0
MAX_SUBSCRIBE_TIMEOUT = 120.0
DEFAULT_PAGE_LIMIT = 100
#: How long a persistent connection may sit idle between requests before
#: the server closes it (long-poll waits happen inside dispatch, not here,
#: so they are not bounded by this).
KEEPALIVE_IDLE_TIMEOUT = 60.0

#: Structured access log: one JSON line per request (method, route template,
#: status, duration).  Silent unless the embedding process configures the
#: logger — ``repro serve`` wires it to stderr.
ACCESS_LOGGER = logging.getLogger("repro.serve.access")
LOGGER = logging.getLogger("repro.serve")


def ops_from_json(documents: list) -> UpdateBatch:
    """Decode a JSON ops array into an :class:`UpdateBatch`.

    Each op document is ``{"kind": <kind>, ...}`` with the fields of the
    matching :class:`UpdateOp` constructor — ``node``/``label``/``attrs``
    for node ops, ``source``/``target``/``label`` for edge ops.
    """
    if not isinstance(documents, list):
        raise StreamError(f"'ops' must be a list of op objects, got {type(documents).__name__}")
    ops = []
    for position, doc in enumerate(documents):
        if not isinstance(doc, dict):
            raise StreamError(f"ops[{position}] must be an object, got {type(doc).__name__}")
        kind = doc.get("kind")
        try:
            if kind == "add_node":
                ops.append(UpdateOp.add_node(doc["node"], doc["label"], doc.get("attrs")))
            elif kind == "remove_node":
                ops.append(UpdateOp.remove_node(doc["node"]))
            elif kind == "relabel_node":
                ops.append(UpdateOp.relabel_node(doc["node"], doc["label"]))
            elif kind == "add_edge":
                ops.append(UpdateOp.add_edge(doc["source"], doc["target"], doc["label"]))
            elif kind == "remove_edge":
                ops.append(UpdateOp.remove_edge(doc["source"], doc["target"], doc["label"]))
            else:
                raise StreamError(
                    f"ops[{position}]: unknown kind {kind!r}; expected one of {sorted(OP_KINDS)}"
                )
        except KeyError as exc:
            raise StreamError(f"ops[{position}] ({kind}) is missing field {exc.args[0]!r}") from None
    return UpdateBatch.of(*ops)


def _body_int(body: dict, name: str, default: int, minimum: int | None = None) -> int:
    """Body field *name* as an exact JSON integer (a bool or a float is
    refused), at least *minimum* when one is given."""
    value = body.get(name, default)
    if type(value) is not int:
        raise ProtocolError(f"{name!r} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ProtocolError(f"{name!r} must be >= {minimum}, got {value}")
    return value


def _body_number(body: dict, name: str, default: float) -> float:
    """Body field *name* as a JSON number (a bool or a string is refused)."""
    value = body.get(name, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"{name!r} must be a number, got {value!r}")
    return float(value)


@dataclass
class CoreHandle:
    """One resident core plus the hosted sessions that are its tenants.

    ``key`` pins what tenants of one core must agree on (resident graph,
    predicate, config) and registers the handle in
    ``ReproService._cores`` so later ``graph_path`` bodies can join;
    ``None`` marks an anonymous core (inline graph) that is never
    registered and therefore only ever has one member.
    """

    key: str | None
    core: api.SharedSessionCore | None = None
    #: Serializes ticks and tenant lifecycle across all members.
    update_lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    #: Member session ids (touched only on the event-loop thread).
    members: set[str] = field(default_factory=set)


@dataclass
class SessionHandle:
    """One hosted session plus its serving bookkeeping."""

    session: api.Session
    name: str
    core: CoreHandle
    batches_applied: int = 0
    #: Long-poll subscribe requests currently waiting on this session
    #: (touched only on the event-loop thread, like the registry itself).
    subscribers: int = 0

    def resident_nodes(self) -> int:
        """Nodes resident for the core: its one graph, never copied."""
        return self.session.core.graph.num_nodes

    def info(self, session_id: str) -> dict:
        result = self.session.result
        admission = self.session.admission
        return {
            "session": session_id,
            "graph": self.name,
            "graph_version": self.session.graph_version,
            "rules": [rule.name for rule in self.session.rules],
            "identified": len(result.identified),
            "accepted_rules": len(result.accepted_rules),
            "batches_applied": self.batches_applied,
            "tenant": self.session.tenant,
            "shared_core": self.core.key is not None,
            "admission": {
                "cold_start": admission.cold_start,
                "novel_rules": admission.novel_rules,
                "shared_rules": admission.shared_rules,
                "shared_prefix_hits": admission.shared_prefix_hits,
                "backfill_centers": admission.backfill_centers,
            },
        }


#: Per-session gauge families re-derived on every scrape:
#: (name, help, value of one handle, whether the tenant label applies).
SESSION_GAUGES = (
    ("repro_session_batches_applied", "Update batches applied to the session",
     lambda handle: handle.batches_applied, False),
    ("repro_session_graph_version", "Newest assembled snapshot version",
     lambda handle: handle.session.graph_version, False),
    ("repro_session_oldest_retained_version", "Oldest snapshot version still retained",
     lambda handle: handle.session.oldest_retained_version, False),
    ("repro_session_resident_nodes", "Nodes resident for the session's core (its graph)",
     lambda handle: handle.resident_nodes(), False),
    ("repro_session_subscribers", "Long-poll subscribers currently waiting",
     lambda handle: handle.subscribers, False),
    ("repro_tenant_rules", "Rules in the tenant's rule set",
     lambda handle: len(handle.session.rules), True),
    ("repro_tenant_session_shared_rules", "Admitted rules served by a resident canonical antecedent",
     lambda handle: handle.session.admission.shared_rules, True),
    ("repro_tenant_session_novel_rules", "Admitted rules that required a backfill verification",
     lambda handle: handle.session.admission.novel_rules, True),
    ("repro_tenant_session_backfill_centers", "Centres verified during this tenant's admission",
     lambda handle: handle.session.admission.backfill_centers, True),
)


class ReproService:
    """The application: routes, session registry and executor."""

    def __init__(self, executor_workers: int = 8) -> None:
        self._sessions: dict[str, SessionHandle] = {}
        self._cores: dict[str, CoreHandle] = {}
        self._ids = itertools.count(1)
        self._executor = ThreadPoolExecutor(
            max_workers=executor_workers, thread_name_prefix="serve-worker"
        )
        self.router = Router()
        self.router.add("GET", "/healthz", self._healthz)
        self.router.add("GET", "/metrics", self._metrics)
        self.router.add("POST", "/sessions", self._create_session)
        self.router.add("GET", "/sessions", self._list_sessions)
        self.router.add("GET", "/sessions/{session_id}", self._session_info)
        self.router.add("DELETE", "/sessions/{session_id}", self._delete_session)
        self.router.add("GET", "/sessions/{session_id}/answer", self._answer)
        self.router.add("POST", "/sessions/{session_id}/updates", self._updates)
        self.router.add("GET", "/sessions/{session_id}/subscribe", self._subscribe)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    async def _offload(self, fn, *args):
        return await asyncio.get_running_loop().run_in_executor(self._executor, fn, *args)

    def _handle(self, session_id: str) -> SessionHandle:
        handle = self._sessions.get(session_id)
        if handle is None:
            raise RouteError(404, f"no session {session_id!r}")
        return handle

    async def dispatch(self, request: Request) -> Response:
        """Route one request, mapping library errors onto statuses (any other
        exception is a 500, logged on ``repro.serve``).

        Every request — matched or not — lands in the
        ``repro_http_requests_total``/``repro_http_request_seconds`` series
        (labelled by route *template*, so cardinality stays bounded) and
        emits one JSON access-log line on ``repro.serve.access``.
        """
        started = time.perf_counter()
        route = "unmatched"
        try:
            handler, params, route = self.router.resolve(request.method, request.path)
            response = await handler(request, **params)
        except RouteError as exc:
            response = Response(exc.status, {"error": str(exc)})
        except api.SnapshotExpired as exc:
            response = Response(
                410,
                {
                    "error": str(exc),
                    "resync": True,
                    "oldest_retained": exc.oldest_retained,
                },
            )
        except ProtocolError as exc:
            response = Response(400, {"error": str(exc)})
        except (ReproError, ValueError, KeyError, TypeError) as exc:
            response = Response(400, {"error": f"{type(exc).__name__}: {exc}"})
        except Exception as exc:  # a handler bug: answered, logged and counted, never a dropped connection
            LOGGER.exception("unhandled error on %s %s", request.method, request.path)
            response = Response(500, {"error": f"internal error: {type(exc).__name__}"})
        self._observe_request(
            request, route, response.status, time.perf_counter() - started
        )
        return response

    def _observe_request(
        self, request: Request, route: str, status: int, elapsed: float
    ) -> None:
        metrics = registry()
        metrics.inc(
            "repro_http_requests_total",
            help="HTTP requests served",
            method=request.method,
            route=route,
            status=str(status),
        )
        metrics.observe(
            "repro_http_request_seconds",
            elapsed,
            help="HTTP request latency",
            method=request.method,
            route=route,
        )
        if ACCESS_LOGGER.isEnabledFor(logging.INFO):
            ACCESS_LOGGER.info(
                json.dumps(
                    {
                        "method": request.method,
                        "path": request.path,
                        "route": route,
                        "status": status,
                        "duration_ms": round(elapsed * 1000, 3),
                    },
                    sort_keys=True,
                )
            )

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve requests off one persistent connection until it ends.

        HTTP/1.1 keep-alive: the loop keeps reading requests from the same
        socket until the peer closes, sends ``Connection: close``, idles
        past :data:`KEEPALIVE_IDLE_TIMEOUT`, or breaks the protocol (after
        a parse error the connection state is unknowable, so it closes).
        """
        served = 0
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        read_request(reader), timeout=KEEPALIVE_IDLE_TIMEOUT
                    )
                except asyncio.TimeoutError:
                    break
                except ProtocolError as exc:
                    writer.write(Response(400, {"error": str(exc)}).encode())
                    await writer.drain()
                    break
                if request is None:
                    break
                if served:
                    registry().inc(
                        "repro_http_keepalive_reuses_total",
                        help="Requests served on an already-open connection",
                    )
                response = await self.dispatch(request)
                keep_alive = request.keep_alive
                writer.write(response.encode(keep_alive=keep_alive))
                await writer.drain()
                served += 1
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Server shutdown mid-request: end the task cleanly (a cancelled
            # connection task trips a noisy asyncio-streams done-callback).
            pass
        finally:
            writer.close()
            try:
                await asyncio.shield(writer.wait_closed())
            except (ConnectionError, asyncio.CancelledError):
                pass

    def shutdown(self) -> None:
        """Close every hosted session (evicting shared tenants) and the executor."""
        for handle in list(self._sessions.values()):
            handle.session.close()
        self._sessions.clear()
        self._cores.clear()
        self._executor.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    async def _healthz(self, request: Request) -> Response:
        resident, oldest = await self._offload(self._residency_snapshot)
        return Response(
            200,
            {
                "ok": True,
                "sessions": len(self._sessions),
                "shared_cores": len(self._cores),
                "resident_nodes": resident,
                "oldest_retained_version": oldest,
            },
        )

    def _residency_snapshot(self) -> tuple[int, int | None]:
        """(total resident nodes, oldest retained version across sessions)."""
        resident = 0
        oldest: int | None = None
        for handle in list(self._sessions.values()):
            resident += handle.resident_nodes()
            version = handle.session.oldest_retained_version
            oldest = version if oldest is None else min(oldest, version)
        return resident, oldest

    async def _metrics(self, request: Request) -> Response:
        await self._offload(self._refresh_gauges)
        return Response(
            200,
            text=registry().render(),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    def _refresh_gauges(self) -> None:
        """Re-derive the point-in-time gauges the exposition reports.

        Per-session families are cleared first so closed sessions do not
        linger as frozen series.
        """
        metrics = registry()
        sessions = sorted(self._sessions.items())
        metrics.set_gauge(
            "repro_sessions", len(sessions), help="Live hosted sessions"
        )
        metrics.set_gauge(
            "repro_shared_cores",
            len(self._cores),
            help="Shared multi-tenant cores currently resident",
        )
        for name, _help, _value, _by_tenant in SESSION_GAUGES:
            metrics.clear(name)
        for session_id, handle in sessions:
            for name, help_text, value, by_tenant in SESSION_GAUGES:
                labels = {"session": session_id}
                if by_tenant:
                    labels["tenant"] = handle.session.tenant
                metrics.set_gauge(name, value(handle), help=help_text, **labels)

    async def _create_session(self, request: Request) -> Response:
        body = request.json()
        if not isinstance(body, dict):
            raise ProtocolError("POST /sessions expects a JSON object body")
        if ("graph" in body) == ("graph_path" in body):
            raise ProtocolError("provide exactly one of 'graph' (inline document) or 'graph_path'")
        if "predicate" not in body:
            raise ProtocolError("'predicate' (x_label:edge_label:y_label) is required")

        eta = _body_number(body, "eta", 1.0)
        workers = _body_int(body, "workers", 4)
        seed = _body_int(body, "seed", 0)
        rules = _body_int(body, "rules", 6, minimum=1)
        max_edges = _body_int(body, "max_edges", 4, minimum=1)
        d = _body_int(body, "d", 2, minimum=1)
        history_limit = _body_int(body, "history_limit", api.SESSION_HISTORY_LIMIT, minimum=1)
        backend = body.get("backend", "sequential")
        pool_size = body.get("pool_size")

        def build_rules(graph):
            predicate = api.parse_predicate(body["predicate"])
            return generate_gpars(
                graph, predicate, count=rules, max_pattern_edges=max_edges, d=d, seed=seed
            )

        session_id = f"s{next(self._ids)}"
        tenant = str(body.get("tenant", session_id))
        # The core key pins everything tenants of one core must agree on —
        # the resident graph, predicate and config — while the rule-set
        # parameters stay per-tenant.  Only graph_path bodies are joinable;
        # inline graphs get an anonymous, unregistered core.
        key = None
        if "graph_path" in body:
            key = json.dumps(
                {
                    "graph_path": str(body["graph_path"]),
                    "predicate": body["predicate"],
                    "eta": eta,
                    "workers": workers,
                    "seed": seed,
                    "backend": backend,
                    "pool_size": pool_size,
                },
                sort_keys=True,
            )
        core_handle = self._cores.get(key)
        if core_handle is None:
            core_handle = CoreHandle(key)
            if key is not None:
                self._cores[key] = core_handle

        def build_core() -> api.SharedSessionCore:
            if "graph" in body:
                graph = graph_from_dict(body["graph"])
            else:
                graph = load_graph_json(body["graph_path"])
            config = EIPConfig(
                eta=eta,
                num_workers=workers,
                seed=seed,
                backend=backend,
                executor_workers=pool_size,
            )
            return api.open_shared_core(graph, config=config)

        def admit(core: api.SharedSessionCore) -> SessionHandle:
            session = core.open_session(
                tenant, build_rules(core.graph), history_limit=history_limit
            )
            return SessionHandle(session, core.graph.name, core_handle)

        # Core construction and tenant admission serialize on the core's
        # update lock, so admissions never race a tick's graph mutation.
        async with core_handle.update_lock:
            try:
                if core_handle.core is None:
                    core_handle.core = await self._offload(build_core)
                handle = await self._offload(admit, core_handle.core)
            except BaseException:
                if not core_handle.members:
                    self._cores.pop(key, None)
                    if core_handle.core is not None:  # built for this request alone
                        core, core_handle.core = core_handle.core, None
                        await self._offload(core.close)
                raise
            core_handle.members.add(session_id)
            self._sessions[session_id] = handle
        return Response(201, handle.info(session_id))

    async def _list_sessions(self, request: Request) -> Response:
        return Response(
            200,
            {"sessions": [handle.info(sid) for sid, handle in sorted(self._sessions.items())]},
        )

    async def _session_info(self, request: Request, session_id: str) -> Response:
        return Response(200, self._handle(session_id).info(session_id))

    async def _delete_session(self, request: Request, session_id: str) -> Response:
        handle = self._handle(session_id)
        core_handle = handle.core
        async with core_handle.update_lock:  # let an in-flight tick finish first
            del self._sessions[session_id]
            core_handle.members.discard(session_id)
            # Evicts only this tenant; sibling sessions (and the verdict
            # state they read) stay live, the last one out releases the core.
            await self._offload(handle.session.close)
            if not core_handle.members:
                self._cores.pop(core_handle.key, None)
        return Response(200, {"closed": session_id})

    async def _answer(self, request: Request, session_id: str) -> Response:
        handle = self._handle(session_id)
        cursor = request.query.get("cursor")
        limit = request.query_int("limit", DEFAULT_PAGE_LIMIT)
        page, version = await self._offload(handle.session.answer, cursor, limit)
        return Response(
            200,
            {
                "graph_version": version,
                "total": page.total,
                "entries": [entry.as_dict() for entry in page.entries],
                "next_cursor": page.next_cursor,
            },
        )

    async def _updates(self, request: Request, session_id: str) -> Response:
        handle = self._handle(session_id)
        body = request.json()
        if not isinstance(body, dict) or "ops" not in body:
            raise ProtocolError("POST .../updates expects {'ops': [...]}")
        batch = ops_from_json(body["ops"])
        async with handle.core.update_lock:
            report, delta = await self._offload(handle.session.apply, batch)
            # One tick advanced every tenant of the core.
            for member_id in handle.core.members:
                self._sessions[member_id].batches_applied += 1
        return Response(
            200,
            {
                "graph_version": delta.version,
                "base_version": delta.base_version,
                "report": {
                    "rechecked_centers": report.rechecked_centers,
                    # Retired fields, always 0 (a session keeps no fragments):
                    # benchmarks/e2e/layers.py still reads them.
                    "entered_nodes": 0,
                    "shed_nodes": 0,
                    "migrated_centers": 0,
                    "wall_time": round(report.wall_time, 6),
                },
                "delta": delta.as_dict(),
            },
        )

    async def _subscribe(self, request: Request, session_id: str) -> Response:
        handle = self._handle(session_id)
        rule = request.query.get("rule")
        if rule is not None and rule not in {r.name for r in handle.session.rules}:
            raise RouteError(404, f"session {session_id} has no rule {rule!r}")
        since = request.query_int("since")
        current = handle.session.graph_version
        if since is None:
            # First contact: hand the subscriber its baseline version.
            return Response(200, {"graph_version": current, "deltas": [], "resume_from": current})
        timeout = min(
            request.query_float("timeout", DEFAULT_SUBSCRIBE_TIMEOUT), MAX_SUBSCRIBE_TIMEOUT
        )
        if since >= current:
            handle.subscribers += 1
            try:
                ticked = await self._offload(
                    handle.session.wait_for_version, since, timeout
                )
            finally:
                handle.subscribers -= 1
            if not ticked:
                return Response(
                    200,
                    {"graph_version": handle.session.graph_version, "deltas": [], "resume_from": since},
                )
        deltas = handle.session.deltas(since)  # raises SnapshotExpired → 410
        documents = []
        for delta in deltas:
            doc = delta.as_dict()
            if rule is not None:
                doc["rules"] = {name: diff for name, diff in doc["rules"].items() if name == rule}
            documents.append(doc)
        resume_from = deltas[-1].version if deltas else since
        return Response(
            200,
            {
                "graph_version": handle.session.graph_version,
                "deltas": documents,
                "resume_from": resume_from,
            },
        )


class BackgroundServer:
    """The service on a daemon thread with its own event loop.

    Used by the tests, the repo benchmark and ``repro serve`` alike:
    ``start()`` binds (port 0 → an ephemeral port), ``base_url`` is where
    clients point, ``stop()`` tears everything down.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, executor_workers: int = 8):
        self._host = host
        self._port = port
        self._executor_workers = executor_workers
        self.service: ReproService | None = None
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def base_url(self) -> str:
        if self.port is None:
            raise StreamError("server is not running (call start() first)")
        return f"http://{self._host}:{self.port}"

    def start(self) -> "BackgroundServer":
        if self._thread is not None:
            raise StreamError("server already started")
        self._thread = threading.Thread(target=self._run, name="serve-loop", daemon=True)
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise StreamError(f"server failed to start: {self._startup_error}")
        if self.port is None:
            raise StreamError("server did not come up within 30s")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self.service = ReproService(executor_workers=self._executor_workers)

        async def serve() -> None:
            server = await asyncio.start_server(
                self.service.handle_connection, self._host, self._port
            )
            self.port = server.sockets[0].getsockname()[1]
            self._ready.set()
            async with server:
                await server.serve_forever()

        try:
            loop.run_until_complete(serve())
        except asyncio.CancelledError:
            pass
        except BaseException as exc:  # surface bind failures to start()
            self._startup_error = exc
            self._ready.set()
        finally:
            # Persistent (keep-alive) connection tasks were cancelled, not
            # awaited: give their cleanup blocks a chance to close sockets
            # before the loop goes away.
            pending = [task for task in asyncio.all_tasks(loop) if not task.done()]
            if pending:
                loop.run_until_complete(asyncio.wait(pending, timeout=5))
            self.service.shutdown()
            loop.close()

    def stop(self) -> None:
        if self._loop is None or self._thread is None:
            return
        loop = self._loop

        def cancel_everything() -> None:
            for task in asyncio.all_tasks(loop):
                task.cancel()

        loop.call_soon_threadsafe(cancel_everything)
        self._thread.join(timeout=10)
        self._loop = None
        self._thread = None
        self.port = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False


#: GIL switch interval of a serving process.  A tick holds the GIL for
#: milliseconds at a time, and each handoff to the event-loop thread may
#: wait out the whole interval (5 ms by default), which a read beside a tick
#: pays several times over (docs/serving.md).
SERVE_SWITCH_INTERVAL = 0.001


def run_foreground(host: str = "127.0.0.1", port: int = 8337, executor_workers: int = 8) -> int:
    """Run the service until interrupted (``repro serve``)."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(SERVE_SWITCH_INTERVAL)
    server = BackgroundServer(host, port, executor_workers=executor_workers)
    try:
        server.start()
        print(f"serving EIP sessions on {server.base_url} (Ctrl-C to stop)")
        while server._thread is not None and server._thread.is_alive():
            server._thread.join(timeout=1)
        return 1
    except KeyboardInterrupt:
        print("stopping")
        server.stop()
        return 0
    finally:
        sys.setswitchinterval(previous)

