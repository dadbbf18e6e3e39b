"""The :mod:`repro.serve` HTTP boundary, end to end over a loopback socket.

Exercises the serving contract of docs/serving.md with a real
:class:`~repro.serve.BackgroundServer`:

* session lifecycle (create from an inline graph document, list, info,
  delete) and error mapping (400/404/405/410);
* paginated ``/answer`` reads pinned to one ``Graph.version`` while
  ``/updates`` ticks land between pages;
* ``/subscribe`` deltas byte-identical to the set-difference of fresh
  recomputes on a mirror graph, plus the 410-resync path once the bounded
  history evicts the subscriber's version.
"""

from __future__ import annotations

import asyncio
import base64
import json
import logging
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro import api
from repro.datasets import generate_gpars, most_frequent_predicates, synthetic_graph
from repro.exceptions import StreamError
from repro.graph.io import graph_to_dict
from repro.identification import EIPConfig
from repro.obs.registry import registry
from repro.serve import BackgroundServer, RouteError, Router, ops_from_json
from repro.serve.app import ReproService
from repro.serve.http import Request
from repro.stream import UpdateBatch, UpdateOp, random_update_batch
from repro.testing import counter_value

RULES = 5
SEED = 3


def _call(method: str, url: str, body: dict | None = None, timeout: float = 30):
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


def _call_text(url: str):
    """Raw GET returning (status, content-type, body text) — for /metrics."""
    with urllib.request.urlopen(url, timeout=30) as response:
        return (
            response.status,
            response.headers.get("Content-Type", ""),
            response.read().decode("utf-8"),
        )


def _workload(seed: int = SEED):
    graph = synthetic_graph(60, 200, num_node_labels=4, num_edge_labels=3, seed=seed)
    predicate = most_frequent_predicates(graph, top=1)[0]
    rules = generate_gpars(graph, predicate, count=RULES, max_pattern_edges=4, d=2, seed=seed)
    edge = predicate.edges()[0]
    predicate_text = (
        f"{predicate.label(predicate.x)}:{edge.label}:{predicate.label(predicate.y)}"
    )
    return graph, rules, predicate_text


def _session_body(graph, predicate_text, **extra):
    body = {
        "graph": graph_to_dict(graph),
        "predicate": predicate_text,
        "rules": RULES,
        "max_edges": 4,
        "d": 2,
        "seed": SEED,
        "eta": 0.1,
        "workers": 2,
    }
    body.update(extra)
    return body


@pytest.fixture(scope="module")
def server():
    with BackgroundServer() as running:
        yield running


class TestWireFormats:
    def test_ops_round_trip_through_json(self):
        batch = UpdateBatch.of(
            UpdateOp.add_node("n", "person", {"age": 3}),
            UpdateOp.relabel_node("n", "vip"),
            UpdateOp.add_edge("n", "m", "knows"),
            UpdateOp.remove_edge("n", "m", "knows"),
            UpdateOp.remove_node("n"),
        )
        documents = json.loads(json.dumps([op.as_dict() for op in batch.ops]))
        assert ops_from_json(documents).ops == batch.ops

    def test_ops_from_json_rejects_malformed(self):
        with pytest.raises(StreamError, match="must be a list"):
            ops_from_json({"kind": "add_node"})
        with pytest.raises(StreamError, match="unknown kind"):
            ops_from_json([{"kind": "explode"}])
        with pytest.raises(StreamError, match="missing field"):
            ops_from_json([{"kind": "add_edge", "source": "a"}])

    def test_router_params_and_errors(self):
        async def handler(request, **params):  # pragma: no cover - never awaited
            return params

        router = Router()
        router.add("GET", "/sessions/{session_id}/answer", handler)
        resolved, params, template = router.resolve("GET", "/sessions/s7/answer")
        assert resolved is handler and params == {"session_id": "s7"}
        assert template == "/sessions/{session_id}/answer"
        with pytest.raises(RouteError) as not_found:
            router.resolve("GET", "/nowhere")
        assert not_found.value.status == 404
        with pytest.raises(RouteError) as wrong_method:
            router.resolve("POST", "/sessions/s7/answer")
        assert wrong_method.value.status == 405


    def test_a_handler_bug_is_a_500_not_a_dropped_connection(self, caplog):
        """An exception no status maps is answered, logged and counted."""

        async def broken(request):
            raise AttributeError("no such thing")

        service = ReproService(executor_workers=1)
        try:
            service.router.add("GET", "/broken", broken)
            labels = {"method": "GET", "route": "/broken", "status": "500"}
            before = counter_value(registry(), "repro_http_requests_total", **labels)
            with caplog.at_level(logging.ERROR, logger="repro.serve"):
                response = asyncio.run(service.dispatch(Request("GET", "/broken", {}, {})))
            assert response.status == 500
            assert "AttributeError" in response.payload["error"]
            assert counter_value(registry(), "repro_http_requests_total", **labels) == before + 1
            assert any(record.exc_info for record in caplog.records)
        finally:
            service.shutdown()


class TestProcessEntry:
    @pytest.mark.parametrize("ending", ["server-exits", "interrupted"])
    def test_switch_interval_is_short_while_serving_and_restored_after(self, monkeypatch, ending):
        """``run_foreground`` shortens the GIL switch interval for as long as
        it serves and restores the old one however serving ends; importing
        the package and ``BackgroundServer`` (as here) leave it alone."""
        import sys

        from repro.serve import app

        default = sys.getswitchinterval()
        assert app.SERVE_SWITCH_INTERVAL < default
        seen = []

        class StubThread:
            alive = True

            def is_alive(self):
                return self.alive

            def join(self, timeout=None):
                seen.append(sys.getswitchinterval())
                self.alive = False
                if ending == "interrupted":
                    raise KeyboardInterrupt

        class StubServer:
            base_url = "http://stub"

            def __init__(self, *args, **kwargs):
                self._thread = StubThread()

            def start(self):
                seen.append(sys.getswitchinterval())
                return self

            def stop(self):
                pass

        monkeypatch.setattr(app, "BackgroundServer", StubServer)
        code = app.run_foreground(port=0)
        assert code == (0 if ending == "interrupted" else 1)
        assert seen == [app.SERVE_SWITCH_INTERVAL] * 2
        assert sys.getswitchinterval() == default


class TestSessionLifecycle:
    def test_create_info_list_delete(self, server):
        graph, rules, predicate_text = _workload()
        status, created = _call(
            "POST", f"{server.base_url}/sessions", _session_body(graph, predicate_text)
        )
        assert status == 201
        assert created["rules"] == [rule.name for rule in rules]
        sid = created["session"]
        status, info = _call("GET", f"{server.base_url}/sessions/{sid}")
        assert status == 200 and info["graph_version"] == created["graph_version"]
        status, listing = _call("GET", f"{server.base_url}/sessions")
        assert status == 200
        assert sid in [entry["session"] for entry in listing["sessions"]]
        status, closed = _call("DELETE", f"{server.base_url}/sessions/{sid}")
        assert status == 200 and closed == {"closed": sid}
        status, _ = _call("GET", f"{server.base_url}/sessions/{sid}")
        assert status == 404

    def test_error_mapping(self, server):
        base = server.base_url
        assert _call("GET", f"{base}/healthz")[0] == 200
        assert _call("GET", f"{base}/nowhere")[0] == 404
        assert _call("DELETE", f"{base}/healthz")[0] == 405
        # Malformed bodies and parameters map to 400 with a JSON error.
        status, doc = _call("POST", f"{base}/sessions", {"predicate": "a:b:c"})
        assert status == 400 and "graph" in doc["error"]
        graph, _rules, predicate_text = _workload()
        for eta in (-1, float("nan")):  # json.dumps spells NaN, json.loads reads it
            status, doc = _call(
                "POST", f"{base}/sessions", _session_body(graph, predicate_text, eta=eta)
            )
            assert status == 400 and "eta" in doc["error"], eta
        status, doc = _call(
            "POST", f"{base}/sessions", _session_body(graph, "not-a-predicate")
        )
        assert status == 400
        # pool_size reaches EIPConfig.executor_workers as sent: a non-integer
        # is refused by name, not inside the pool (nor ignored on sequential).
        for extra, named in (
            ({"pool_size": 1.5}, "executor_workers"),
            ({"pool_size": True, "backend": "processes"}, "executor_workers"),
            ({"backend": "threads"}, "threads"),
        ):
            status, doc = _call(
                "POST", f"{base}/sessions", _session_body(graph, predicate_text, **extra)
            )
            assert status == 400 and named in doc["error"], extra

    @pytest.mark.parametrize(
        "name, value",
        [
            ("workers", 2.7),
            ("workers", True),
            ("workers", "3"),
            ("seed", 1.9),
            ("seed", True),
            ("history_limit", 2.5),
            ("rules", 5.0),
            ("max_edges", "4"),
            ("d", 2.0),
            ("eta", True),
            ("eta", "0.1"),
        ],
    )
    def test_numeric_fields_are_not_coerced(self, server, name, value):
        """Counts are exact JSON integers and ``eta`` a JSON number: a float,
        bool or string is refused by name, not converted (``workers: 2.7``
        used to run — and join a shared core — as ``workers: 2``)."""
        graph, _rules, predicate_text = _workload()
        status, doc = _call(
            "POST", f"{server.base_url}/sessions", _session_body(graph, predicate_text, **{name: value})
        )
        assert status == 400 and repr(name) in doc["error"], doc

    @pytest.mark.parametrize(
        "name, value", [("max_edges", 0), ("d", -1), ("d", 0), ("rules", 0)]
    )
    def test_rule_shape_fields_below_one_are_refused_by_name(self, server, name, value):
        """Rule sampling needs at least one edge, radius and rule: a smaller
        value is a 400 naming the field, before any sampling (``d: 0`` used
        to spend 300 attempts first, ``max_edges: 0`` to fail in
        ``randrange``)."""
        graph, _rules, predicate_text = _workload()
        status, doc = _call(
            "POST", f"{server.base_url}/sessions", _session_body(graph, predicate_text, **{name: value})
        )
        assert status == 400 and f"{name!r} must be >= 1" in doc["error"], doc

    def test_malformed_http_gets_400(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as raw:
            raw.sendall(b"GIBBERISH\r\n\r\n")
            response = raw.recv(4096)
        assert response.startswith(b"HTTP/1.1 400")


class TestAnswerAndUpdates:
    def test_pagination_pinned_while_updates_tick(self, server):
        graph, _rules, predicate_text = _workload(seed=4)
        status, created = _call(
            "POST", f"{server.base_url}/sessions", _session_body(graph, predicate_text, seed=4)
        )
        assert status == 201
        url = f"{server.base_url}/sessions/{created['session']}"

        status, first = _call("GET", f"{url}/answer?limit=1")
        assert status == 200
        assert first["total"] >= 2, "workload must produce a multi-page answer"
        pinned = first["graph_version"]
        collected = list(first["entries"])
        cursor = first["next_cursor"]
        live = graph.copy()
        position = 0
        while cursor is not None:
            # Tick the graph between every page; the open pagination must
            # keep seeing the pinned version.
            batch = random_update_batch(live, size=3, seed=500 + position)
            status, tick = _call(
                "POST", f"{url}/updates", {"ops": [op.as_dict() for op in batch.ops]}
            )
            assert status == 200 and tick["graph_version"] > pinned
            batch.apply(live)
            position += 1
            status, page = _call("GET", f"{url}/answer?cursor={cursor}&limit=1")
            assert status == 200
            assert page["graph_version"] == pinned
            collected.extend(page["entries"])
            cursor = page["next_cursor"]
        assert len(collected) == first["total"]
        keys = [(entry["entity"], entry["rule_index"]) for entry in collected]
        assert keys == sorted(keys)
        # A fresh read reflects the ticks.
        status, head = _call("GET", f"{url}/answer?limit=1")
        assert head["graph_version"] > pinned
        _call("DELETE", url)

    def test_concurrent_readers_never_see_a_mixed_version_pass(self, server):
        """Several reader threads paginate in a loop while the writer ticks:
        every full pass — first page to last — reports one graph_version."""
        graph, _rules, predicate_text = _workload(seed=4)
        status, created = _call(
            "POST", f"{server.base_url}/sessions", _session_body(graph, predicate_text, seed=4)
        )
        assert status == 201
        url = f"{server.base_url}/sessions/{created['session']}"
        stop = threading.Event()
        passes: list[set[int]] = []  # list.append is atomic; one entry per pass
        failures: list[BaseException] = []

        def read_loop() -> None:
            try:
                while not stop.is_set():
                    versions, cursor = set(), None
                    while True:
                        query = "?limit=1" + (f"&cursor={cursor}" if cursor else "")
                        status, page = _call("GET", f"{url}/answer{query}")
                        assert status == 200, page
                        versions.add(page["graph_version"])
                        cursor = page["next_cursor"]
                        if cursor is None:
                            break
                    passes.append(versions)
            except BaseException as error:  # re-raised on the main thread below
                failures.append(error)

        readers = [threading.Thread(target=read_loop, daemon=True) for _ in range(4)]
        for reader in readers:
            reader.start()
        live = graph.copy()
        ticked = set()
        try:
            for position in range(6):
                batch = random_update_batch(live, size=3, seed=700 + position)
                status, tick = _call(
                    "POST", f"{url}/updates", {"ops": [op.as_dict() for op in batch.ops]}
                )
                assert status == 200
                ticked.add(tick["graph_version"])
                batch.apply(live)
        finally:
            stop.set()
            for reader in readers:
                reader.join(timeout=30)
        assert not any(reader.is_alive() for reader in readers)
        if failures:
            raise failures[0]
        assert len(passes) >= len(readers), "every reader must finish at least one pass"
        assert [versions for versions in passes if len(versions) != 1] == []
        # The passes really overlapped the ticks: some pinned a ticked version.
        assert ticked & {version for versions in passes for version in versions}
        _call("DELETE", url)

    def test_bad_cursor_and_bad_ops(self, server):
        graph, _rules, predicate_text = _workload(seed=12)
        _status, created = _call(
            "POST", f"{server.base_url}/sessions", _session_body(graph, predicate_text)
        )
        url = f"{server.base_url}/sessions/{created['session']}"
        assert _call("GET", f"{url}/answer?cursor=@@@")[0] == 400
        # Decodable but mistyped: the inner cursor is an int, not a string.
        mistyped = base64.urlsafe_b64encode(json.dumps([created["graph_version"], 5]).encode()).decode()
        assert _call("GET", f"{url}/answer?cursor={mistyped}")[0] == 400
        assert _call("GET", f"{url}/answer?limit=zero")[0] == 400
        assert _call("POST", f"{url}/updates", {"ops": [{"kind": "explode"}]})[0] == 400
        assert _call("POST", f"{url}/updates", {"not_ops": []})[0] == 400
        # A NaN long-poll timeout never expires: refused, not waited on.
        since = created["graph_version"]
        assert _call("GET", f"{url}/subscribe?since={since}&timeout=nan", timeout=10)[0] == 400
        _call("DELETE", url)


class TestObservabilityEndpoints:
    def test_healthz_reports_residency(self, server):
        graph, _rules, predicate_text = _workload(seed=21)
        _status, created = _call(
            "POST", f"{server.base_url}/sessions", _session_body(graph, predicate_text)
        )
        url = f"{server.base_url}/sessions/{created['session']}"
        status, health = _call("GET", f"{server.base_url}/healthz")
        assert status == 200 and health["ok"] is True
        assert health["sessions"] >= 1
        assert health["resident_nodes"] > 0
        assert health["oldest_retained_version"] <= created["graph_version"]
        _call("DELETE", url)

    def test_metrics_scrape_prometheus_text(self, server):
        from repro.obs import parse_prometheus

        graph, _rules, predicate_text = _workload(seed=22)
        _status, created = _call(
            "POST", f"{server.base_url}/sessions", _session_body(graph, predicate_text)
        )
        sid = created["session"]
        url = f"{server.base_url}/sessions/{sid}"
        _call("GET", f"{url}/answer?limit=1")

        status, content_type, text = _call_text(f"{server.base_url}/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        samples = parse_prometheus(text)  # strict: malformed lines raise
        # Request counters label by route *template*, not the concrete path.
        routes = {
            labels["route"]
            for labels, _value in samples["repro_http_requests_total"]
        }
        assert "/sessions/{session_id}/answer" in routes
        assert "/sessions" in routes
        assert not any(sid in route for route in routes)
        assert "repro_http_request_seconds_bucket" in samples
        # Per-session gauges carry the session id as a label.
        gauge_sessions = {
            labels["session"]
            for labels, _value in samples.get("repro_session_batches_applied", [])
        }
        assert sid in gauge_sessions
        sessions_gauge = samples["repro_sessions"][0][1]
        assert sessions_gauge >= 1

        # Closed sessions disappear from the per-session families on the
        # next scrape (clear-then-set, no frozen series).
        _call("DELETE", url)
        _status, _content_type, text = _call_text(f"{server.base_url}/metrics")
        samples = parse_prometheus(text)
        gauge_sessions = {
            labels["session"]
            for labels, _value in samples.get("repro_session_batches_applied", [])
        }
        assert sid not in gauge_sessions

    def test_unmatched_requests_bound_route_cardinality(self, server):
        from repro.obs import parse_prometheus

        assert _call("GET", f"{server.base_url}/no/such/route-xyz")[0] == 404
        _status, _content_type, text = _call_text(f"{server.base_url}/metrics")
        samples = parse_prometheus(text)
        unmatched = [
            (labels, value)
            for labels, value in samples["repro_http_requests_total"]
            if labels["route"] == "unmatched"
        ]
        assert unmatched
        routes = {
            labels["route"]
            for labels, _value in samples["repro_http_requests_total"]
        }
        assert "/no/such/route-xyz" not in routes


class TestSubscriptions:
    def test_deltas_match_fresh_recomputes(self, server):
        graph, rules, predicate_text = _workload(seed=13)
        _status, created = _call(
            "POST", f"{server.base_url}/sessions", _session_body(graph, predicate_text, seed=13)
        )
        url = f"{server.base_url}/sessions/{created['session']}"
        assert created["rules"] == [rule.name for rule in rules]
        status, baseline = _call("GET", f"{url}/subscribe")
        assert status == 200 and baseline["deltas"] == []
        since = baseline["resume_from"]

        config = EIPConfig(eta=0.1, num_workers=2, seed=13)
        mirror = graph.copy()
        fresh_before = api.identify(mirror, rules, config)
        expected = []
        live = graph.copy()
        for position in range(3):
            batch = random_update_batch(live, size=6, seed=1300 + position)
            status, tick = _call(
                "POST", f"{url}/updates", {"ops": [op.as_dict() for op in batch.ops]}
            )
            assert status == 200
            batch.apply(live)
            batch.apply(mirror)
            fresh_after = api.identify(mirror, rules, config)
            expected.append(
                api.diff_results(
                    fresh_before, fresh_after, tick["base_version"], tick["graph_version"]
                ).as_dict()
            )
            fresh_before = fresh_after

        status, replay = _call("GET", f"{url}/subscribe?since={since}&timeout=5")
        assert status == 200
        assert replay["deltas"] == expected
        assert replay["resume_from"] == expected[-1]["version"]
        # Incremental consumption: resuming from the last seen version
        # yields nothing new (after the long-poll window).
        status, quiet = _call(
            "GET", f"{url}/subscribe?since={replay['resume_from']}&timeout=0.2"
        )
        assert status == 200 and quiet["deltas"] == []
        # Per-rule filter keeps only that rule's diff per tick.
        rule_name = created["rules"][0]
        status, filtered = _call(
            "GET", f"{url}/subscribe?since={since}&timeout=5&rule={rule_name}"
        )
        assert status == 200
        for doc, full in zip(filtered["deltas"], expected):
            assert set(doc["rules"]) <= {rule_name}
            assert doc["rules"] == {
                name: diff for name, diff in full["rules"].items() if name == rule_name
            }
        assert _call("GET", f"{url}/subscribe?since={since}&rule=missing")[0] == 404
        _call("DELETE", url)

    def test_evicted_history_maps_to_410_resync(self, server):
        graph, _rules, predicate_text = _workload(seed=14)
        _status, created = _call(
            "POST",
            f"{server.base_url}/sessions",
            _session_body(graph, predicate_text, seed=14, history_limit=1),
        )
        url = f"{server.base_url}/sessions/{created['session']}"
        since = created["graph_version"]
        live = graph.copy()
        for position in range(3):
            batch = random_update_batch(live, size=4, seed=1400 + position)
            assert (
                _call(
                    "POST", f"{url}/updates", {"ops": [op.as_dict() for op in batch.ops]}
                )[0]
                == 200
            )
            batch.apply(live)
        status, gone = _call("GET", f"{url}/subscribe?since={since}&timeout=1")
        assert status == 410
        assert gone["resync"] is True
        _call("DELETE", url)


class TestKeepAliveConnections:
    def test_one_socket_serves_many_requests(self, server):
        import http.client
        from urllib.parse import urlsplit

        split = urlsplit(server.base_url)
        connection = http.client.HTTPConnection(split.hostname, split.port, timeout=30)
        try:
            sockets = []
            for _ in range(3):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                assert response.headers.get("Connection") == "keep-alive"
                assert json.loads(response.read().decode("utf-8"))["ok"] is True
                sockets.append(connection.sock)
            assert sockets[0] is sockets[1] is sockets[2], "connection was not reused"
        finally:
            connection.close()

    def test_connection_close_is_honoured(self, server):
        import http.client
        from urllib.parse import urlsplit

        split = urlsplit(server.base_url)
        connection = http.client.HTTPConnection(split.hostname, split.port, timeout=30)
        try:
            connection.request("GET", "/healthz", headers={"Connection": "close"})
            response = connection.getresponse()
            assert response.status == 200
            assert response.headers.get("Connection") == "close"
            response.read()
        finally:
            connection.close()


class TestSharedCores:
    def test_shared_core_fan_out_and_close_one_keep_one(self, server, tmp_path):
        from repro.graph.io import save_graph_json

        graph, _rules, predicate_text = _workload(seed=31)
        path = tmp_path / "shared-graph.json"
        save_graph_json(graph, path)
        base = {
            "graph_path": str(path),
            "predicate": predicate_text,
            "max_edges": 4,
            "d": 2,
            "seed": 31,
            "eta": 0.1,
            "workers": 2,
        }
        status, alpha = _call(
            "POST",
            f"{server.base_url}/sessions",
            {**base, "rules": RULES, "tenant": "alpha"},
        )
        assert status == 201
        assert alpha["tenant"] == "alpha" and alpha["shared_core"] is True
        assert alpha["admission"]["cold_start"] is True

        # Same seed, smaller count: beta's Σ is a prefix of alpha's, so the
        # admission is fully warm — zero novel rules, zero backfill.
        status, beta = _call(
            "POST",
            f"{server.base_url}/sessions",
            {**base, "rules": 3, "tenant": "beta"},
        )
        assert status == 201
        assert beta["admission"]["cold_start"] is False
        assert beta["admission"]["novel_rules"] == 0
        assert beta["admission"]["shared_rules"] == 3
        assert beta["admission"]["backfill_centers"] == 0

        alpha_url = f"{server.base_url}/sessions/{alpha['session']}"
        beta_url = f"{server.base_url}/sessions/{beta['session']}"
        _status, health = _call("GET", f"{server.base_url}/healthz")
        assert health["shared_cores"] == 1

        # One tick through alpha advances beta in the same version step.
        batch = random_update_batch(graph.copy(), size=4, seed=77)
        status, tick = _call(
            "POST", f"{alpha_url}/updates", {"ops": [op.as_dict() for op in batch.ops]}
        )
        assert status == 200
        _status, beta_info = _call("GET", beta_url)
        assert beta_info["graph_version"] == tick["graph_version"]
        assert beta_info["batches_applied"] == 1

        _status, _ctype, text = _call_text(f"{server.base_url}/metrics")
        assert "repro_tenant_session_shared_rules" in text
        assert "repro_shared_cores 1" in text

        # Closing alpha keeps beta's projection live on the shared core.
        assert _call("DELETE", alpha_url)[0] == 200
        status, page = _call("GET", f"{beta_url}/answer?limit=5")
        assert status == 200 and page["graph_version"] == tick["graph_version"]
        _status, health = _call("GET", f"{server.base_url}/healthz")
        assert health["shared_cores"] == 1

        # The last tenant's exit releases the core itself.
        assert _call("DELETE", beta_url)[0] == 200
        _status, health = _call("GET", f"{server.base_url}/healthz")
        assert health["shared_cores"] == 0

    def test_refused_admission_leaves_the_shared_core_as_it_was(self, server, tmp_path):
        """``history_limit: 0`` on a joinable core is a 400 naming the field:
        the member's answer is unchanged and the tenant name stays free."""
        from repro.graph.io import save_graph_json

        graph, _rules, predicate_text = _workload(seed=32)
        path = tmp_path / "refused-graph.json"
        save_graph_json(graph, path)
        base = {
            "graph_path": str(path),
            "predicate": predicate_text,
            "rules": RULES,
            "max_edges": 4,
            "d": 2,
            "seed": 32,
            "eta": 0.1,
            "workers": 2,
        }
        status, alpha = _call("POST", f"{server.base_url}/sessions", {**base, "tenant": "alpha"})
        assert status == 201
        alpha_url = f"{server.base_url}/sessions/{alpha['session']}"
        answer = _call("GET", f"{alpha_url}/answer?limit=1000")
        _status, health = _call("GET", f"{server.base_url}/healthz")
        status, doc = _call(
            "POST", f"{server.base_url}/sessions", {**base, "tenant": "ghost", "history_limit": 0}
        )
        assert status == 400 and "'history_limit' must be >= 1" in doc["error"], doc
        assert _call("GET", f"{alpha_url}/answer?limit=1000") == answer
        status, ghost = _call("POST", f"{server.base_url}/sessions", {**base, "tenant": "ghost"})
        assert status == 201 and ghost["tenant"] == "ghost", ghost
        assert _call("GET", f"{server.base_url}/healthz")[1]["shared_cores"] == health["shared_cores"]
        for created in (alpha, ghost):
            assert _call("DELETE", f"{server.base_url}/sessions/{created['session']}")[0] == 200

    def test_retired_implementation_fields_do_not_fork_the_core(self, server, tmp_path):
        """Bodies differing only by retired fields share one core.

        The index/incremental switches used to take part in the core key, so
        a tenant sending one silently got a second resident copy of the
        graph.  ``stream`` and ``share`` did too, and ``stream`` also let a
        client name a server directory that compaction wrote checkpoint
        pickles into; both are ignored now.
        """
        from repro.graph.io import save_graph_json

        graph, _rules, predicate_text = _workload(seed=33)
        path = tmp_path / "one-core.json"
        save_graph_json(graph, path)
        body = {
            "graph_path": str(path),
            "predicate": predicate_text,
            "rules": 3,
            "seed": 33,
            "eta": 0.1,
            "workers": 2,
        }
        chosen_dir = tmp_path / "client-chosen"
        retired_switches = {f"use_{name}": False for name in ("index", "incremental")}
        retired_stream = {
            "stream": {"state_dir": str(chosen_dir), "checkpoint_log_fraction": 0.01},
            "share": False,
        }
        urls = []
        for tenant, extra in (("plain", {}), ("legacy", retired_switches), ("knobs", retired_stream)):
            status, created = _call(
                "POST", f"{server.base_url}/sessions", {**body, **extra, "tenant": tenant}
            )
            assert status == 201 and created["shared_core"] is True
            urls.append(f"{server.base_url}/sessions/{created['session']}")
        _status, health = _call("GET", f"{server.base_url}/healthz")
        assert health["shared_cores"] == 1
        mirror = graph.copy()
        for position in range(3):
            batch = random_update_batch(mirror, size=8, seed=90 + position)
            batch.apply(mirror)
            status, _delta = _call(
                "POST", f"{urls[-1]}/updates", {"ops": [op.as_dict() for op in batch.ops]}
            )
            assert status == 200
        assert not chosen_dir.exists()
        for url in urls:
            assert _call("DELETE", url)[0] == 200

    def test_inline_graph_sessions_stay_private(self, server):
        """Inline-graph sessions are tenants of an anonymous core: same
        session shape, but not joinable and not counted as a shared core."""
        graph, _rules, predicate_text = _workload(seed=32)
        _status, before = _call("GET", f"{server.base_url}/healthz")
        created = []
        for _ in range(2):
            status, document = _call(
                "POST", f"{server.base_url}/sessions", _session_body(graph, predicate_text)
            )
            assert status == 201
            assert document["shared_core"] is False
            assert document["tenant"] == document["session"]
            # identical bodies did not join one another: each paid a cold start
            assert document["admission"]["cold_start"] is True
            created.append(document["session"])
        _status, health = _call("GET", f"{server.base_url}/healthz")
        assert health["shared_cores"] == before["shared_cores"]
        for sid in created:
            _call("DELETE", f"{server.base_url}/sessions/{sid}")

    def test_status_and_answer_do_not_wait_for_a_tick(self, server, tmp_path):
        """GET /sessions/{id} and /answer complete while a slow POST
        .../updates on the same core is still inside its tick."""
        import threading

        from repro.graph.io import save_graph_json

        graph, _rules, predicate_text = _workload(seed=34)
        path = tmp_path / "slow-core.json"
        save_graph_json(graph, path)
        body = {
            "graph_path": str(path),
            "predicate": predicate_text,
            "seed": 34,
            "eta": 0.1,
            "workers": 2,
        }
        urls = []
        for tenant, count in (("alpha", RULES), ("beta", 3)):
            status, created = _call(
                "POST", f"{server.base_url}/sessions", {**body, "rules": count, "tenant": tenant}
            )
            assert status == 201
            urls.append(f"{server.base_url}/sessions/{created['session']}")
        (core_handle,) = [
            handle
            for handle in server.service._cores.values()
            if str(path) in handle.key
        ]
        identifier = core_handle.core.identifier
        in_tick, release = threading.Event(), threading.Event()
        real_apply = identifier.apply

        def slow_apply(batch):
            in_tick.set()
            release.wait(timeout=30)
            return real_apply(batch)

        identifier.apply = slow_apply
        batch = random_update_batch(graph.copy(), size=4, seed=78)
        ticks = []
        writer = threading.Thread(
            target=lambda: ticks.append(
                _call("POST", f"{urls[0]}/updates", {"ops": [op.as_dict() for op in batch.ops]})
            )
        )
        try:
            writer.start()
            assert in_tick.wait(timeout=10)
            reads = []
            for url in urls:
                reads.append(_call("GET", url, timeout=5))
                reads.append(_call("GET", f"{url}/answer?limit=2", timeout=5))
            assert not ticks  # every read returned before the tick did
        finally:
            release.set()
            writer.join(timeout=30)
        assert [status for status, _doc in reads] == [200] * 4
        (tick_status, tick), = ticks
        assert tick_status == 200
        assert all(doc["graph_version"] == tick["base_version"] for _status, doc in reads)
        for url in urls:
            assert _call("DELETE", url)[0] == 200
