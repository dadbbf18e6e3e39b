"""Minimal HTTP/1.1 plumbing for :mod:`repro.serve`.

The runtime dependency set of this repository is intentionally empty, so the
service speaks just enough HTTP itself on top of ``asyncio`` streams:
persistent connections with HTTP/1.1 keep-alive semantics (HTTP/1.0 peers
and ``Connection: close`` requests still get one response per connection),
JSON bodies bounded by ``Content-Length``, and a small regex router with
``{name}`` path parameters.  This is a serving boundary for the
reproduction — not a general-purpose web server — and the subset below is
exactly what the endpoint contract in ``docs/serving.md`` needs.
"""

from __future__ import annotations

import asyncio
import json
import math
import re
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable
from urllib.parse import parse_qsl, urlsplit

from repro.exceptions import ReproError

MAX_BODY_BYTES = 32 * 1024 * 1024  # inline graph documents can be large
MAX_HEADER_LINES = 100

_STATUS_PHRASES = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    410: "Gone",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class ProtocolError(ReproError):
    """The client sent something that is not the HTTP subset we speak."""


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes = b""
    version: str = "HTTP/1.1"

    @property
    def keep_alive(self) -> bool:
        """Whether the connection should stay open after the response.

        HTTP/1.1 defaults to persistent connections unless the client sent
        ``Connection: close``; HTTP/1.0 closes unless the client opted in
        with ``Connection: keep-alive``.
        """
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"

    def json(self) -> Any:
        """The request body decoded as JSON (``None`` when empty)."""
        if not self.body:
            return None
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}") from exc

    def query_int(self, name: str, default: int | None = None) -> int | None:
        raw = self.query.get(name)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ProtocolError(f"query parameter {name!r} must be an integer, got {raw!r}") from None

    def query_float(self, name: str, default: float | None = None) -> float | None:
        raw = self.query.get(name)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError:
            raise ProtocolError(f"query parameter {name!r} must be a number, got {raw!r}") from None
        if not math.isfinite(value):  # a NaN long-poll timeout never expires
            raise ProtocolError(f"query parameter {name!r} must be finite, got {raw!r}")
        return value


@dataclass
class Response:
    """One response: JSON via ``payload`` (the default) or plain ``text``.

    Every session endpoint speaks JSON; ``text`` exists for the Prometheus
    exposition of ``GET /metrics``, whose content type the scrape protocol
    fixes (``content_type`` overrides the default of either body form).
    """

    status: int = 200
    payload: Any = None
    headers: dict[str, str] = field(default_factory=dict)
    text: str | None = None
    content_type: str | None = None

    def encode(self, keep_alive: bool = False) -> bytes:
        body = b""
        default_type = "application/json"
        if self.text is not None:
            body = self.text.encode("utf-8")
            default_type = "text/plain; charset=utf-8"
        elif self.payload is not None:
            body = json.dumps(self.payload, sort_keys=True, default=str).encode("utf-8")
        phrase = _STATUS_PHRASES.get(self.status, "Unknown")
        lines = [
            f"HTTP/1.1 {self.status} {phrase}",
            f"Content-Type: {self.content_type or default_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in self.headers.items():
            lines.append(f"{name}: {value}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one request from *reader*; ``None`` when the peer closed first."""
    try:
        request_line = await reader.readline()
    except (ConnectionError, asyncio.IncompleteReadError):
        return None
    if not request_line:
        return None
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(f"malformed request line {request_line!r}")
    method, target, version = parts

    headers: dict[str, str] = {}
    for _ in range(MAX_HEADER_LINES):
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        text = line.decode("latin-1").strip()
        name, _, value = text.partition(":")
        if not _:
            raise ProtocolError(f"malformed header line {text!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise ProtocolError("too many header lines")

    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        try:
            length = int(length_text)
        except ValueError:
            raise ProtocolError(f"malformed Content-Length {length_text!r}") from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise ProtocolError(f"Content-Length {length} outside [0, {MAX_BODY_BYTES}]")
        if length:
            body = await reader.readexactly(length)

    split = urlsplit(target)
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    return Request(
        method=method.upper(),
        path=split.path,
        query=query,
        headers=headers,
        body=body,
        version=version.upper(),
    )


Handler = Callable[..., Awaitable[Response]]

_PARAM_PATTERN = re.compile(r"\{([a-zA-Z_][a-zA-Z0-9_]*)\}")


def _compile_route(template: str) -> re.Pattern:
    """``/sessions/{id}/answer`` → anchored regex with named groups."""
    pattern = _PARAM_PATTERN.sub(lambda match: f"(?P<{match.group(1)}>[^/]+)", re.escape(template).replace(r"\{", "{").replace(r"\}", "}"))
    return re.compile(f"^{pattern}$")


class Router:
    """Method + path-template dispatch with ``{name}`` parameters."""

    def __init__(self) -> None:
        self._routes: list[tuple[str, str, re.Pattern, Handler]] = []

    def add(self, method: str, template: str, handler: Handler) -> None:
        self._routes.append((method.upper(), template, _compile_route(template), handler))

    def resolve(self, method: str, path: str) -> tuple[Handler, dict[str, str], str]:
        """The matching (handler, path params, route template).

        The template (``/sessions/{session_id}/answer``, not the concrete
        path) is what request metrics label by, keeping cardinality bounded.
        """
        allowed: list[str] = []
        for route_method, template, pattern, handler in self._routes:
            match = pattern.match(path)
            if match is None:
                continue
            if route_method != method:
                allowed.append(route_method)
                continue
            return handler, match.groupdict(), template
        if allowed:
            raise RouteError(405, f"{method} not allowed on {path} (try {sorted(set(allowed))})")
        raise RouteError(404, f"no route for {path}")


class RouteError(ReproError):
    """Routing failure carrying the HTTP status it should map to."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
