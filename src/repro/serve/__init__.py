"""EIP-as-a-service: an asyncio HTTP boundary over :mod:`repro.api` sessions.

The paper frames EIP as a one-shot batch answer; :mod:`repro.stream` already
keeps that answer continuously correct under graph mutation, and this
package is the serving boundary that turns it into a product surface —
paginated, version-pinned answer reads, update ticks, and per-rule delta
subscriptions (see ``docs/serving.md``).

Dependency-free by design: the HTTP subset is hand-rolled on ``asyncio``
streams in :mod:`repro.serve.http`; the application and the embeddable
:class:`BackgroundServer` live in :mod:`repro.serve.app`.
"""

from repro.serve.app import BackgroundServer, ReproService, ops_from_json, run_foreground
from repro.serve.http import ProtocolError, Request, Response, RouteError, Router

__all__ = [
    "BackgroundServer",
    "ReproService",
    "run_foreground",
    "ops_from_json",
    "ProtocolError",
    "Request",
    "Response",
    "RouteError",
    "Router",
]
