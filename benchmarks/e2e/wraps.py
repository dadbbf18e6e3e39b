"""Spans around the public entry points of each layer, from one table.

The traced pass records spans *from the benchmark's own files*: each row of
:data:`WRAPS` names an attribute reachable from an importable module and the
span to record around every call of it.  :func:`install` replaces the
attribute with a wrapper built on :func:`repro.obs.span` and fails loudly
when a row no longer resolves, so a refactor that moves an entry point
breaks the traced pass instead of silently attributing nothing.  Spans that
already exist inside ``src/`` (``stream.*``, ``index.refresh``,
``columnar.*``, ``eip.*``, ``dmine.*``) nest under these as children; a
layer's time is the self time of its spans.

Functions imported by name (``from x import f``) are bound in the importing
module, so such rows name the *consumer* module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from typing import NamedTuple

from repro.obs import span


class Wrap(NamedTuple):
    module: str
    qualname: str
    span: str


WRAPS: tuple[Wrap, ...] = (
    # serve: HTTP handler and JSON codec (``read_request`` is left out on
    # purpose — on a keep-alive connection its duration is the idle wait)
    Wrap("repro.serve.app", "ReproService.dispatch", "serve.dispatch"),
    Wrap("repro.serve.http", "Request.json", "serve.decode"),
    Wrap("repro.serve.app", "ops_from_json", "serve.decode"),
    Wrap("repro.serve.http", "Response.encode", "serve.encode"),
    # api: the session facade
    Wrap("repro.api", "mine", "api.mine"),
    Wrap("repro.api", "identify", "api.identify"),
    Wrap("repro.api", "open_session", "api.open_session"),
    Wrap("repro.api", "open_shared_core", "api.open_session"),
    Wrap("repro.api", "SharedSessionCore.open_session", "api.admit"),
    Wrap("repro.api", "Session.apply", "api.apply"),
    Wrap("repro.api", "SharedSessionCore.apply", "api.apply"),
    Wrap("repro.api", "Session.answer", "api.answer"),
    Wrap("repro.api", "Session.deltas", "api.deltas"),
    # stream: the coordinator tick and the multi-tenant fan-out
    Wrap("repro.stream.identifier", "StreamingIdentifier.apply", "stream.apply"),
    Wrap("repro.stream.multitenant", "MultiTenantIdentifier.apply", "stream.tenant_apply"),
    Wrap("repro.stream.multitenant", "MultiTenantIdentifier.admit", "stream.tenant_admit"),
    Wrap("repro.stream.multitenant", "MultiTenantIdentifier.result_for", "stream.tenant_project"),
    # partition: fragment lifecycle
    Wrap("repro.partition.lifecycle", "FragmentManager.derive_batch", "partition.derive_batch"),
    Wrap("repro.partition.lifecycle", "FragmentManager.lease", "partition.lease"),
    Wrap("repro.partition.lifecycle", "FragmentManager.maybe_compact", "partition.maybe_compact"),
    Wrap("repro.stream.identifier", "partition_graph", "partition.partition_graph"),
    Wrap("repro.identification.matchc", "partition_graph", "partition.partition_graph"),
    Wrap("repro.mining.dmine", "partition_graph", "partition.partition_graph"),
    # parallel: one BSP round, whatever the backend
    Wrap("repro.parallel.runtime", "BSPRuntime.run_round", "parallel.run_round"),
    # graph: the region BFS of every tick, graph decode at session open
    Wrap("repro.stream.identifier", "multi_source_ball", "graph.ball"),
    Wrap("repro.serve.app", "graph_from_dict", "graph.load"),
    Wrap("repro.serve.app", "load_graph_json", "graph.load"),
    # identification / mining / datasets: the batch algorithms and Σ sampling
    Wrap("repro.identification.matchc", "MatchC.identify", "identification.identify"),
    Wrap("repro.mining.dmine", "DMine.mine", "mining.mine"),
    Wrap("repro.serve.app", "generate_gpars", "datasets.generate_gpars"),
)


def _resolve(row: Wrap):
    """``(owner, attribute name, current value)`` of a table row; raises when gone."""
    try:
        owner = importlib.import_module(row.module)
    except ImportError as exc:
        raise LookupError(f"wrap table: module {row.module} is gone ({exc})") from exc
    *path, name = row.qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"wrap table: {row.module}.{row.qualname} no longer exists")
    target = inspect.getattr_static(owner, name, None)
    if target is None:
        raise LookupError(f"wrap table: {row.module}.{row.qualname} no longer exists")
    return owner, name, target


def _traced(function, name: str):
    if inspect.iscoroutinefunction(function):

        @functools.wraps(function)
        async def async_wrapper(*args, **kwargs):
            with span(name):
                return await function(*args, **kwargs)

        return async_wrapper

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with span(name):
            return function(*args, **kwargs)

    return wrapper


def resolve_all() -> list[str]:
    """Every row's dotted target; raises ``LookupError`` on the first missing one."""
    return [f"{row.module}.{row.qualname}" for row in WRAPS if _resolve(row)]


def install() -> None:
    """Wrap every entry point of :data:`WRAPS` in its span (idempotent)."""
    for row in WRAPS:
        owner, name, target = _resolve(row)
        function = target.__func__ if isinstance(target, (staticmethod, classmethod)) else target
        if getattr(function, "_e2e_span", None) == row.span:
            continue
        wrapped = _traced(function, row.span)
        wrapped._e2e_span = row.span
        if isinstance(target, staticmethod):
            wrapped = staticmethod(wrapped)
        elif isinstance(target, classmethod):
            wrapped = classmethod(wrapped)
        setattr(owner, name, wrapped)
