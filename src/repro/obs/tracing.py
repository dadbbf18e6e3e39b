"""Lightweight span tracing for the coordinator/worker pipeline.

A :class:`Tracer` records *spans* — named, timed, attributed intervals with
explicit parent ids — as plain dicts, one per completed span:

``{"span_id", "parent_id", "name", "start", "duration", "attrs"}``

Ids are deterministic per tracer (``s1``, ``s2``, … in completion order of
allocation — a counter, never wall clock or randomness), parents come from a
per-thread stack, and ``start`` is the offset in seconds from the tracer's
creation.  Worker processes build their own short-lived tracer, ship its
records back inside the round result, and the coordinator re-parents them
under the enclosing round span via :meth:`Tracer.adopt` with an id prefix —
so one trace file covers coordinator and worker phases with a consistent
tree.

The module-level :func:`span`/:func:`event` helpers are the no-op fast
path: with no tracer installed they cost one thread-local read and a
``None`` check, which is what keeps instrumentation off the hot path when
disabled (the ``obs`` smoke gate holds the total overhead to 5 %).
:func:`install` activates a tracer process-globally (the coordinator / CLI
``--trace-out`` case); :func:`override_tracer` routes one thread's spans
into a specific tracer (the worker case — safe when the HTTP service ticks
several sessions at once on its thread pool, whose sequential workers must
not interleave into one global).

Traces dump as JSON-lines (:meth:`Tracer.dump_jsonl`, one span per line)
and load with :func:`load_trace`; ``repro trace`` renders the per-phase
time breakdown.  See ``docs/observability.md`` for the span taxonomy.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from pathlib import Path

from repro.utils.timing import Stopwatch

__all__ = [
    "Tracer",
    "active",
    "event",
    "install",
    "load_trace",
    "override_tracer",
    "span",
    "tracing_enabled",
    "uninstall",
]

_MISSING = object()


class _NoopSpan:
    """Stand-in handle yielded when no tracer is active."""

    __slots__ = ()
    span_id = ""

    def set(self, **attrs) -> "_NoopSpan":
        return self


NOOP_SPAN = _NoopSpan()


class SpanHandle:
    """Live handle of an open span: attach attributes to it."""

    __slots__ = ("name", "span_id", "parent_id", "attrs", "_watch")

    def __init__(self, name: str, span_id: str, parent_id: str | None) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs: dict = {}
        self._watch = Stopwatch().start()

    def set(self, **attrs) -> "SpanHandle":
        """Attach attributes (JSON-scalar values) to the span; returns self."""
        self.attrs.update(attrs)
        return self


class Tracer:
    """Collects span records; one per traced run (or per traced worker call)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: list[dict] = []
        self._sequence = 0
        self._local = threading.local()
        self._epoch = Stopwatch().start()

    # ------------------------------------------------------------------
    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> str:
        with self._lock:
            self._sequence += 1
            return f"s{self._sequence}"

    @contextmanager
    def span(self, name: str, **attrs):
        """Open a child span of this thread's current span; yields its handle."""
        stack = self._stack()
        parent_id = stack[-1] if stack else None
        handle = SpanHandle(name, self._next_id(), parent_id)
        handle.attrs.update(attrs)
        start = self._epoch.peek()
        stack.append(handle.span_id)
        try:
            yield handle
        finally:
            duration = handle._watch.stop()
            stack.pop()
            with self._lock:
                self._records.append(
                    {
                        "span_id": handle.span_id,
                        "parent_id": handle.parent_id,
                        "name": name,
                        "start": start,
                        "duration": duration,
                        "attrs": handle.attrs,
                    }
                )

    def event(self, name: str, **attrs) -> None:
        """Record a zero-duration span (checkpoint-style markers)."""
        stack = self._stack()
        with self._lock:
            self._sequence += 1
            self._records.append(
                {
                    "span_id": f"s{self._sequence}",
                    "parent_id": stack[-1] if stack else None,
                    "name": name,
                    "start": self._epoch.peek(),
                    "duration": 0.0,
                    "attrs": dict(attrs),
                }
            )

    def adopt(
        self, records: list[dict], parent_id: str | None = None, prefix: str = ""
    ) -> None:
        """Append shipped records, re-parenting their roots under *parent_id*.

        Every adopted id gains *prefix* (callers make it unique per worker
        and tick, e.g. ``"t3.w1."``), so one coordinator trace can absorb
        many workers' records without id collisions; non-root parents are
        rewritten with the same prefix to keep the subtree intact.
        """
        with self._lock:
            for record in records:
                adopted = dict(record)
                adopted["span_id"] = prefix + record["span_id"]
                original_parent = record.get("parent_id")
                adopted["parent_id"] = (
                    prefix + original_parent if original_parent else parent_id
                )
                self._records.append(adopted)

    # ------------------------------------------------------------------
    def records(self) -> list[dict]:
        """Copy of the completed span records (dicts, JSON-ready)."""
        with self._lock:
            return list(self._records)

    def dump_jsonl(self, path: Path | str) -> Path:
        """Write one JSON object per line; the ``--trace-out`` format."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records():
                handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")
        return path


def load_trace(path: Path | str) -> list[dict]:
    """Parse a ``--trace-out`` JSON-lines file back into span records."""
    records = []
    with open(Path(path), "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


# ----------------------------------------------------------------------
# module-level no-op fallback (the disabled-by-default fast path)
# ----------------------------------------------------------------------
_ACTIVE: Tracer | None = None
_LOCAL = threading.local()


def active() -> Tracer | None:
    """This thread's tracer: the override if set, else the installed one."""
    override = getattr(_LOCAL, "tracer", _MISSING)
    if override is not _MISSING:
        return override
    return _ACTIVE


def tracing_enabled() -> bool:
    """Whether spans recorded on this thread go anywhere."""
    return active() is not None


def install(tracer: Tracer) -> Tracer:
    """Activate *tracer* process-globally; returns it for chaining."""
    global _ACTIVE
    _ACTIVE = tracer
    return tracer


def uninstall() -> Tracer | None:
    """Deactivate and return the installed tracer (``None`` when idle)."""
    global _ACTIVE
    tracer, _ACTIVE = _ACTIVE, None
    return tracer


@contextmanager
def override_tracer(tracer: Tracer | None):
    """Route this thread's module-level spans into *tracer* for the block.

    Used by traced worker functions: each concurrent worker records into its
    own tracer (shipped back with the round result) instead of interleaving
    into the coordinator's installed tracer.
    """
    previous = getattr(_LOCAL, "tracer", _MISSING)
    _LOCAL.tracer = tracer
    try:
        yield tracer
    finally:
        if previous is _MISSING:
            del _LOCAL.tracer
        else:
            _LOCAL.tracer = previous


@contextmanager
def span(name: str, **attrs):
    """Record a span on the active tracer, or no-op when none is installed."""
    tracer = active()
    if tracer is None:
        yield NOOP_SPAN
        return
    with tracer.span(name, **attrs) as handle:
        yield handle


def event(name: str, **attrs) -> None:
    """Record a zero-duration marker on the active tracer (no-op when idle)."""
    tracer = active()
    if tracer is not None:
        tracer.event(name, **attrs)
