"""Wall-clock timing helpers used by the parallel runtime and benches."""

from __future__ import annotations

import time


class Stopwatch:
    """A restartable stopwatch measuring elapsed wall-clock seconds.

    Example
    -------
    >>> watch = Stopwatch()
    >>> watch.start()
    >>> _ = sum(range(1000))
    >>> elapsed = watch.stop()
    >>> elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self._started_at: float | None = None
        self.total: float = 0.0

    def start(self) -> "Stopwatch":
        """Start (or restart) timing; returns self for chaining."""
        self._started_at = time.perf_counter()
        return self

    def stop(self) -> float:
        """Stop timing and return the elapsed seconds of this interval."""
        if self._started_at is None:
            raise RuntimeError(
                "Stopwatch.stop() called while not running: either start() "
                "was never called or the interval was already stopped; use "
                "peek() for a non-destructive read"
            )
        elapsed = time.perf_counter() - self._started_at
        self.total += elapsed
        self._started_at = None
        return elapsed

    def peek(self) -> float:
        """Elapsed seconds of the current interval without stopping it.

        Returns 0.0 when the stopwatch is not running, so callers (e.g. the
        span timer in :mod:`repro.obs.tracing`) can read it unconditionally.
        """
        if self._started_at is None:
            return 0.0
        return time.perf_counter() - self._started_at

    def __enter__(self) -> "Stopwatch":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
