"""Tests for utilities and the exception hierarchy."""

import random

import pytest

from repro.exceptions import (
    EdgeNotFoundError,
    GraphError,
    NodeNotFoundError,
    ReproError,
)
from repro.utils import Stopwatch, ensure_rng


class TestRng:
    def test_none_gives_fresh_rng(self):
        assert isinstance(ensure_rng(None), random.Random)

    def test_int_seed_is_deterministic(self):
        assert ensure_rng(42).random() == ensure_rng(42).random()

    def test_existing_rng_passthrough(self):
        rng = random.Random(1)
        assert ensure_rng(rng) is rng

    def test_invalid_types_rejected(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")
        with pytest.raises(TypeError):
            ensure_rng(True)


class TestStopwatch:
    def test_measures_elapsed(self):
        watch = Stopwatch()
        watch.start()
        elapsed = watch.stop()
        assert elapsed >= 0.0
        assert watch.total == pytest.approx(elapsed)

    def test_stop_without_start(self):
        with pytest.raises(RuntimeError):
            Stopwatch().stop()

    def test_context_manager(self):
        watch = Stopwatch()
        with watch:
            pass
        assert watch.total >= 0.0
        assert watch.peek() == 0.0


class TestExceptionHierarchy:
    def test_all_errors_are_repro_errors(self):
        assert issubclass(GraphError, ReproError)
        assert issubclass(NodeNotFoundError, GraphError)
        assert issubclass(NodeNotFoundError, KeyError)
        assert issubclass(EdgeNotFoundError, KeyError)

    def test_messages_mention_offenders(self):
        assert "ghost" in str(NodeNotFoundError("ghost"))
        assert "like" in str(EdgeNotFoundError("a", "b", "like"))
