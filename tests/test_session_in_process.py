"""A session is one graph in one process.

* a tick whose verify raises is recovered in the same call: the session
  publishes an answer rebuilt from the current graph, and every later tick
  still equals a fresh ``api.identify``;
* when the rebuild raises too, the identifier closes and every later read
  and write is a :class:`~repro.exceptions.StreamError`;
* an admission whose backfill verify raises admits nothing, so its retry
  backfills the same rules again;
* a session configured for the ``processes`` backend starts no process:
  ``backend`` / ``num_workers`` steer only the batch recompute.
"""

from __future__ import annotations

import gc
import multiprocessing

import pytest

from repro import api
from repro.datasets import generate_gpars, pokec_like
from repro.exceptions import StreamError
from repro.identification import EIPConfig
from repro.identification.match import Match
from repro.obs import registry
from repro.stream import random_update_batch
from repro.testing import counter_value, eip_fingerprint

PREDICATE = "user:like_book:personal development"
CONFIG = EIPConfig(eta=0.5, num_workers=2)


def _serving(seed: int):
    """``pokec_like(200, 6)`` with the Σ the repo benchmark serves (8 rules,
    at most 3 edges, d = 2, Σ seed 5)."""
    graph = pokec_like(200, 6, seed=seed)
    rules = generate_gpars(graph, api.parse_predicate(PREDICATE), count=8, max_pattern_edges=3, d=2, seed=5)
    return graph, rules


def _failing(monkeypatch, calls: int) -> list:
    """Make the next *calls* verifications raise ``MemoryError``; returns the
    list the injected failures are counted in."""
    failed: list = []
    original = Match._verify_fragment

    def verify(self, graph, centres, rules, matcher, predicate, recheck=None):
        if len(failed) < calls:
            failed.append(True)
            raise MemoryError("injected")
        return original(self, graph, centres, rules, matcher, predicate, recheck)

    monkeypatch.setattr(Match, "_verify_fragment", verify)
    return failed


@pytest.mark.parametrize("seed", range(12))
def test_a_failed_tick_never_serves_a_wrong_answer(monkeypatch, seed):
    graph, rules = _serving(seed)
    with api.open_session(graph, rules, config=CONFIG) as session:
        recovered = counter_value(registry(), "repro_stream_recovered_ticks_total")
        failed = _failing(monkeypatch, calls=1)
        for position in range(7):
            _report, delta = session.apply(random_update_batch(graph, size=8, seed=100 * seed + position))
            assert counter_value(registry(), "repro_stream_recovered_ticks_total") - recovered == 1
            assert delta.version == graph.version == session.graph_version
            fresh = api.identify(graph.copy(), rules, CONFIG)
            assert eip_fingerprint(session.result) == eip_fingerprint(fresh), (seed, position)
        assert failed == [True]


def test_a_failed_rebuild_closes_the_identifier(monkeypatch):
    graph, rules = _serving(0)
    with api.open_session(graph, rules, config=CONFIG) as session:
        identifier = session.core.identifier
        published = session.graph_version
        _failing(monkeypatch, calls=2)  # the tick's verify, then the rebuild's
        with pytest.raises(StreamError, match="closed"):
            session.apply(random_update_batch(graph, size=8, seed=1))
        assert session.graph_version == published, "nothing is published for the failed tick"
        monkeypatch.undo()  # verification works again; the identifier stays closed
        batch = random_update_batch(graph.copy(), size=8, seed=2)
        for attempt in (
            lambda: identifier.result,
            lambda: identifier.state_dict(),
            lambda: identifier.apply(batch),
            lambda: identifier.admit_rules(rules[:1]),
            lambda: identifier.retire_rules(rules[:1]),
            lambda: session.apply(batch),
        ):
            with pytest.raises(StreamError):
                attempt()


def test_a_failed_admission_backfill_admits_nothing(monkeypatch):
    """A tenant whose backfill verify raises leaves Σ as it was: its retried
    admission backfills the same rules again, and both tenants' answers
    equal a fresh ``api.identify``."""
    graph = pokec_like(200, 6, seed=1)
    predicate = api.parse_predicate(PREDICATE)
    rules = generate_gpars(pokec_like(100, 4), predicate, count=10, max_pattern_edges=3, d=2, seed=7)
    with api.open_shared_core(graph, CONFIG, radius_floor=6) as core:
        first = core.open_session("a", rules[:5])
        resident = core.identifier.rules
        failed = _failing(monkeypatch, calls=1)
        with pytest.raises(MemoryError):
            core.open_session("b", rules[5:])
        assert failed == [True]
        assert core.identifier.rules == resident
        second = core.open_session("b", rules[5:])
        assert second.admission.novel_rules == 5
        for session, sigma in ((first, rules[:5]), (second, rules[5:])):
            fresh = api.identify(graph.copy(), sigma, CONFIG)
            assert fresh.identified, "the gate compares a real answer"
            assert eip_fingerprint(session.result) == eip_fingerprint(fresh), session.tenant


def test_a_processes_session_starts_no_process():
    gc.collect()  # a kept identify pool of an earlier test goes with its graph
    before = multiprocessing.active_children()
    graph, rules = _serving(3)
    mirror, batches = graph.copy(), []
    for position in range(3):
        batches.append(random_update_batch(mirror, size=8, seed=position))
        batches[-1].apply(mirror)
    answers = {}
    for backend in ("sequential", "processes"):
        config = EIPConfig(eta=0.5, num_workers=2, backend=backend, executor_workers=2)
        core = api.open_shared_core(graph.copy(), config)
        seen = []
        with core:
            session = core.open_session("first", rules[:5])
            assert multiprocessing.active_children() == before
            for batch in batches:
                session.apply(batch)
                seen.append(eip_fingerprint(session.result))
                assert multiprocessing.active_children() == before
            later = core.open_session("second", rules[3:])
            seen.append(eip_fingerprint(later.result))
            assert multiprocessing.active_children() == before
        assert multiprocessing.active_children() == before
        answers[backend] = seen
    assert answers["processes"] == answers["sequential"]
    assert all(answer[0] for answer in answers["sequential"]), "the gate compares real answers"
