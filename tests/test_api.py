"""The :mod:`repro.api` entry layer: pagination, sessions, deltas, configs.

Covers the serving semantics the HTTP boundary builds on, without HTTP:

* ``EIPResult.pages`` — a deterministic ``(entity id, rule index)`` total
  order with stable opaque cursors;
* ``Session.answer`` — pagination pinned to one ``Graph.version`` snapshot
  even while update batches tick the session forward;
* ``Session.deltas`` — per-tick deltas equal to the set-difference of
  fresh recomputes across seeded random batches (the pattern of
  ``tests/test_stream_equivalence.py``);
* explicit config objects end-to-end, with the legacy
  ``StreamingIdentifier(**config_overrides)`` path warning once and the
  re-entrant ``apply()`` guard rejecting interleaved ticks.
"""

from __future__ import annotations

import base64
import json
import threading

import pytest

from repro import api
from repro.datasets import generate_gpars, most_frequent_predicates, synthetic_graph
from repro.exceptions import IdentificationError, StreamError
from repro.identification import EIPConfig, identify_entities
from repro.mining import DMineConfig
from repro.stream import StreamingIdentifier, random_update_batch

SEEDS = range(10)


def _workload(seed: int = 5, num_rules: int = 6):
    graph = synthetic_graph(
        num_nodes=60 + (seed % 5) * 15,
        num_edges=180 + (seed % 7) * 40,
        num_node_labels=4 + (seed % 3),
        num_edge_labels=3,
        seed=seed,
    )
    predicate = most_frequent_predicates(graph, top=1)[0]
    rules = generate_gpars(graph, predicate, count=num_rules, seed=seed + 1)
    return graph, rules


def _cursor(payload) -> str:
    return base64.urlsafe_b64encode(json.dumps(payload).encode()).decode()


class TestPages:
    def test_total_order_is_entity_then_rule_index(self):
        graph, rules = _workload()
        result = identify_entities(graph, rules, eta=0.1)
        entries = result.answer_entries()
        keys = [(str(entry.entity), entry.rule_index) for entry in entries]
        assert keys == sorted(keys)
        assert len(entries) == sum(
            len(result.rule_matches[rule]) for rule in result.accepted_rules
        )

    def test_pages_cover_everything_once_and_cursors_are_stable(self):
        graph, rules = _workload()
        result = identify_entities(graph, rules, eta=0.1)
        full = result.answer_entries()
        assert full, "workload must identify something for pagination to mean anything"
        collected = []
        cursor = None
        pages = 0
        while True:
            page = result.pages(cursor=cursor, limit=2)
            assert page.total == len(full)
            collected.extend(page.entries)
            pages += 1
            if page.next_cursor is None:
                break
            # A cursor is a resumption key, not an offset: re-requesting the
            # same page yields byte-identical entries.
            again = result.pages(cursor=cursor, limit=2)
            assert again.entries == page.entries
            cursor = page.next_cursor
        assert collected == full
        assert pages == (len(full) + 1) // 2

    def test_malformed_cursor_and_bad_limit(self):
        graph, rules = _workload()
        result = identify_entities(graph, rules, eta=0.1)
        with pytest.raises(IdentificationError):
            result.pages(cursor="not-base64!!")
        with pytest.raises(IdentificationError):
            result.pages(cursor="aGVsbG8=")  # valid b64, not a [entity, index] pair
        with pytest.raises(IdentificationError):
            result.pages(limit=0)

    @pytest.mark.parametrize(
        "payload",
        [[3, 5], ["x", None], ["a", "b"], ["a", 1.0], ["a", True], ["a"], ["a", 1, 2], {"a": 1}],
        ids=["int-entity", "none-index", "str-index", "float-index", "bool-index", "short", "long", "object"],
    )
    def test_a_decodable_cursor_of_the_wrong_types_is_refused(self, payload):
        """A result cursor is ``[entity key: str, rule index: int]``; anything
        else that decodes is as malformed as a cursor that does not."""
        graph, rules = _workload()
        result = identify_entities(graph, rules, eta=0.1)
        with pytest.raises(IdentificationError):
            result.pages(cursor=_cursor(payload))
        with api.open_session(graph, rules, config=EIPConfig(eta=0.1)) as session:
            version = session.graph_version
            outers = ([version, _cursor(payload)], [version, 5], [str(version), None], [float(version), None])
            for outer in outers:
                with pytest.raises(IdentificationError):
                    session.answer(cursor=_cursor(outer))

    def test_order_is_sorted_once_and_callers_get_their_own_list(self):
        graph, rules = _workload()
        result = identify_entities(graph, rules, eta=0.1)
        rule = result.accepted_rules[0]
        # Two entities that render alike tie on the sort key: the order must
        # not fall back on comparing entries.
        result.rule_matches[rule] = frozenset(result.rule_matches[rule]) | {7, "7"}
        first = result.answer_entries()
        assert {entry.entity for entry in first} >= {7, "7"}
        first.clear()  # a caller's list, not the memo
        again = result.answer_entries()
        assert again and result._ordered[0] == tuple(again)
        page = result.pages(limit=len(again))
        assert list(page.entries) == again and page.next_cursor is None

    def test_entries_serialize(self):
        graph, rules = _workload()
        result = identify_entities(graph, rules, eta=0.1)
        for entry in result.answer_entries():
            doc = entry.as_dict()
            assert set(doc) == {"entity", "rule_index", "rule", "confidence"}
            json.dumps(doc)


class TestFacades:
    def test_mine_and_identify_take_explicit_configs(self):
        graph, rules = _workload()
        predicate = most_frequent_predicates(graph, top=1)[0]
        mined = api.mine(graph, predicate, DMineConfig(k=2, sigma=2, max_edges=2))
        assert mined.num_rules_discovered >= 0
        result = api.identify(graph, rules, EIPConfig(eta=0.1), algorithm="matchc")
        baseline = identify_entities(graph, rules, eta=0.1, algorithm="matchc")
        assert result.identified == baseline.identified
        assert result.rule_confidences == baseline.rule_confidences

    def test_identify_rejects_unknown_algorithm(self):
        """One batch solver registry, one refusal: both entry points raise
        the batch error, not a streaming one."""
        graph, rules = _workload()
        for identify in (
            lambda: api.identify(graph, rules, algorithm="nope"),
            lambda: identify_entities(graph, rules, algorithm="nope"),
        ):
            with pytest.raises(IdentificationError, match="'nope'"):
                identify()

    def test_parse_predicate(self):
        predicate = api.parse_predicate("user:like_book:self help")
        edge = predicate.edges()[0]
        assert predicate.label(predicate.x) == "user"
        assert edge.label == "like_book"
        assert predicate.label(predicate.y) == "self help"
        for bad in ("user:like_book", "a:b:c:d", "a::c"):
            with pytest.raises(ValueError):
                api.parse_predicate(bad)


class TestConfigDeprecation:
    def test_open_session_never_warns(self, recwarn):
        graph, rules = _workload()
        with api.open_session(graph, rules, config=EIPConfig(eta=0.1)):
            pass
        assert not [w for w in recwarn if w.category is DeprecationWarning]


class TestApplyGuard:
    def test_second_concurrent_apply_is_rejected(self):
        graph, rules = _workload()
        with StreamingIdentifier(graph, rules, config=EIPConfig(eta=0.1)) as identifier:
            batch = random_update_batch(graph, size=4, seed=9)
            # Deterministically simulate an in-flight apply() on another
            # thread by holding its non-blocking guard.
            assert identifier._apply_guard.acquire(blocking=False)
            try:
                with pytest.raises(StreamError, match="already in progress"):
                    identifier.apply(batch)
            finally:
                identifier._apply_guard.release()
            # Released: the same batch applies fine.
            identifier.apply(batch)

    def test_session_serializes_writers_instead(self):
        graph, rules = _workload()
        with api.open_session(graph, rules, config=EIPConfig(eta=0.1)) as session:
            batches = [random_update_batch(graph, size=3, seed=50 + i) for i in range(2)]
            # Sampled against the same graph state, both batches stay valid
            # whichever order the threads win the write lock.
            errors: list[BaseException] = []

            def write(batch):
                try:
                    session.apply(batch)
                except BaseException as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=write, args=(b,)) for b in batches]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert session.core.multi.identifier.batches_applied == 2


class TestSessionSnapshots:
    def test_pagination_is_pinned_across_ticks(self):
        graph, rules = _workload()
        with api.open_session(graph, rules, config=EIPConfig(eta=0.1)) as session:
            first_page, version = session.answer(limit=1)
            assert version == session.graph_version
            baseline_entries = list(session.snapshot(version).result.answer_entries())
            # Tick the session forward a few times mid-pagination.
            for position in range(3):
                session.apply(random_update_batch(graph, size=5, seed=70 + position))
            assert session.graph_version > version
            # The open pagination keeps reading the pinned snapshot.
            collected = list(first_page.entries)
            cursor = first_page.next_cursor
            while cursor is not None:
                page, seen_version = session.answer(cursor=cursor, limit=1)
                assert seen_version == version
                collected.extend(page.entries)
                cursor = page.next_cursor
            assert collected == baseline_entries
            # A fresh pagination starts at the new head version.
            _page, head_version = session.answer()
            assert head_version == session.graph_version

    def test_history_eviction_raises_snapshot_expired(self):
        graph, rules = _workload()
        with api.open_session(
            graph, rules, config=EIPConfig(eta=0.1), history_limit=2
        ) as session:
            page, version = session.answer(limit=1)
            for position in range(3):
                session.apply(random_update_batch(graph, size=4, seed=90 + position))
            with pytest.raises(api.SnapshotExpired) as excinfo:
                session.snapshot(version)
            assert excinfo.value.requested_version == version
            if page.next_cursor is not None:
                with pytest.raises(api.SnapshotExpired):
                    session.answer(cursor=page.next_cursor, limit=1)
            with pytest.raises(api.SnapshotExpired):
                session.deltas(version)

    def test_wait_for_version(self):
        graph, rules = _workload()
        with api.open_session(graph, rules, config=EIPConfig(eta=0.1)) as session:
            version = session.graph_version
            assert session.wait_for_version(version, timeout=0.05) is False
            waiter_saw = []

            def wait():
                waiter_saw.append(session.wait_for_version(version, timeout=10))

            thread = threading.Thread(target=wait)
            thread.start()
            session.apply(random_update_batch(graph, size=3, seed=33))
            thread.join(timeout=10)
            assert waiter_saw == [True]


class TestDeltaEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_tick_deltas_equal_recompute_set_difference(self, seed):
        """Across K random batches, every tick's delta must equal the
        set-difference of fresh recomputes before/after the batch."""
        graph, rules = _workload(seed)
        config = EIPConfig(eta=0.1)
        mirror = graph.copy()
        with api.open_session(graph, rules, config=config) as session:
            fresh_before = api.identify(mirror, rules, config)
            assert session.result.identified == fresh_before.identified
            for position in range(3):
                batch = random_update_batch(graph, size=7, seed=seed * 100 + position)
                _report, delta = session.apply(batch)
                batch.apply(mirror)
                fresh_after = api.identify(mirror, rules, config)
                expected = api.diff_results(
                    fresh_before, fresh_after, delta.base_version, delta.version
                )
                assert delta.as_dict() == expected.as_dict()
                fresh_before = fresh_after
            # The retained feed replays the same story end to end.
            all_deltas = session.deltas(session.snapshot().version - 3)
            assert [d.version for d in all_deltas] == sorted(d.version for d in all_deltas)

    def test_deltas_since_returns_contiguous_feed(self):
        graph, rules = _workload()
        with api.open_session(graph, rules, config=EIPConfig(eta=0.1)) as session:
            start = session.graph_version
            applied_versions = []
            for position in range(3):
                _report, delta = session.apply(
                    random_update_batch(graph, size=4, seed=40 + position)
                )
                applied_versions.append(delta.version)
            feed = session.deltas(start)
            assert [d.version for d in feed] == applied_versions
            assert feed[0].base_version == start
            assert session.deltas(applied_versions[-1]) == []
