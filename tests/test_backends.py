"""Backend equivalence and message picklability.

The contract behind ``--backend``: sequential and process execution
produce *identical* mined rule sets and identical EIP matches, because all
cross-round state lives at the coordinator and worker functions are pure in
``(fragment, payload)``.  These tests pin that contract on the synthetic
dataset, pin picklability of every type that crosses the process
boundary, and bound the bytes one DMine run ships.
"""

from __future__ import annotations

import pickle

import pytest

from repro import api
from repro.datasets import generate_gpars, most_frequent_predicates, pokec_like, synthetic_graph
from repro.exceptions import ExecutorError, WorkerError
from repro.identification import identify_entities
from repro.mining import DMineConfig, dmine
from repro.parallel import (
    BACKENDS,
    EvaluatePayload,
    ProcessPoolExecutorBackend,
    Proposal,
    ProposePayload,
    RuleFocus,
    RuleMessage,
    WorkerTask,
    make_executor,
)
from repro.identification.matchc import VerifyPayload
from repro.identification.eip import EIPConfig, Verdicts
from repro.identification.match import Match
from repro.mining.local_mine import seed_rule
from repro.parallel.runtime import BSPRuntime
from repro.partition import partition_graph


@pytest.fixture(scope="module")
def synthetic():
    graph = synthetic_graph(350, 1050, num_node_labels=10, num_edge_labels=6, seed=7)
    predicate = most_frequent_predicates(graph, top=1)[0]
    return graph, predicate


def _rule_signature(result):
    """Backend-independent fingerprint of a DMine result."""
    return (
        sorted(str(rule._key()) for rule in result.all_rules),
        sorted(
            (str(mined.rule._key()), mined.support, round(mined.confidence, 9))
            for mined in result.top_k
        ),
        round(result.objective_value, 9),
        result.candidates_generated,
        result.rounds_executed,
    )


class TestDMineEquivalence:
    @pytest.fixture(scope="class")
    def reference(self, synthetic):
        graph, predicate = synthetic
        return _rule_signature(dmine(graph, predicate, self._config("sequential")))

    @staticmethod
    def _config(backend):
        return DMineConfig(
            k=4, d=2, sigma=2, num_workers=4, max_edges=2, backend=backend
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_identical_rules_across_backends(self, synthetic, reference, backend):
        graph, predicate = synthetic
        result = dmine(graph, predicate, self._config(backend))
        assert _rule_signature(result) == reference

    def test_process_backend_records_timings(self, synthetic):
        graph, predicate = synthetic
        result = dmine(graph, predicate, self._config("processes"))
        assert result.timings.wall_time > 0
        assert result.timings.rounds


class TestEIPEquivalence:
    @pytest.fixture(scope="class")
    def workload(self, synthetic):
        graph, predicate = synthetic
        rules = generate_gpars(graph, predicate, count=5, max_pattern_edges=3, d=2, seed=5)
        return graph, rules

    @pytest.mark.parametrize("algorithm", ["matchc", "match", "disvf2"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_identical_matches_across_backends(self, workload, algorithm, backend):
        graph, rules = workload
        reference = identify_entities(
            graph, rules, eta=0.5, num_workers=3, algorithm=algorithm
        )
        result = identify_entities(
            graph, rules, eta=0.5, num_workers=3, algorithm=algorithm, backend=backend
        )
        assert result.identified == reference.identified
        assert result.rule_confidences == reference.rule_confidences
        assert result.accepted_rules == reference.accepted_rules
        assert result.candidates_examined == reference.candidates_examined


class TestMessagePickling:
    """Round-trip every type that crosses the process boundary."""

    def _roundtrip(self, value):
        clone = pickle.loads(pickle.dumps(value))
        assert type(clone) is type(value)
        return clone

    def test_rule_message(self):
        message = RuleMessage(
            rule_index=4,
            fragment_index=2,
            supp_r=3,
            supp_q_qbar=1,
            extendable=True,
            rule_matches=frozenset({"a", "b"}),
            antecedent_matches=frozenset({"a", "b", "c"}),
        )
        clone = self._roundtrip(message)
        assert clone == message
        assert (clone.rule_index, clone.supp_q_qbar) == (4, 1)
        # The message names its rule by index: no rule object crosses.
        assert b"GPAR" not in pickle.dumps(message)

    def test_round_payloads(self, r1, visit_predicate):
        config = DMineConfig(num_workers=2)
        seed = seed_rule(visit_predicate)
        propose = ProposePayload(
            rules=(seed,),
            focus=(RuleFocus(centers=frozenset({"x1"})),),
            predicate=visit_predicate,
            config=config,
        )
        clone = self._roundtrip(propose)
        assert clone.rules[0] == seed
        assert clone.focus[0].centers == frozenset({"x1"})
        assert clone.config == config

        evaluate = EvaluatePayload(
            rules=(r1,), pools=(None,), predicate=visit_predicate, config=config
        )
        clone = self._roundtrip(evaluate)
        assert clone.rules[0] == r1
        assert clone.pools == (None,)

    def test_proposal_and_task(self, r1):
        proposal = self._roundtrip(Proposal(rule=r1, parent_index=3))
        assert proposal.rule == r1 and proposal.parent_index == 3
        task = self._roundtrip(WorkerTask(fn=seed_rule, fragment_id=1, payload="p"))
        assert task.fn is seed_rule and task.fragment_id == 1

    def test_verify_payload_and_report(self, r1):
        payload = VerifyPayload(
            solver_cls=Match,
            config=EIPConfig(num_workers=2),
            rules=(r1,),
            max_radius=2,
            predicate=r1.q_pattern(),
        )
        clone = self._roundtrip(payload)
        assert clone.solver_cls is Match
        assert clone.rules[0] == r1

        report = Verdicts(
            positives={"a", "b"},
            negatives={"c"},
            antecedent_sets={r1: {"a", "c"}},
            rule_matches={r1: {"a"}},
            candidates_examined=3,
            prefix_pool_hits=1,
        )
        clone = self._roundtrip(report)
        assert clone == report
        assert clone.rule_matches[r1] == {"a"}

    def test_fragment(self, g1):
        fragments = partition_graph(g1, 2, centers=g1.nodes_with_label("cust"), d=1, seed=0)
        clone = self._roundtrip(fragments[0])
        assert clone.index == fragments[0].index
        assert clone.owned_centers == fragments[0].owned_centers
        assert clone.graph.num_nodes == fragments[0].graph.num_nodes
        assert sorted(map(str, clone.graph.nodes())) == sorted(
            map(str, fragments[0].graph.nodes())
        )


#: Pickled bytes of the propose and evaluate payloads and results of one
#: ``mine`` of the repo benchmark's sample (12 tasks): 976,871 when workers
#: shipped full proposed rules and messages carried their rule; 557,892
#: (PYTHONHASHSEED=0) with proposals as (parent index, key) pairs and
#: messages naming their rule by index.
ROUND_TRAFFIC_CEILING = 600_000


def test_mine_round_traffic_stays_under_its_bound(monkeypatch):
    sizes: list[int] = []
    run_round = BSPRuntime.run_round

    def measured(self, worker_fn, payloads, coordinate):
        def measure(results):
            sizes.extend(len(pickle.dumps(value)) for value in (*payloads, *results))
            return coordinate(results)

        return run_round(self, worker_fn, payloads, measure)

    monkeypatch.setattr(BSPRuntime, "run_round", measured)
    config = DMineConfig(k=8, d=2, sigma=5, num_workers=2, max_edges=3)
    sample = pokec_like(100, 4, seed=7, name="sample")
    result = api.mine(sample, api.parse_predicate("user:like_book:personal development"), config)
    assert result.top_k and result.rounds_executed == 3
    assert len(sizes) == 24  # a payload and a result per task
    assert sum(sizes) <= ROUND_TRAFFIC_CEILING


def _raise_in_worker(context, payload):
    raise RuntimeError("injected failure")


class TestProcessBackend:
    def test_worker_error_carries_fragment_id(self, g1):
        fragments = partition_graph(g1, 2, centers=g1.nodes_with_label("cust"), d=1, seed=0)
        backend = ProcessPoolExecutorBackend(max_workers=2)
        backend.start(fragments)
        try:
            with pytest.raises(WorkerError) as excinfo:
                backend.run([WorkerTask(_raise_in_worker, fragments[1].index, None)])
            assert excinfo.value.fragment_id == fragments[1].index
            assert "injected failure" in str(excinfo.value)
        finally:
            backend.shutdown()

    def test_run_before_start_is_an_error(self):
        backend = ProcessPoolExecutorBackend()
        with pytest.raises(ExecutorError):
            backend.run([WorkerTask(_raise_in_worker, 0, None)])

    def test_make_executor_rejects_unknown_backend(self):
        assert BACKENDS == ("sequential", "processes")
        for name in ("gpu", "threads"):  # the GIL-bound thread backend is gone
            with pytest.raises(ExecutorError, match=name):
                make_executor(name)

    def test_pool_survives_many_rounds(self, g1):
        """The pool is persistent: repeated run() calls reuse warm workers."""
        fragments = partition_graph(g1, 2, centers=g1.nodes_with_label("cust"), d=1, seed=0)
        backend = ProcessPoolExecutorBackend(max_workers=2)
        backend.start(fragments)
        try:
            for _round in range(5):
                results, durations, _metrics = backend.run(
                    [WorkerTask(_fragment_size, f.index, None) for f in fragments]
                )
                assert results == [f.graph.num_nodes for f in fragments]
                assert all(duration >= 0 for duration in durations)
        finally:
            backend.shutdown()


def _fragment_size(context, payload):
    return context.fragment.graph.num_nodes
