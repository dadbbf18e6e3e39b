"""Durable streaming state: checkpoint → restore, and the deletion-biased sampler.

A checkpoint holds the graph and the maintained verdicts
(:meth:`repro.stream.StreamingIdentifier.state_dict`); restore resumes
byte-identically, refuses a torn or foreign file before building anything,
and still reads ``tests/data/core-format1.ckpt``, written while sessions
kept fragments.  The randomized equivalence sweeps stay in
tests/test_stream_equivalence.py.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro import api
from repro.datasets import generate_gpars, most_frequent_predicates, synthetic_graph
from repro.exceptions import StreamError
from repro.graph import Graph
from repro.identification.eip import EIPConfig
from repro.stream import StreamingIdentifier, random_update_batch
from repro.testing import eip_fingerprint


def toy_graph() -> Graph:
    g = Graph(name="toy")
    g.add_node("alice", "cust")
    g.add_node("bob", "cust")
    g.add_node("carol", "cust")
    g.add_node("cafe", "restaurant")
    g.add_edge("alice", "bob", "friend")
    g.add_edge("bob", "carol", "friend")
    g.add_edge("alice", "cafe", "visit")
    g.add_edge("bob", "cafe", "visit")
    return g


_CAPTURE = """
import hashlib, sys
from repro.datasets import generate_gpars, most_frequent_predicates, synthetic_graph
from repro.identification import EIPConfig
from repro.stream import StreamingIdentifier, random_update_batch

graph = synthetic_graph(80, 240, num_node_labels=4, num_edge_labels=3, seed=2)
predicate = most_frequent_predicates(graph, top=1)[0]
rules = generate_gpars(graph, predicate, count=3, max_pattern_edges=3, d=2, seed=2)
with StreamingIdentifier(graph, rules, config=EIPConfig(eta=0.5)) as identifier:
    for seed in range(3):
        identifier.apply(random_update_batch(graph, size=8, seed=seed, deletion_bias=0.5))
    path = identifier.save_state(sys.argv[1])
print(hashlib.sha256(path.read_bytes()).hexdigest())
"""


def test_checkpoints_are_byte_identical_under_any_hash_seed(tmp_path):
    """A session's checkpoint after deletion-heavy ticks is the same file
    whatever ``PYTHONHASHSEED`` the process ran under: the graph and the
    verdicts hold sets, and every set is written in ``str`` order."""
    root = Path(__file__).resolve().parents[1]
    digests = set()
    for hash_seed in ("0", "1"):
        environment = {
            **os.environ,
            "PYTHONHASHSEED": hash_seed,
            "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])),
        }
        child = subprocess.run(
            [sys.executable, "-c", _CAPTURE, str(tmp_path / f"seed{hash_seed}.ckpt")],
            env=environment, capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        digests.add(child.stdout.strip())
    assert len(digests) == 1


class TestSaveRestore:
    def _identifier(self, config=EIPConfig(eta=0.5, num_workers=2)):
        graph = synthetic_graph(100, 300, num_node_labels=5, num_edge_labels=3, seed=8)
        predicate = most_frequent_predicates(graph, top=1)[0]
        rules = generate_gpars(graph, predicate, count=3, max_pattern_edges=3, d=2, seed=8)
        return graph, StreamingIdentifier(graph, rules, config=config)

    @staticmethod
    def _fingerprint(result):
        return (
            sorted(map(str, result.identified)),
            sorted(
                (rule.name, confidence)
                for rule, confidence in result.rule_confidences.items()
            ),
        )

    def test_roundtrip_is_byte_identical_and_resumable(self, tmp_path):
        graph, identifier = self._identifier()
        with identifier:
            for position in range(4):
                identifier.apply(random_update_batch(graph, size=7, seed=position))
            expected = self._fingerprint(identifier.result)
            path = identifier.save_state(tmp_path / "state.pkl")
        state = pickle.loads(path.read_bytes())
        assert state["format"] == 1
        # Graph + verdicts: no retired threshold object, no fragment state.
        assert "stream_config" not in state and "manager" not in state
        assert list(state["reports"]) == [0]
        with StreamingIdentifier.restore(path) as restored:
            assert self._fingerprint(restored.result) == expected
            restored.apply(random_update_batch(restored.graph, size=7, seed=99))
            fresh = restored.recompute()
            assert self._fingerprint(restored.result) == self._fingerprint(fresh)

    def test_restore_onto_other_backends(self, tmp_path):
        graph, identifier = self._identifier()
        with identifier:
            identifier.apply(random_update_batch(graph, size=7, seed=1))
            expected = self._fingerprint(identifier.result)
            path = identifier.save_state(tmp_path / "state.pkl")
        with StreamingIdentifier.restore(
            path, backend="processes", executor_workers=2
        ) as restored:
            assert restored.config.backend == "processes"
            assert self._fingerprint(restored.result) == expected
            restored.apply(random_update_batch(restored.graph, size=7, seed=55))
            fresh = restored.recompute()
            assert self._fingerprint(restored.result) == self._fingerprint(fresh)

    def test_torn_checkpoint_is_a_stream_error(self, tmp_path, monkeypatch):
        """A cut, foreign or wrong-shaped file raises StreamError naming the
        path — from both restore entry points, before any state is built."""
        graph, identifier = self._identifier()
        with identifier:
            identifier.apply(random_update_batch(graph, size=7, seed=1))
            intact = identifier.save_state(tmp_path / "state.pkl").read_bytes()
        started = []
        monkeypatch.setattr(
            StreamingIdentifier, "_prepare_rules", lambda self: started.append(self)
        )
        size = len(intact)
        torn = {f"cut-{cut}": intact[:cut] for cut in (0, 1, 2, 17, size // 3, size // 2, size - 1)}
        torn["garbage"] = b"this is not a pickle\n" * 4
        torn["not-a-dict"] = pickle.dumps(["format", 1])
        torn["wrong-format"] = pickle.dumps({**pickle.loads(intact), "format": 2})
        torn["missing-keys"] = pickle.dumps({"format": 1, "graph": graph})
        for name, payload in torn.items():
            path = tmp_path / f"{name}.pkl"
            path.write_bytes(payload)
            for restore in (StreamingIdentifier.restore, api.restore_core):
                with pytest.raises(StreamError, match=name):
                    restore(path)
        assert not started
        with pytest.raises(FileNotFoundError):
            StreamingIdentifier.restore(tmp_path / "absent.pkl")

    def test_checkpoint_naming_the_retired_thread_backend(self, tmp_path, monkeypatch):
        """A core checkpoint whose pickled EIPConfig says ``backend="threads"``
        (as ``repro stream --backend threads --save-state`` wrote it before that
        backend was retired) is refused by name before anything acts on it,
        and restores byte-identically once a remaining backend is named.  The
        fixture's pickled StreamConfig also carries a field that no longer
        exists; it restores regardless."""
        from pathlib import Path

        from repro.exceptions import IdentificationError
        from repro.stream.identifier import read_checkpoint, write_checkpoint

        fixture = Path(__file__).parent / "data" / "core-format1.ckpt"
        state = read_checkpoint(fixture)
        object.__setattr__(state["config"], "backend", "threads")  # unpickling skips validation too
        path = write_checkpoint(tmp_path / "threads.ckpt", state)
        started = []
        with monkeypatch.context() as patch:
            patch.setattr(StreamingIdentifier, "_prepare_rules", lambda self: started.append(self))
            with pytest.raises(IdentificationError, match="'threads'"):
                api.restore_core(path)
        assert not started

        with api.restore_core(fixture) as original:
            expected = self._answers(original)
        assert any(entries for entries, _ in expected.values()), "the gate compares a real answer"
        with api.restore_core(path, backend="sequential") as restored:
            assert restored.identifier.config.backend == "sequential"
            assert self._answers(restored) == expected

    def test_checkpoint_naming_matchc_restores_and_ticks(self, tmp_path):
        """Streaming runs Match only, so checkpoints no longer name a solver;
        a copy of the fixture naming ``algorithm: "matchc"`` (as a session
        opened with that option saved it) restores regardless — a checkpoint
        stores verdict sets, and every solver computes the same ones.  It
        serves the fixture's answer byte-identically, its next tick equals a
        recompute, and the fixture itself still restores byte-identically."""
        from pathlib import Path

        from repro.stream.identifier import read_checkpoint, write_checkpoint

        fixture = Path(__file__).parent / "data" / "core-format1.ckpt"
        state = read_checkpoint(fixture)
        assert state["algorithm"] == "match"
        path = write_checkpoint(tmp_path / "matchc.ckpt", {**state, "algorithm": "matchc"})
        with api.restore_core(fixture) as original:
            expected = self._answers(original)
            for session in original.sessions.values():
                assert eip_fingerprint(session.result) == eip_fingerprint(session.recompute())
            resaved = read_checkpoint(original.save_state(tmp_path / "resaved.ckpt"))
        assert "algorithm" not in resaved
        assert any(entries for entries, _ in expected.values()), "the gate compares a real answer"
        with api.restore_core(path) as restored:
            assert self._answers(restored) == expected
            restored.apply(random_update_batch(restored.graph, size=6, seed=1, deletion_bias=0.5))
            for session in restored.sessions.values():
                assert eip_fingerprint(session.result) == eip_fingerprint(session.recompute())

    @staticmethod
    def _answers(core) -> dict:
        """Every tenant's answer entries and fingerprint."""
        return {
            tenant: (
                [entry.as_dict() for entry in session.result.answer_entries()],
                eip_fingerprint(session.result),
            )
            for tenant, session in core.sessions.items()
        }

    def test_failed_save_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        import repro.stream.identifier as module

        graph, identifier = self._identifier()
        path = tmp_path / "state.pkl"
        with identifier:
            identifier.apply(random_update_batch(graph, size=7, seed=1))
            expected = self._fingerprint(identifier.result)
            identifier.save_state(path)
            identifier.apply(random_update_batch(graph, size=7, seed=2))

            original = module._CanonicalPickler.dump

            def dying_dump(self, state):
                original(self, {"format": 1})  # a part of the file is written
                raise OSError("disk full")

            monkeypatch.setattr(module._CanonicalPickler, "dump", dying_dump)
            with pytest.raises(OSError, match="disk full"):
                identifier.save_state(path)
        assert [entry.name for entry in tmp_path.iterdir()] == ["state.pkl"]
        with StreamingIdentifier.restore(path) as restored:
            assert self._fingerprint(restored.result) == expected

    def test_save_state_needs_a_destination(self):
        _graph, identifier = self._identifier()
        with identifier:
            with pytest.raises(TypeError):
                identifier.save_state()  # the path is required

class TestDeletionBiasSampling:
    def test_bias_zero_is_byte_identical_to_historical_sampler(self):
        for seed in range(5):
            g1 = synthetic_graph(60, 180, num_node_labels=4, num_edge_labels=3, seed=seed)
            g2 = g1.copy()
            plain = random_update_batch(g1, size=7, seed=seed)
            biased = random_update_batch(g2, size=7, seed=seed, deletion_bias=0.0)
            assert plain == biased

    def test_bias_one_only_removes(self):
        g = synthetic_graph(60, 180, num_node_labels=4, num_edge_labels=3, seed=2)
        batch = random_update_batch(g, size=10, seed=3, deletion_bias=1.0)
        assert all(op.kind in ("remove_edge", "remove_node") for op in batch)
        batch.apply(g)  # applies cleanly

    def test_bias_validation(self):
        with pytest.raises(StreamError):
            random_update_batch(toy_graph(), size=2, deletion_bias=1.5)
