"""Unit tests of the fragment lifecycle subsystem (repro.partition.lifecycle).

Covers the checkpoint value type (capture/build/install), the worker
catch-up protocol, the coordinator-side FragmentManager (membership shedding,
compaction, fixed ownership) and the StreamingIdentifier save/restore
round trip.  Tests that need compaction to fire set the module constants
of :mod:`repro.partition.lifecycle` with ``monkeypatch``.
The randomized equivalence sweeps stay in tests/test_stream_equivalence.py.
"""

from __future__ import annotations

import itertools
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.datasets import generate_gpars, most_frequent_predicates, pokec_like, synthetic_graph
from repro.exceptions import StreamError
from repro.graph import Graph, columnar_view, registered_columnar
from repro.graph import neighborhood
from repro.graph.neighborhood import multi_source_ball
from repro.identification.eip import EIPConfig
from repro.partition import Fragment, lifecycle, partition_graph
from repro.partition.lifecycle import (
    APPLIED_SEQUENCE_KEY,
    FragmentCheckpoint,
    FragmentLease,
    FragmentManager,
    FragmentUpdate,
    apply_fragment_update,
    catch_up,
)
from repro.parallel.worker import WorkerContext
from repro.stream import (
    StreamingIdentifier,
    UpdateBatch,
    UpdateOp,
    random_update_batch,
)
from repro.testing import eip_fingerprint, structure_equal


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


class TestFragmentCheckpoint:
    def _manager(self, seed=0, num_fragments=2):
        graph = synthetic_graph(80, 240, num_node_labels=4, num_edge_labels=3, seed=seed)
        label = sorted(graph.node_labels())[0]
        centers = graph.nodes_with_label(label)
        fragments = partition_graph(graph, num_fragments, centers=centers, d=2, seed=0)
        manager = FragmentManager(graph, fragments, 2, label)
        return graph, fragments, manager

    def test_capture_matches_resident_fragment(self):
        graph, fragments, manager = self._manager()
        fragment = fragments[0]
        checkpoint = FragmentCheckpoint.capture(
            graph,
            set(fragment.graph.nodes()),
            fragment.owned_centers,
            fragment.index,
            sequence=0,
            name=fragment.graph.name,
        )
        rebuilt = Fragment(index=fragment.index, graph=Graph(), owned_centers=set())
        checkpoint.install(rebuilt)
        assert structure_equal(rebuilt.graph, fragment.graph)
        assert rebuilt.owned_centers == fragment.owned_centers
        assert rebuilt.sequence == 0

    def test_catch_up_installs_only_when_behind(self):
        graph, fragments, manager = self._manager()
        fragment = fragments[0]
        checkpoint = FragmentCheckpoint.capture(
            graph,
            set(fragment.graph.nodes()),
            fragment.owned_centers,
            fragment.index,
            sequence=5,
            name=fragment.graph.name,
        )
        # A context already ahead of the base keeps its graph object.
        ahead = WorkerContext(fragment)
        ahead.state[APPLIED_SEQUENCE_KEY] = 9
        resident = fragment.graph
        catch_up(ahead, FragmentLease(base_sequence=5, checkpoint=checkpoint))
        assert fragment.graph is resident
        # A cold context (applied 0) installs the base: new graph object.
        cold = WorkerContext(fragment)
        cold.state.clear()
        catch_up(cold, FragmentLease(base_sequence=5, checkpoint=checkpoint))
        assert fragment.graph is not resident
        assert structure_equal(fragment.graph, resident)
        assert cold.state[APPLIED_SEQUENCE_KEY] == 5

    def test_install_carries_residency_to_the_new_graph(self):
        """Matchers probe what is registered: an install must not drop it."""
        graph, fragments, _manager = self._manager()
        indexed, bare = fragments[0], fragments[1]
        columnar_view(indexed.graph)
        for fragment in (indexed, bare):
            replaced = fragment.graph
            FragmentCheckpoint.capture(
                graph,
                set(replaced.nodes()),
                fragment.owned_centers,
                fragment.index,
                sequence=1,
                name=replaced.name,
            ).install(fragment)
            assert fragment.graph is not replaced
        assert registered_columnar(indexed.graph) is not None
        assert registered_columnar(bare.graph) is None

    def test_catch_up_requires_a_checkpoint_reference(self):
        _graph, fragments, _manager = self._manager()
        context = WorkerContext(fragments[0])
        with pytest.raises(StreamError):
            catch_up(context, FragmentLease(base_sequence=3))

    def test_catch_up_replays_tail_and_applies_shed(self):
        g = toy_graph()
        fragment_graph = g.induced_subgraph(
            ["alice", "bob", "carol", "cafe"], name="frag"
        )
        fragment = Fragment(index=0, graph=fragment_graph, owned_centers={"alice"})
        context = WorkerContext(fragment)
        update = FragmentUpdate(
            sequence=1,
            remove_edges=(("bob", "carol", "friend"),),
            shed=("carol",),
            own_add=("bob",),
        )
        catch_up(context, FragmentLease(updates=(update,)))
        assert not fragment.graph.has_node("carol")
        assert fragment.owned_centers == {"alice", "bob"}
        assert context.state[APPLIED_SEQUENCE_KEY] == 1
        assert update.weight == 2
        assert update.mutates


class TestFragmentManager:
    def _streaming(self, num_workers=3):
        """A session whose answer is non-empty: the planted serving predicate
        of a pokec-like graph with a generated Σ."""
        graph = pokec_like(60, 3, seed=7)
        predicate = api.parse_predicate("user:like_book:personal development")
        rules = generate_gpars(graph, predicate, count=4, max_pattern_edges=3, d=2, seed=5)
        identifier = StreamingIdentifier(
            graph,
            rules,
            config=EIPConfig(eta=0.5, num_workers=num_workers),
        )
        assert identifier.result.identified, "the fixture must serve a real answer"
        return graph, rules, identifier

    def test_initial_membership_equals_the_owned_ball(self):
        graph, _rules, identifier = self._streaming()
        with identifier:
            manager = identifier.manager
            for fragment in identifier.fragments:
                assert frozenset(manager._node_sets[fragment.index]) == frozenset(
                    fragment.graph.nodes()
                )
                owned = manager.owned_centers(fragment.index)
                assert owned and owned == fragment.owned_centers
                assert manager._node_sets[fragment.index] == multi_source_ball(graph, owned, manager.max_radius)

    def test_deletion_sheds_resident_nodes_and_index_entries(self, monkeypatch):
        graph, _rules, identifier = self._streaming()
        with identifier:
            shed_total = 0
            answers = {eip_fingerprint(identifier.result)}
            for position in range(6):
                batch = random_update_batch(
                    graph, size=9, seed=70 + position, deletion_bias=0.6
                )
                report = identifier.apply(batch)
                shed_total += report.shed_nodes
                maintained = eip_fingerprint(identifier.result)
                assert maintained == eip_fingerprint(identifier.recompute())
                answers.add(maintained)
                for fragment in identifier.fragments:
                    members = frozenset(identifier.manager._node_sets[fragment.index])
                    # Resident copy tracks the managed membership exactly...
                    assert frozenset(fragment.graph.nodes()) == members
                    # ...and is exactly the d-ball of the owned centres.
                    owned = identifier.manager.owned_centers(fragment.index)
                    assert members == multi_source_ball(graph, owned, identifier.max_radius)
            assert shed_total > 0, "deletion churn must shed uncovered nodes"
            assert all(answer[0] for answer in answers) and len(answers) > 1, "the churn must change a non-empty answer"
            fresh = identifier.recompute()
            assert fresh.identified == identifier.result.identified
            assert fresh.rule_confidences == identifier.result.rule_confidences

    def test_losing_every_centre_empties_the_fragment(self):
        g = Graph(name="tiny")
        g.add_node("c1", "cust")
        g.add_node("m1", "shop")
        g.add_edge("c1", "m1", "visit")
        fragments = partition_graph(g, 1, centers={"c1"}, d=1, seed=0)
        manager = FragmentManager(g, fragments, 1, "cust")
        batch = UpdateBatch.of(UpdateOp.relabel_node("c1", "ex-cust"))
        delta = batch.apply(g)
        plan = manager.derive_batch(delta)
        update = plan.updates[0]
        assert update.own_remove == ("c1",)
        assert set(update.shed) == {"c1", "m1"}  # nobody's ball covers them now
        assert frozenset(manager._node_sets[0]) == frozenset()

    def test_compaction_truncates_log_and_serves_leases(self, monkeypatch):
        monkeypatch.setattr(lifecycle, "CHECKPOINT_LOG_FRACTION", 0.01)
        graph, _rules, identifier = self._streaming()
        with identifier:
            compacted = 0
            answers = {eip_fingerprint(identifier.result)}
            for position in range(4):
                report = identifier.apply(
                    random_update_batch(graph, size=8, seed=40 + position)
                )
                compacted += report.compacted_fragments
                maintained = eip_fingerprint(identifier.result)
                assert maintained == eip_fingerprint(identifier.recompute())
                answers.add(maintained)
            assert compacted > 0
            assert all(answer[0] for answer in answers) and len(answers) > 1, "the churn must change a non-empty answer"
            manager = identifier.manager
            for fragment in identifier.fragments:
                lease = manager.lease(fragment.index)
                if lease.base_sequence:
                    assert lease.checkpoint is not None
                    assert lease.checkpoint.sequence == lease.base_sequence
                    assert all(
                        update.sequence > lease.base_sequence
                        for update in lease.updates
                    )
            fresh = identifier.recompute()
            assert fresh.identified == identifier.result.identified

    def test_collapsed_ownership_stays_correct_under_churn(self):
        """Ownership is fixed at partition time: after a fragment's centres
        are relabelled away and random churn follows, the (non-empty,
        changing) answer equals a recompute after every batch, and ownership
        stays disjoint and complete."""
        graph = pokec_like(60, 3, seed=7)
        predicate = api.parse_predicate("user:like_book:personal development")
        rules = generate_gpars(graph, predicate, count=4, max_pattern_edges=3, d=2, seed=5)
        config = EIPConfig(eta=0.5, num_workers=4)
        with StreamingIdentifier(graph, rules, config=config) as identifier:
            manager = identifier.manager
            victim = identifier.fragments[0].index
            doomed = sorted(manager.owned_centers(victim), key=str)[1:]
            answers = set()

            def tick(batch) -> None:
                identifier.apply(batch)
                maintained = eip_fingerprint(identifier.result)
                assert maintained == eip_fingerprint(identifier.recompute())
                assert maintained[0], "the gate compares a real answer"
                answers.add(maintained)

            tick(UpdateBatch.of(*(UpdateOp.relabel_node(center, "retired") for center in doomed)))
            for position in range(3):
                tick(random_update_batch(graph, size=6, seed=300 + position, deletion_bias=0.3))
            assert len(answers) > 1, "the churn must change the answer"
            owned = [
                manager.owned_centers(fragment.index)
                for fragment in identifier.fragments
            ]
            for i, left in enumerate(owned):
                for right in owned[i + 1 :]:
                    assert not (left & right)
            assert set.union(*owned) == set(manager._owner)


# ----------------------------------------------------------------------
# the area lemma: membership moves only within d hops of a change
# ----------------------------------------------------------------------
_LABELS = ("c", "a", "b")  # "c" is the centre label


def _random_tick(graph: Graph, rng: random.Random, fresh) -> object:
    """One batch of edge toggles, relabels that gain or lose centres, node
    additions (wired in) and removals; returns its delta."""
    with graph.batch_update() as tx:
        for _ in range(rng.randint(1, 6)):
            nodes = sorted(graph.nodes(), key=str)
            kind = rng.choice(("toggle", "toggle", "relabel", "add", "remove"))
            if kind == "toggle" and len(nodes) > 1:
                source, target = rng.sample(nodes, 2)
                label = rng.choice(("e", "f"))
                if graph.has_edge(source, target, label):
                    tx.remove_edge(source, target, label)
                else:
                    tx.add_edge(source, target, label)
            elif kind == "relabel" and nodes:
                node = rng.choice(nodes)
                gains = graph.node_label(node) != "c"
                tx.relabel_node(node, "c" if gains else rng.choice(_LABELS[1:]))
            elif kind == "add":
                node = f"fresh{next(fresh)}"
                tx.add_node(node, rng.choice(_LABELS))
                for other in rng.sample(nodes, min(len(nodes), rng.randint(0, 2))):
                    tx.add_edge(node, other, "e")
            elif kind == "remove" and nodes:
                tx.remove_node(rng.choice(nodes))
    return tx.delta


class TestAreaLemma:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        masks=st.booleans(),
        radius=st.integers(min_value=1, max_value=2),
        parts=st.integers(min_value=1, max_value=3),
    )
    def test_membership_moves_only_inside_the_area(self, seed, masks, radius, parts):
        """After every tick each fragment's node set is the d-ball of its
        owned centres rebuilt from nothing, its resident copy (the slices
        replayed) is the induced subgraph, and no node outside the area
        ``B_d(C)`` changed membership — on both sides of the kernel."""
        rng = random.Random(seed)
        graph = Graph(name=f"area{seed}")
        size = rng.randint(4, 14)
        for index in range(size):
            graph.add_node(f"n{index}", rng.choice(_LABELS))
        for _ in range(rng.randint(size, 3 * size)):
            source, target = rng.sample(range(size), 2)
            graph.add_edge(f"n{source}", f"n{target}", rng.choice(("e", "f")))
        with pytest.MonkeyPatch.context() as patch:
            if not masks:
                patch.setattr(neighborhood, "uses_masks", lambda num_nodes, num_edges: False)
            fragments = partition_graph(graph, parts, centers=graph.nodes_with_label("c"), d=radius, seed=0)
            manager = FragmentManager(graph, fragments, radius, "c")
            assert manager._neighborhoods.masks == masks
            fresh = itertools.count()
            for _ in range(4):
                before = {index: set(nodes) for index, nodes in manager._node_sets.items()}
                delta = _random_tick(graph, rng, fresh)
                plan = manager.derive_batch(delta)
                changed = set(delta.added_nodes)
                for source, target, _label in delta.added_edges | delta.removed_edges:
                    changed.update((source, target))
                for update in plan.updates.values():
                    changed.update(update.own_add, update.own_remove)
                area = multi_source_ball(graph, changed, radius)
                owned_all = set()
                for fragment in manager.fragments:
                    index = fragment.index
                    apply_fragment_update(fragment, plan.updates[index])
                    owned = manager.owned_centers(index)
                    owned_all |= owned
                    members = manager._node_sets[index]
                    assert fragment.owned_centers == owned
                    assert members == multi_source_ball(graph, owned, radius)
                    assert structure_equal(fragment.graph, graph.induced_subgraph(members))
                    assert (members ^ before[index]) - delta.removed_nodes <= area
                assert owned_all == graph.nodes_with_label("c")


_CAPTURE = """
import hashlib, pickle, sys
from repro.datasets import synthetic_graph
from repro.partition import partition_graph
from repro.partition.lifecycle import FragmentManager
from repro.stream import random_update_batch

graph = synthetic_graph(80, 240, num_node_labels=4, num_edge_labels=3, seed=2)
label = sorted(graph.node_labels())[0]
fragments = partition_graph(graph, 3, centers=graph.nodes_with_label(label), d=2, seed=0)
manager = FragmentManager(graph, fragments, 2, label)
for seed in range(3):
    manager.derive_batch(random_update_batch(graph, size=8, seed=seed, deletion_bias=0.5).apply(graph))
digest = hashlib.sha256()
for fragment in manager.fragments:
    digest.update(pickle.dumps(manager.compact_fragment(fragment.index)))
print(digest.hexdigest())
"""


def test_checkpoints_are_byte_identical_under_any_hash_seed():
    root = Path(__file__).resolve().parents[1]
    digests = set()
    for hash_seed in ("0", "1"):
        environment = {
            **os.environ,
            "PYTHONHASHSEED": hash_seed,
            "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])),
        }
        child = subprocess.run(
            [sys.executable, "-c", _CAPTURE], env=environment, capture_output=True, text=True, timeout=120
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

    def test_roundtrip_is_byte_identical_and_resumable(self, tmp_path, monkeypatch):
        monkeypatch.setattr(lifecycle, "CHECKPOINT_LOG_FRACTION", 0.05)
        graph, identifier = self._identifier()
        with identifier:
            for position in range(4):
                identifier.apply(random_update_batch(graph, size=7, seed=position))
            expected = self._fingerprint(identifier.result)
            path = identifier.save_state(tmp_path / "state.pkl")
        state = pickle.loads(path.read_bytes())
        assert state["format"] == 1
        # The retired threshold object and on-disk base map are not written.
        assert "stream_config" not in state and "base_paths" not in state["manager"]
        assert any(base is not None for base in state["manager"]["bases"].values())
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
        path — from both restore entry points, before any runtime starts."""
        graph, identifier = self._identifier()
        with identifier:
            identifier.apply(random_update_batch(graph, size=7, seed=1))
            intact = identifier.save_state(tmp_path / "state.pkl").read_bytes()
        started = []
        monkeypatch.setattr(
            StreamingIdentifier, "_start_runtime", lambda self: started.append(self)
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
        backend was retired) is refused by name before any pool starts, and
        restores byte-identically once a remaining backend is named.  The
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
            patch.setattr(StreamingIdentifier, "_start_runtime", lambda self: started.append(self))
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

            def dying_dump(state, handle):
                handle.write(pickle.dumps(state)[:100])
                raise OSError("disk full")

            monkeypatch.setattr(module.pickle, "dump", dying_dump)
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
