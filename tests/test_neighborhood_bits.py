"""The neighbourhood kernel (``repro.graph.neighborhood.Neighborhoods``).

The kernel answers k-hop sketches and d-balls either in bit masks or, on
graphs where the mask table would outweigh the frozen neighbour views it
replaces, by the set BFS of ``bfs_levels`` / ``build_sketch``.  Nothing
selects the side but the graph's size, so every check below runs on graphs
picked on each side of ``uses_masks`` and holds the mask side to the set
side:

* (i)   the rule itself on the repository's benchmark and smoke graph sizes;
* (ii)  every cached sketch handle, every sketch and every sketch test equals
        ``build_sketch`` / ``sketch_dominates`` after every
        patch of 50 seeded update streams on both sides (relabels, edge
        toggles, node removal, a removed id re-added under another label, and
        ghost waves that make a patch re-index the bits under cached rings);
* (iii) fresh-id churn keeps every mask of a session's kernel short;
* (iv)  a checkpoint written before the kernel existed restores onto it;
* (v)   the paper's guided search (§5.2) decides exactly as on the set side;
* (vi)  what a patch rebuilds, counted: a relabel no ring, an edge toggle
        exactly the rings within k − 1 hops of its endpoints, and the
        in-process ``serve-hub`` replica's sketches and search counters pinned.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro import api
from repro.datasets import generate_gpars, pokec_like, synthetic_graph
from repro.graph import (
    ColumnarFragment,
    Graph,
    ball,
    build_sketch,
    columnar,
    columnar_view,
    registered_columnar,
    sketch_dominates,
)
from repro.graph import neighborhood
from repro.graph.neighborhood import Neighborhoods, multi_source_ball, uses_masks
from repro.identification import EIPConfig
from repro.matching import GuidedMatcher
from repro.matching.base import WitnessStore
from repro.stream import UpdateBatch, UpdateOp, random_update_batch
from repro.stream.identifier import read_checkpoint
from repro.testing import decoded_sketch, eip_fingerprint, resident_sketch

PREDICATE = "user:like_book:personal development"
NODE_LABELS = ("person", "city", "shop", "item")
EDGE_LABELS = ("knows", "lives", "buys")
CHECKPOINT = Path(__file__).parent / "data" / "core-format1.ckpt"


@contextmanager
def _sets_only(monkeypatch):
    """Every kernel compiled inside the block takes the set side."""
    with monkeypatch.context() as patch:
        patch.setattr(neighborhood, "uses_masks", lambda num_nodes, num_edges: False)
        yield


# ----------------------------------------------------------------------
# (i) the rule
# ----------------------------------------------------------------------
def test_the_rule_puts_each_graph_on_its_documented_side():
    # serve-hub, serve-local, the batch workload's mining and identify graphs
    for nodes, edges in ((105, 723), (880, 3892), (125, 930), (630, 5783)):
        assert uses_masks(nodes, edges)
    # the stream smoke's 4,000-node graph and the match smoke's 100k-node row
    assert not uses_masks(4000, 12000)
    assert not uses_masks(100_000, 300_000)
    assert Neighborhoods(pokec_like(40, 3, seed=1)).masks
    assert not Neighborhoods(synthetic_graph(2000, 1000, num_node_labels=4, seed=1)).masks


# ----------------------------------------------------------------------
# (ii) sketches under patches
# ----------------------------------------------------------------------
def _stream_graph(seed: int) -> Graph:
    rng = random.Random(seed)
    graph = Graph(name=f"stream{seed}")
    for index in range(rng.randint(30, 50)):
        graph.add_node(f"n{index}", rng.choice(NODE_LABELS))
    nodes = sorted(graph.nodes(), key=str)
    for _ in range(len(nodes) * 3):
        source, target = rng.sample(nodes, 2)
        graph.add_edge(source, target, rng.choice(EDGE_LABELS))
    return graph


def _mixed_batch(graph: Graph, rng: random.Random, removed: list) -> None:
    """Relabels, edge toggles, removals, and removed ids back under another label."""
    edge_labels = sorted(graph.edge_labels()) or list(EDGE_LABELS)
    with graph.batch_update():
        for _ in range(rng.randint(1, 6)):
            nodes = sorted(graph.nodes(), key=str)
            kind = rng.choice(("relabel", "toggle", "toggle", "remove", "readd"))
            if kind == "relabel":
                graph.relabel_node(rng.choice(nodes), rng.choice(NODE_LABELS))
            elif kind == "toggle":
                source, target = rng.sample(nodes, 2)
                label = rng.choice(edge_labels)
                if graph.has_edge(source, target, label):
                    graph.remove_edge(source, target, label)
                else:
                    graph.add_edge(source, target, label)
            elif kind == "remove" and len(nodes) > 8:
                node = rng.choice(nodes)
                removed.append((node, graph.node_label(node)))
                graph.remove_node(node)
            elif kind == "readd" and removed:
                node, old = removed.pop(rng.randrange(len(removed)))
                if not graph.has_node(node):
                    graph.add_node(node, rng.choice([label for label in NODE_LABELS if label != old]))
                    for other in rng.sample(nodes, 2):
                        graph.add_edge(node, other, rng.choice(edge_labels))


def _ghost_wave(graph: Graph, step: int) -> None:
    """Isolated fresh ids in, or the last wave's out.  Each wave leaves dead
    bits at little touched cost, so within a few waves they outnumber the
    live nodes and the next patch re-indexes the kernel under cached rings."""
    ghosts = [node for node in graph.nodes() if str(node).startswith("ghost")]
    with graph.batch_update():
        for node in ghosts:
            graph.remove_node(node)
        for index in range(0 if ghosts else graph.num_nodes // 2):
            graph.add_node(f"ghost{step}.{index}", NODE_LABELS[index % len(NODE_LABELS)])


def _required_sketches(graph: Graph, rng: random.Random) -> list:
    """What random small patterns require: sketches of pieces of the graph."""
    required = []
    for _ in range(4):
        center = rng.choice(sorted(graph.nodes(), key=str))
        around = sorted(ball(graph, center, 2), key=str)
        piece = graph.induced_subgraph([center, *rng.sample(around, min(3, len(around)))])
        required.append(build_sketch(piece, center, rng.randint(1, 3)))
    return required


def _exactness_run(seed: int) -> tuple[ColumnarFragment, int]:
    """Patch a warm cache through relabels, toggles, removals, re-adds and
    ghost waves; after every patch every cached handle, every sketch and
    every sketch test equals the set-at-a-time reference."""
    graph = _stream_graph(seed)
    view = ColumnarFragment(graph)
    rng = random.Random(seed)
    removed: list = []
    reindexed = 0

    def mixed() -> None:
        for _ in range(rng.randint(1, 2)):  # sometimes a chain of two deltas
            _mixed_batch(graph, rng, removed)

    for step in range(7):
        for mutate in (mixed, lambda: _ghost_wave(graph, step)):
            for node in graph.nodes():  # warm the cache the next patch must invalidate
                for hops in (1, 2, 3):
                    resident_sketch(view, node, hops)
            kernel = view._neighborhoods
            width = len(kernel._node_at)
            mutate()
            view.refresh()
            reindexed += view._neighborhoods is kernel and len(kernel._node_at) < width
            for hops, cached in view._sketches.items():  # what the patch kept
                for node, handle in cached.items():
                    decoded = decoded_sketch(view._neighborhoods, node, handle)
                    assert decoded == build_sketch(graph, node, hops), (seed, node)
            required = _required_sketches(graph, rng)
            for node in graph.nodes():
                for hops in (1, 2, 3):
                    expected = build_sketch(graph, node, hops)
                    assert resident_sketch(view, node, hops) == expected, (seed, node, hops)
                    for needed in required:
                        verdict = sketch_dominates(expected, needed)
                        assert view.sketch_test(node, hops, needed) is verdict, (seed, node, hops)
    assert view.statistics.delta_applies >= 10, "most refreshes must patch, not rebuild"
    return view, reindexed


@pytest.mark.parametrize("seed", range(50))
def test_cached_sketches_equal_the_set_reference_after_every_patch(monkeypatch, seed):
    monkeypatch.setattr(columnar, "DELTA_REBUILD_FRACTION", 1.0)  # patch, never rebuild
    on_masks, reindexed = _exactness_run(seed)
    with _sets_only(monkeypatch):
        on_sets, _ = _exactness_run(seed)
    assert on_masks._neighborhoods.masks and not on_sets._neighborhoods.masks
    assert reindexed, "the ghost waves must re-index the kernel while rings are cached"


# ----------------------------------------------------------------------
# (iii) fresh-id churn keeps masks short
# ----------------------------------------------------------------------
def _guest_churn(graph: Graph, ticks: int, seed: int):
    """Tick *i* removes ``guest{i-1}`` and wires in a new ``guest{i}``."""
    rng = random.Random(seed)
    users = sorted(node for node, label in graph.node_items() if label == "user")
    for tick in range(ticks):
        ops = [UpdateOp.remove_node(f"guest{tick - 1}")] if tick else []
        ops.append(UpdateOp.add_node(f"guest{tick}", "user"))
        ops.extend(UpdateOp.add_edge(f"guest{tick}", user, "follow") for user in rng.sample(users, 2))
        yield UpdateBatch(ops=tuple(ops))


def test_fresh_id_churn_keeps_every_mask_short():
    graph = pokec_like(40, 3, seed=7)
    rules = generate_gpars(graph, api.parse_predicate(PREDICATE), count=4, max_pattern_edges=3, d=2, seed=5)
    with api.open_session(graph, rules, config=EIPConfig(eta=0.5, num_workers=2)) as session:
        view = registered_columnar(graph)
        for batch in _guest_churn(graph, 500, seed=1):
            session.apply(batch)
            kernel = view._neighborhoods
            assert kernel.masks
            bound = 2 * len(kernel._bit) + 4
            masks = [mask for mask in kernel._adjacent if mask] + list(kernel._label_masks.values())
            assert max(mask.bit_length() for mask in masks) <= bound
        assert view.statistics.delta_applies > 0, "the kernel must have been patched, not only rebuilt"
        assert eip_fingerprint(session.result) == eip_fingerprint(session.recompute())


# ----------------------------------------------------------------------
# (iv) a checkpoint from before the kernel
# ----------------------------------------------------------------------
def test_checkpoint_written_before_the_kernel_restores_and_ticks(tmp_path):
    """``tests/data/core-format1.ckpt`` was written by the code that stored
    per-centre balls as plain sets with per-node refcounts, by the code
    that learned per-fragment cost factors for migration, and while
    sessions kept fragments at all.  The format is unchanged: it restores
    onto the kernel, its fragment state is ignored and not written again,
    and the next ticks equal a recompute."""
    state = read_checkpoint(CHECKPOINT)
    assert state["format"] == 1
    assert {"cost_factors", "balls", "refcounts"} <= set(state["manager"])
    with api.restore_core(CHECKPOINT) as core:
        (session,) = core.sessions.values()
        graph = core.identifier.graph
        assert registered_columnar(graph)._neighborhoods.masks
        for seed in range(3):
            core.apply(random_update_batch(graph, size=6, seed=seed, deletion_bias=0.5))
            assert eip_fingerprint(session.result) == eip_fingerprint(session.recompute())
        again = read_checkpoint(core.save_state(tmp_path / "again.ckpt"))
        assert again["format"] == 1
        assert "manager" not in again and list(again["reports"]) == [0]


# ----------------------------------------------------------------------
# (v) the paper's guided search is unchanged
# ----------------------------------------------------------------------
COMPARED = ("states_expanded", "sketch_prunes", "backtracks", "matches_found", "witness_hits")


def _guided_run(build, rounds: int) -> tuple:
    """Match sets and search counters of a witness-keeping guided matcher
    over *rounds* probes of Σ, an update batch between rounds."""
    graph = build()
    rules = generate_gpars(graph, api.parse_predicate(PREDICATE), count=6, max_pattern_edges=3, d=2, seed=5)
    patterns = [rule.antecedent for rule in rules] + [rule.pr_pattern() for rule in rules]
    view = columnar_view(graph)
    matcher = GuidedMatcher()
    matcher.witnesses = WitnessStore()
    answers = []
    for position in range(rounds):
        answers.append([matcher.match_set(graph, pattern) for pattern in patterns])
        random_update_batch(graph, size=6, seed=position).apply(graph)
    counters = {name: getattr(matcher.statistics, name) for name in COMPARED}
    return view._neighborhoods.masks, answers, counters


@pytest.mark.parametrize(
    "build, rounds",
    [(lambda: pokec_like(80, 3, seed=7), 4), (lambda: pokec_like(600, 15, seed=7), 2)],
    ids=["hub", "batch-large"],
)
def test_guided_search_decides_as_on_the_set_reference(monkeypatch, build, rounds):
    on_masks, answers, counters = _guided_run(build, rounds)
    with _sets_only(monkeypatch):
        on_sets, expected_answers, expected_counters = _guided_run(build, rounds)
    assert on_masks and not on_sets
    assert answers == expected_answers
    assert counters == expected_counters
    assert counters["sketch_prunes"] > 0 and counters["witness_hits"] > 0
    assert any(matches for round_answers in answers for matches in round_answers)


# ----------------------------------------------------------------------
# (vi) what a patch rebuilds, counted
# ----------------------------------------------------------------------
def _warm_view(graph: Graph) -> ColumnarFragment:
    view = ColumnarFragment(graph)
    for node in graph.nodes():
        for hops in (1, 2, 3):
            resident_sketch(view, node, hops)
    return view


def _cached(view: ColumnarFragment) -> set:
    return {(node, hops) for hops, cached in view._sketches.items() for node in cached}


def test_a_relabel_rebuilds_no_ring(monkeypatch):
    """Rings carry no labels: a relabel-only batch invalidates nothing on the
    mask side and every sketch still equals the reference; the set side's
    histograms do move with it."""
    monkeypatch.setattr(columnar, "DELTA_REBUILD_FRACTION", 1.0)
    for side in ("masks", "sets"):
        with monkeypatch.context() as patch:
            if side == "sets":
                patch.setattr(neighborhood, "uses_masks", lambda num_nodes, num_edges: False)
            graph = pokec_like(40, 3, seed=1)
            view = _warm_view(graph)
            built, invalidated = view.statistics.sketches_built, view.statistics.sketches_invalidated
            users = sorted(node for node, label in graph.node_items() if label == "user")
            with graph.batch_update():
                for user in users[:3]:
                    graph.relabel_node(user, "dormant")
            for node in graph.nodes():
                for hops in (1, 2, 3):
                    assert resident_sketch(view, node, hops) == build_sketch(graph, node, hops)
            assert view.statistics.delta_applies == 1
            if side == "masks":
                assert view.statistics.sketches_built == built
                assert view.statistics.sketches_invalidated == invalidated
            else:
                assert view.statistics.sketches_invalidated > invalidated


def test_an_edge_toggle_invalidates_exactly_the_k_minus_one_ring(monkeypatch):
    """A changed edge moves a k-hop ring only for nodes within k − 1 hops of
    one of its endpoints on the post-update graph; exactly those go."""
    monkeypatch.setattr(columnar, "DELTA_REBUILD_FRACTION", 1.0)
    graph = pokec_like(40, 3, seed=1)
    users = sorted(node for node, label in graph.node_items() if label == "user")
    for source, target in ((users[0], users[1]), (users[2], "hobby:hiking")):
        view = _warm_view(graph)
        before = _cached(view)
        if graph.has_edge(source, target, "follow"):
            graph.remove_edge(source, target, "follow")
        else:
            graph.add_edge(source, target, "follow")
        view.refresh()
        stale = {
            (node, hops)
            for node, hops in before
            if node in multi_source_ball(graph, (source, target), hops - 1)
        }
        assert stale and stale != before
        assert _cached(view) == before - stale
        assert view.statistics.sketches_invalidated == len(stale)


_HUB_REPLICA = """
import json, sys
sys.path.insert(0, sys.argv[1])
from workloads import PREDICATE, SIGMA_SEED, WARMUP_TICKS, Scale, build_serve_inputs
from repro import api
from repro.datasets import generate_gpars
from repro.graph.io import graph_from_dict
from repro.identification import EIPConfig
from repro.obs.registry import registry
from repro.testing import counter_value

inputs = build_serve_inputs("serve-hub", 7, 10, Scale(), lambda: 0.0)
graph = graph_from_dict(inputs.graph_doc)
count, max_edges = inputs.spec.tenants[0]
rules = generate_gpars(
    graph, api.parse_predicate(PREDICATE), count=count, max_pattern_edges=max_edges, d=2, seed=SIGMA_SEED
)
config = EIPConfig(eta=inputs.spec.eta, num_workers=2, seed=SIGMA_SEED, backend="sequential")
names = (
    "index_sketches_built", "match_states_expanded", "match_sketch_prunes", "match_matches_found",
    "match_profile_matches",
)
counts = lambda: [counter_value(registry(), f"repro_{name}_total") for name in names]
with api.open_session(graph, rules, config=config) as session:
    for batch in inputs.batches[:WARMUP_TICKS]:
        session.apply(batch)
    before = counts()
    for batch in inputs.batches[WARMUP_TICKS:]:
        session.apply(batch)
    print(json.dumps({name: after - start for name, after, start in zip(names, counts(), before)}))
"""


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="the pinned counts are CPython 3.11's string hashing"
)
def test_hub_replica_builds_fewer_sketches_and_searches_the_same():
    """The ``serve-hub`` workload in process (seed 7, sequential, the repo
    benchmark's 80 timed ticks) under ``PYTHONHASHSEED=0``: with histograms
    it built 9,287 sketches, with rings 7,294, with no sketch test on the
    last plan node 6,935, and testing only the candidates the search tries
    6,368.

    Trying candidates in adjacency order instead of by sketch surplus does
    not change a verdict, but it changes which witness is kept.  Ranked, the
    search expanded 12,363 states, pruned 120,929 candidates (it tested every
    candidate of an expanded node) and found 3,224 matches; tested when
    tried, it expands 12,344, prunes 72,948 and finds 3,228 — the rank saved
    no state.  Deciding the star patterns (the shared 1-edge prefixes) by the
    anchor's profile leaves 12,194 states and 3,078 searched matches beside
    14,628 profile verdicts, with the same sketches built and pruned.
    Re-verifying only the (pattern, centre) pairs a change reaches along
    that pattern's paths builds 4,225 sketches, expands 10,002 states,
    prunes 34,666 candidates and decides 4,128 verdicts by the profile: the
    pairs it skips are the ones no search was run for, so the 3,078
    searched matches stay.  Verifying over the session's one graph instead
    of two fragment copies builds 3,065 sketches (a node's sketch was built
    once per fragment holding it), expands 9,993 states, prunes 34,586
    candidates and finds 3,072 matches (witnesses kept from searches over
    the whole graph, whose adjacency order is not the copies'), with the
    same 4,128 profile verdicts."""
    root = Path(__file__).resolve().parents[1]
    environment = {
        **os.environ,
        "PYTHONHASHSEED": "0",
        "REPRO_OBS": "1",
        "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])),
    }
    child = subprocess.run(
        [sys.executable, "-c", _HUB_REPLICA, str(root / "benchmarks" / "e2e")],
        env=environment, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    counts = json.loads(child.stdout)
    assert counts["index_sketches_built"] == 3_065
    assert counts["match_states_expanded"] == 9_993
    assert counts["match_sketch_prunes"] == 34_586
    assert counts["match_matches_found"] == 3_072
    assert counts["match_profile_matches"] == 4_128
