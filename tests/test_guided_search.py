"""What the guided search (``repro.matching.guided``) tests, and what it skips.

* the anchor's sketch test is skipped only where the profile test just run
  implies it: wherever :func:`anchor_loop_labels` marks x and the anchor
  has no self-loop it names, every anchor passing ``degree_consistent``
  passes the full sketch test — on seeded random graphs with ``generate_gpars``
  patterns, on both kernel sides — and hand-made patterns that break one
  condition each are not marked;
* a star whose plan says ``profile_decides`` gets the reference's verdicts
  and match sets from the anchor's profile alone — raw, resident and inside
  an open batch, with data self-loops, copy counts and voiding anchor loops —
  and hand-made shapes that break the rule are searched;
* a first match (the plain recursion) is the first embedding enumeration
  yields, with the same counters;
* counted: batch identification, whose mined patterns are all stars the
  anchor's profile decides, runs no search and no sketch test at all; and
  on the hub graph the guided search expands fewer states than the
  unguided one (the claim of the paper's Section 5.2).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro import api
from repro.datasets import generate_gpars, most_frequent_predicates, pokec_like, synthetic_graph
from repro.graph import Graph, build_sketch, columnar_view, discard_columnar, neighborhood, sketch_dominates
from repro.matching import GuidedMatcher, MultiPatternMatcher, VF2Matcher
from repro.matching.base import resident_view, search_plan
from repro.matching.candidates import degree_consistent
from repro.matching.guided import anchor_loop_labels
from repro.pattern import Pattern, PatternEdge
from repro.testing import ReferenceMatcher

PREDICATE = "user:like_book:personal development"


def _looped_graph(seed: int) -> Graph:
    """A seeded random graph; every seventh node also gets a self-loop."""
    graph = synthetic_graph(90, 260, num_node_labels=3, num_edge_labels=2, seed=seed)
    rng = random.Random(seed)
    edge_labels = sorted(graph.edge_labels())
    for node in sorted(graph.nodes(), key=str)[::7]:
        graph.add_edge(node, node, rng.choice(edge_labels))
    return graph


def _patterns(graph: Graph, seed: int) -> list[Pattern]:
    patterns = []
    for predicate in most_frequent_predicates(graph, top=3):
        for rule in generate_gpars(graph, predicate, count=6, max_pattern_edges=3, d=2, seed=seed):
            patterns += [rule.antecedent.expanded(), rule.pr_pattern().expanded()]
    return patterns


def _implied_anchors_pass(graph: Graph) -> tuple[int, int]:
    """``(implied patterns, anchors checked)``: every anchor whose test the
    matcher would skip passes the full sketch test."""
    resident = resident_view(graph)
    matcher = GuidedMatcher()
    marked = checked = 0
    for pattern in _patterns(graph, seed=len(graph)):
        plan = search_plan(pattern, pattern.x)
        loops, needed = matcher._required(pattern, plan)
        if loops is None:
            continue
        marked += 1
        for node in graph.nodes_with_label(pattern.label(pattern.x)):
            if any(graph.has_edge(node, node, label) for label in loops):
                continue  # the matcher tests this anchor
            if not degree_consistent(graph, node, pattern, pattern.x, resident):
                continue
            checked += 1
            assert resident.sketch_test(node, matcher.sketch_hops, needed[0]), (pattern, node)
            assert sketch_dominates(build_sketch(graph, node, matcher.sketch_hops), needed[0])
    return marked, checked


@pytest.mark.parametrize("seed", range(6))
def test_a_skipped_anchor_test_would_have_passed(monkeypatch, seed):
    graph = _looped_graph(seed)
    columnar_view(graph)
    on_masks = _implied_anchors_pass(graph)
    with monkeypatch.context() as patch:
        patch.setattr(neighborhood, "uses_masks", lambda num_nodes, num_edges: False)
        graph = _looped_graph(seed)
        view = columnar_view(graph)
        assert not view._neighborhoods.masks
        on_sets = _implied_anchors_pass(graph)
    assert on_masks == on_sets
    marked, checked = on_masks
    assert marked and checked, "some pattern must be marked and some anchor checked"


def _star(*edges, loops=()) -> tuple[Pattern, object]:
    """x (label A) with the given ``(direction, edge label, neighbour label)`` edges."""
    nodes, pattern_edges = {"x": "A"}, []
    for index, (direction, edge_label, label) in enumerate(edges):
        other = f"n{index}"
        nodes[other] = label
        pair = ("x", other) if direction == "out" else (other, "x")
        pattern_edges.append(PatternEdge(*pair, edge_label))
    pattern_edges += [PatternEdge("x", "x", label) for label in loops]
    pattern = Pattern(nodes=nodes, edges=pattern_edges, x="x")
    return pattern, search_plan(pattern, "x")


def _loops(pattern: Pattern, plan) -> tuple | None:
    return anchor_loop_labels(pattern, plan, build_sketch(pattern.to_graph(), pattern.x, 2))


def test_patterns_the_rule_marks_and_the_ones_it_must_not():
    assert _loops(*_star(("out", "e", "L"), ("out", "e", "L"), ("in", "f", "M"))) == ()
    # A neighbour of x's own label: an anchor's self-loop over e or f voids it.
    pair = Pattern(
        nodes={"x": "A", "y": "A", "z": "L"},
        edges=[PatternEdge("x", "y", "e"), PatternEdge("y", "x", "f"), PatternEdge("x", "z", "f")],
        x="x",
    )
    assert _loops(pair, search_plan(pair, "x")) == ("e", "f")
    # Two L neighbours reached through different triples: a data node may
    # have one L node at the end of both.
    assert _loops(*_star(("out", "e", "L"), ("out", "f", "L"))) is None
    assert _loops(*_star(("out", "e", "L"), ("in", "e", "L"))) is None
    # A self-loop on x: the profile counts x itself, the sketch leaves it out.
    assert _loops(*_star(("out", "e", "A"), loops=("e",))) is None
    # A hop-2 label: the profile sees one hop.
    chain = Pattern(
        nodes={"x": "A", "y": "L", "z": "M"},
        edges=[PatternEdge("x", "y", "e"), PatternEdge("y", "z", "e")],
        x="x",
    )
    assert _loops(chain, search_plan(chain, "x")) is None


def test_an_anchor_with_a_self_loop_is_still_sketch_tested():
    """x asks for two A neighbours over ``e``; v's ``e`` row holds v itself and
    w, so v passes the profile test but has one A neighbour in its sketch."""
    pattern, plan = _star(("out", "e", "A"), ("out", "e", "A"))
    assert _loops(pattern, plan) == ("e",)
    graph = Graph.from_parts([("v", "A", None), ("w", "A", None)], [("v", "v", "e"), ("v", "w", "e")])
    columnar_view(graph)
    assert degree_consistent(graph, "v", pattern, "x", resident_view(graph))
    matcher = GuidedMatcher()
    assert matcher.match_set(graph, pattern, ["v"]) == set()
    assert matcher.statistics.sketch_prunes == 1
    assert matcher.statistics.states_expanded == 0


def _random_star(rng: random.Random, node_labels: list, edge_labels: list) -> Pattern:
    """A star at x the profile decides: each leaf label on one random slot,
    x's own label among the leaves often, some leaves with copy counts."""
    own = rng.choice(node_labels)
    slots: dict = {}
    nodes, edges, copies = {"x": own}, [], {}
    for index in range(rng.randint(0, 4)):
        label = own if rng.random() < 0.4 else rng.choice(node_labels)
        outgoing, edge_label = slots.setdefault(label, (rng.random() < 0.5, rng.choice(edge_labels)))
        leaf = f"l{index}"
        nodes[leaf] = label
        edges.append(("x", leaf, edge_label) if outgoing else (leaf, "x", edge_label))
        if rng.random() < 0.3:
            copies[leaf] = rng.randint(2, 3)
    return Pattern(nodes, edges, x="x", copies=copies)


def _profile_decided_as_the_reference(graph: Graph, patterns: list[Pattern]) -> int:
    """Assert every query surface agrees with the reference; the profile verdicts."""
    reference = ReferenceMatcher()
    truth = {key: reference.match_set(graph, pattern) for key, pattern in enumerate(patterns)}
    matcher = GuidedMatcher()
    nodes = sorted(graph.nodes(), key=str)
    for key, pattern in enumerate(patterns):
        assert matcher.match_set(graph, pattern) == truth[key], pattern
        assert matcher.match_set(graph, pattern, nodes) == truth[key], pattern
        assert {node for node in nodes if matcher.exists_match_at(graph, pattern, node)} == truth[key]
    multi = MultiPatternMatcher(GuidedMatcher())
    assert multi.shared_match_sets(graph, dict(enumerate(patterns))) == truth
    assert multi.shared_match_sets(graph, dict(enumerate(patterns)), candidates=nodes) == truth
    return matcher.statistics.profile_matches


@pytest.mark.parametrize("seed", range(8))
def test_profile_verdicts_equal_the_reference(seed):
    graph = _looped_graph(seed)
    rng = random.Random(seed)
    node_labels, edge_labels = sorted(graph.node_labels()), sorted(graph.edge_labels())
    patterns = [_random_star(rng, node_labels, edge_labels) for _ in range(16)]
    assert all(search_plan(pattern.expanded(), "x").profile_decides is not None for pattern in patterns)
    assert any(pattern.copy_counts() for pattern in patterns)
    assert _profile_decided_as_the_reference(graph, patterns) > 0  # raw
    columnar_view(graph)
    try:
        assert _profile_decided_as_the_reference(graph, patterns) > 0  # resident
        nodes = sorted(graph.nodes(), key=str)
        with graph.batch_update() as batch:  # probed raw, half applied
            for node in rng.sample(nodes, 12):
                batch.add_edge(node, node, rng.choice(edge_labels))
            for source, target in zip(rng.sample(nodes, 12), rng.sample(nodes, 12)):
                batch.add_edge(source, target, rng.choice(edge_labels))
            assert _profile_decided_as_the_reference(graph, patterns) > 0
    finally:
        discard_columnar(graph)


@pytest.mark.parametrize("resident", [False, True])
@pytest.mark.parametrize("direction", ["out", "in"])
def test_a_self_loop_on_the_anchor_voids_the_profile_verdict(direction, resident):
    """x asks for two A leaves on ``e``; v's profile counts v itself through its
    ``e`` loop and w, so v passes the profile test without a match, until u
    joins the slot."""
    pattern, plan = _star((direction, "e", "A"), (direction, "e", "A"), ("out", "f", "B"))
    assert plan.profile_decides == "e"
    pair = ("v", "w") if direction == "out" else ("w", "v")
    graph = Graph.from_parts(
        [("v", "A", None), ("w", "A", None), ("u", "A", None), ("b", "B", None)],
        [("v", "v", "e"), (*pair, "e"), ("v", "b", "f")],
    )
    if resident:
        columnar_view(graph)
    try:
        assert degree_consistent(graph, "v", pattern, "x", resident_view(graph))
        for expected in (False, True):
            matcher = GuidedMatcher()
            assert matcher.exists_match_at(graph, pattern, "v") is expected
            assert ("v" in matcher.match_set(graph, pattern)) is expected
            assert ("v" in ReferenceMatcher().match_set(graph, pattern)) is expected
            assert matcher.statistics.profile_matches == 0  # searched, twice
            assert matcher.statistics.matches_found == (2 if expected else 0)
            graph.add_edge(*(("v", "u") if direction == "out" else ("u", "v")), "e")
    finally:
        discard_columnar(graph)


def test_shapes_the_profile_decides_and_the_ones_it_must_not():
    assert _star(("out", "e", "L"), ("out", "e", "L"), ("in", "f", "M"))[1].profile_decides == ()
    assert _star(("in", "f", "A"), ("out", "e", "L"))[1].profile_decides == "f"
    assert _star()[1].profile_decides == ()
    # Leaves of one label on two slots: one data node may fill both.
    assert _star(("out", "e", "L"), ("out", "f", "L"))[1].profile_decides is None
    assert _star(("out", "e", "L"), ("in", "e", "L"))[1].profile_decides is None
    # A self-loop on x: the profile counts x itself.
    assert _star(("out", "e", "L"), loops=("e",))[1].profile_decides is None

    def plan(edges) -> object:
        pattern = Pattern({"x": "A", "a": "L", "b": "M"}, edges, x="x")
        return search_plan(pattern, "x").profile_decides

    assert plan([("x", "a", "e"), ("a", "x", "e"), ("x", "b", "e")]) is None  # a leaf with two edges
    assert plan([("x", "a", "e"), ("x", "b", "e"), ("a", "b", "e")]) is None  # a leaf–leaf edge
    assert plan([("x", "a", "e"), ("x", "b", "e"), ("a", "a", "e")]) is None  # a self-loop on a leaf
    assert plan([("x", "a", "e")]) is None  # b is not tied to x
    assert plan([("x", "a", "e"), ("b", "x", "f")]) == ()


def test_a_first_match_is_the_first_enumerated_one():
    graph = pokec_like(60, 3, seed=7)
    columnar_view(graph)
    rules = generate_gpars(graph, api.parse_predicate(PREDICATE), count=8, max_pattern_edges=3, d=2, seed=5)
    for pattern in [rule.antecedent for rule in rules] + [rule.pr_pattern() for rule in rules]:
        for make in (GuidedMatcher, VF2Matcher):
            first, enumerating = make(), make()
            for anchor in sorted(graph.nodes_with_label(pattern.label(pattern.x)), key=str):
                found = first.find_match_at(graph, pattern, anchor)
                assert found == next(enumerating.iter_matches_at(graph, pattern, anchor), None)
                assert first.statistics == enumerating.statistics


def test_the_guided_search_expands_fewer_states_than_the_unguided_one():
    """Section 5.2's claim for ``Match``, on the ``serve-hub`` graph at smoke
    scale and its Σ: the same match sets from far fewer search states
    (541 against 2,227 under ``PYTHONHASHSEED=0``)."""
    graph = pokec_like(60, 3, seed=7)
    columnar_view(graph)
    rules = generate_gpars(graph, api.parse_predicate(PREDICATE), count=8, max_pattern_edges=3, d=2, seed=5)
    patterns = [rule.antecedent for rule in rules] + [rule.pr_pattern() for rule in rules]
    guided, unguided = GuidedMatcher(), VF2Matcher()
    answers = [guided.match_set(graph, pattern) for pattern in patterns]
    assert answers == [unguided.match_set(graph, pattern) for pattern in patterns]
    assert any(answers)
    assert 2 * guided.statistics.states_expanded < unguided.statistics.states_expanded


_BATCH_IDENTIFY = """
import json, sys
sys.path.insert(0, sys.argv[1])
from batch import build_inputs, identify_config, mine_config
from workloads import Scale
from repro import api
from repro.matching.guided import GuidedMatcher
from repro.obs.registry import registry

sample, large, predicate = build_inputs(7, Scale())
rules = [entry.rule for entry in api.mine(sample, predicate, mine_config("sequential")).top_k]
counts = {"searches": 0, "tests": 0}
start, test = GuidedMatcher._start, GuidedMatcher._test

def counted_start(self, *args):  # every anchored search begins here
    counts["searches"] += 1
    return start(self, *args)

def counted_test(self, *args):
    counts["tests"] += 1
    return test(self, *args)

GuidedMatcher._start, GuidedMatcher._test = counted_start, counted_test
names = ("match_states_expanded", "index_sketches_built", "match_profile_matches", "match_matches_found")
before = [registry().counter_value(f"repro_{name}_total") for name in names]
result = api.identify(large, rules, identify_config("sequential"), algorithm="match")
after = [registry().counter_value(f"repro_{name}_total") for name in names]
counts.update({name: end - begin for name, end, begin in zip(names, after, before)})
print(json.dumps({**counts, "identified": len(result.identified)}))
"""


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="the pinned counts are CPython 3.11's string hashing"
)
def test_batch_identify_runs_no_search_and_no_sketch_test():
    """One ``api.identify`` call of the repo benchmark's batch workload (seed
    7, sequential, ``PYTHONHASHSEED=0``).  Every pattern the mined Σ hands
    the matcher is a star whose verdict the anchor's profile decides, so
    all 3,929 positive verdicts come from the profile: no anchored search,
    no expanded state, no sketch test and no sketch built.  Searching them
    ran 3,929 searches over 5,765 states, 1,836 sketch tests and 388 cold
    sketch builds, and identified the same 113 entities."""
    root = Path(__file__).resolve().parents[1]
    environment = {
        **os.environ,
        "PYTHONHASHSEED": "0",
        "REPRO_OBS": "1",
        "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])),
    }
    child = subprocess.run(
        [sys.executable, "-c", _BATCH_IDENTIFY, str(root / "benchmarks" / "e2e")],
        env=environment, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == {
        "searches": 0,
        "tests": 0,
        "match_states_expanded": 0,
        "index_sketches_built": 0,
        "match_profile_matches": 3_929,
        "match_matches_found": 0,
        "identified": 113,
    }
