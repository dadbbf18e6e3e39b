"""What the guided search (``repro.matching.guided``) tests, and what it skips.

* the anchor's sketch test is skipped only where the profile test just run
  implies it: wherever :func:`anchor_loop_labels` marks x and the anchor
  has no self-loop it names, every anchor passing ``degree_consistent``
  passes the full sketch test — on seeded random graphs with ``generate_gpars``
  patterns, on both kernel sides — and hand-made patterns that break one
  condition each are not marked;
* a first match (the plain recursion) is the first embedding enumeration
  yields, with the same counters;
* counted: batch identification runs no anchor sketch test and 1,836 tests
  in all (10,089 when every candidate of an expanded node was tested and
  ranked), with its states unchanged; and on the hub graph the guided
  search expands fewer states than the unguided one (the claim of the
  paper's Section 5.2).
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
from repro.graph import Graph, build_sketch, columnar_view, neighborhood, sketch_dominates
from repro.matching import GuidedMatcher, VF2Matcher
from repro.matching.base import resident_view, search_plan
from repro.matching.candidates import degree_consistent
from repro.matching.guided import anchor_loop_labels
from repro.pattern import Pattern, PatternEdge

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

sample, large, predicate = build_inputs(7, Scale())
rules = [entry.rule for entry in api.mine(sample, predicate, mine_config("sequential")).top_k]
counts = {"tests": 0, "anchor_tests": 0, "states": 0}
test, admits, anchor = GuidedMatcher._test, GuidedMatcher._admits, []

def counted_test(self, *args):
    counts["tests"] += 1
    counts["anchor_tests"] += bool(anchor)
    return test(self, *args)

def counted_admits(self, graph, resident, pattern, plan, position, node):
    counts["states"] += position > 0  # one call per expanded state
    anchor.append(position == 0)
    try:
        return admits(self, graph, resident, pattern, plan, position, node)
    finally:
        anchor.pop()

GuidedMatcher._test, GuidedMatcher._admits = counted_test, counted_admits
result = api.identify(large, rules, identify_config("sequential"), algorithm="match")
print(json.dumps({**counts, "identified": len(result.identified)}))
"""


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="the pinned counts are CPython 3.11's string hashing"
)
def test_batch_identify_runs_no_anchor_sketch_test():
    """One ``api.identify`` call of the repo benchmark's batch workload (seed
    7, sequential, ``PYTHONHASHSEED=0``).  Testing and ranking every
    candidate of an expanded node ran 10,089 sketch tests, 3,929 of them on
    anchors that had passed their profile test, and pruned nothing; the
    search expands the same 5,765 states either way."""
    root = Path(__file__).resolve().parents[1]
    environment = {
        **os.environ,
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])),
    }
    child = subprocess.run(
        [sys.executable, "-c", _BATCH_IDENTIFY, str(root / "benchmarks" / "e2e")],
        env=environment, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    counts = json.loads(child.stdout)
    assert counts["anchor_tests"] == 0
    assert counts["tests"] <= 1_836
    assert counts["states"] == 5_765
    assert counts["identified"] > 0
