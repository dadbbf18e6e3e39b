"""The adversarial harness: storms, differential oracle, distillation.

Covers the ``repro.testing`` package end to end:

* every storm family samples valid, deterministic, self-consistent batches;
* the differential oracle reports **zero** divergences for the real code
  across all storm families (census-split rules included);
* a deliberately stale-witness shim is caught by the served match-set
  check, the failure is distilled to a handful of ops, and the distilled
  case fails against the shim while passing against the real code — the
  full find→shrink→replay loop;
* regression cases round-trip through their JSON format, and MinHash
  signatures deduplicate near-identical op streams.
"""

from __future__ import annotations

import pytest

from repro.datasets import generate_gpars, most_frequent_predicates, synthetic_graph
from repro.graph import Graph
from repro.matching.base import _SearchPlan
from repro.pattern.gpar import GPAR
from repro.pattern.pattern import Pattern
from repro.stream import UpdateBatch, UpdateOp
from repro.testing import (
    DifferentialOracle,
    STORM_FAMILIES,
    distill,
    estimated_similarity,
    is_duplicate,
    minhash_signature,
)
from repro.testing.cases import (
    RegressionCase,
    case_from_dict,
    case_to_dict,
    from_distilled,
    rule_from_dict,
    rule_to_dict,
)


def _storm_graph(seed: int = 3) -> Graph:
    return synthetic_graph(
        num_nodes=80, num_edges=240, num_node_labels=5, num_edge_labels=3, seed=seed
    )


def _census_split_sigma(graph: Graph) -> list[GPAR]:
    """A Σ mixing connected, free-y and edge-component rules (one predicate)."""
    predicate = most_frequent_predicates(graph, top=1)[0]
    rules = generate_gpars(graph, predicate, count=2, max_pattern_edges=2, d=2, seed=1)
    expanded = rules[0].antecedent.expanded()
    shared = {node: expanded.label(node) for node in expanded.nodes()}
    q_edge = predicate.edges()[0]
    free_y = GPAR(
        Pattern(
            nodes={**shared, "fz": predicate.label(predicate.y)},
            edges=list(expanded.edges()),
            x=expanded.x,
            y=expanded.y,
        ),
        consequent_label=rules[0].consequent_label,
        name="freeY",
        validate=False,
    )
    edged = GPAR(
        Pattern(
            nodes={
                **shared,
                "f1": predicate.label(predicate.x),
                "f2": predicate.label(predicate.y),
            },
            edges=list(expanded.edges()) + [("f1", "f2", q_edge.label)],
            x=expanded.x,
            y=expanded.y,
        ),
        consequent_label=rules[0].consequent_label,
        name="edgedC",
        validate=False,
    )
    return rules + [free_y, edged]


# ----------------------------------------------------------------------
# storm generators
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", sorted(STORM_FAMILIES))
def test_storms_sample_valid_deterministic_batches(family):
    """Same seed -> same ops; sequential application never raises."""
    sampler = STORM_FAMILIES[family]
    graph = _storm_graph()
    for position in range(4):
        batch = sampler(graph, size=6, seed=position)
        again = sampler(graph, size=6, seed=position)
        assert batch.ops == again.ops, family
        assert len(batch) > 0, family
        batch.apply(graph)  # raises on any invalid op


@pytest.mark.parametrize("family", sorted(set(STORM_FAMILIES) - {"random"}))
def test_storms_have_their_advertised_shape(family):
    graph = _storm_graph()
    batch = STORM_FAMILIES[family](graph, size=8, seed=0)
    kinds = {op.kind for op in batch}
    if family == "correlated-deletions":
        assert kinds <= {"remove_edge", "remove_node"}
    elif family == "label-flips":
        assert kinds == {"relabel_node"}
        flips: dict = {}
        for op in batch:
            flips[op.node] = flips.get(op.node, 0) + 1
        assert max(flips.values()) >= 2, "victims must flip repeatedly"
    elif family == "hub-churn":
        degree: dict = {}
        for edge in graph.edges():
            degree[edge.source] = degree.get(edge.source, 0) + 1
            degree[edge.target] = degree.get(edge.target, 0) + 1
        hub = max(degree, key=lambda node: (degree[node], str(node)))
        touching = [
            op for op in batch if hub in (op.node, op.source, op.target)
        ]
        assert len(touching) >= len(batch) // 2, "churn must centre on the hub"
    elif family == "ball-burst":
        assert any(op.kind.startswith("add") for op in batch)
        assert any(op.kind.startswith("remove") for op in batch)


# ----------------------------------------------------------------------
# differential oracle on the real code
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", sorted(STORM_FAMILIES))
def test_oracle_finds_no_divergence_in_real_code(family):
    graph = _storm_graph()
    rules = _census_split_sigma(graph)
    sampler = STORM_FAMILIES[family]
    scratch = graph.copy()
    batches = []
    for position in range(2):
        batch = sampler(scratch, size=6, seed=position)
        batches.append(batch)
        batch.apply(scratch)
    oracle = DifferentialOracle(rules, num_workers=2)
    report = oracle.run(graph, batches)
    assert report.ok, report.divergences[0].describe()
    assert report.checks > 0 and report.combos_run == 1


# ----------------------------------------------------------------------
# the find -> shrink -> replay loop, against a known-buggy shim
# ----------------------------------------------------------------------
def _stale_witnesses(patch: pytest.MonkeyPatch) -> None:
    """Deliberately buggy: a kept witness is trusted without re-checking it
    against the graph — the classic stale-cache bug the oracle must catch."""
    patch.setattr(_SearchPlan, "holds", lambda plan, graph, embedding: True)


def _shim_workload():
    graph = Graph(name="shim")
    for node, label in [("c1", "cust"), ("c2", "cust"), ("m1", "shop"), ("m2", "shop"),
                        ("m3", "shop"), ("k1", "city"), ("k2", "city")]:
        graph.add_node(node, label)
    graph.add_edge("c1", "m1", "visit")
    graph.add_edge("m1", "k1", "in")
    graph.add_edge("c1", "m1", "wins")
    graph.add_edge("c2", "m2", "visit")
    graph.add_edge("m2", "k2", "in")
    graph.add_edge("c2", "m3", "visit")
    rule = GPAR(
        Pattern(
            nodes={"x": "cust", "y": "shop", "z": "city"},
            edges=[("x", "y", "visit"), ("y", "z", "in")],
            x="x",
            y="y",
        ),
        consequent_label="wins",
        validate=False,
    )
    # Batch 0 breaks c2's only antecedent match (and so its kept witness
    # c2, m2, k2), batch 1 restores it.  c2 still visits a shop (m3), so its
    # adjacency profile passes the candidate prefilter and the witness is
    # consulted: a stale one keeps c2 matched.  c2 has no ``wins`` edge, so
    # it is in neither the rule's matches nor its q̄ count and the EIP
    # fingerprint does not move — only the served antecedent set shows it.
    # The padding ops are noise the distiller must strip away.
    batches = [
        UpdateBatch.of(
            UpdateOp.add_node("pad-1", "shop"),
            UpdateOp.remove_edge("m2", "k2", "in"),
            UpdateOp.add_edge("pad-1", "m1", "visit"),
        ),
        UpdateBatch.of(
            UpdateOp.add_edge("m2", "k2", "in"),
            UpdateOp.relabel_node("pad-1", "shop"),
        ),
    ]
    return graph, [rule], batches


def test_oracle_catches_buggy_matcher_and_distills_it():
    graph, rules, batches = _shim_workload()
    oracle = DifferentialOracle(rules, num_workers=1)
    with pytest.MonkeyPatch.context() as patch:
        _stale_witnesses(patch)
        divergence = oracle.check(graph, batches)
        assert divergence is not None, "the harness must catch the stale witness"
        # The identifier check ran first and passed: the fingerprint held.
        assert divergence.component == "matches"
        assert (divergence.expected, divergence.actual) == (("c1",), ("c1", "c2"))

        distilled = distill(graph, batches, oracle.checker_for(divergence), radius=1)
        # The essence is the removal of one witness edge: <= 3 ops across
        # <= 2 batches, on a graph peeled to the touched ball.
        assert distilled.num_ops <= 3
        assert len(distilled.batches) <= 2
        assert distilled.graph.num_nodes <= graph.num_nodes
        assert distilled.divergence.component == "matches"

        case = from_distilled(
            "stale-witness",
            "synthetic: a kept witness trusted without re-checking it",
            distilled,
            rules,
            config={"num_workers": 1, "backend": "sequential"},
        )
        loaded = case_from_dict(case_to_dict(case))
        # Replayed against the shim: still fails.
        assert loaded.replay() is not None
    # Against the real code: clean.
    assert loaded.replay() is None


# ----------------------------------------------------------------------
# case format + MinHash dedup
# ----------------------------------------------------------------------
def test_case_json_roundtrip(tmp_path):
    graph, rules, batches = _shim_workload()
    case = RegressionCase(
        name="roundtrip",
        description="format check",
        graph=graph,
        rules=tuple(rules),
        batches=tuple(batches),
        config={"num_workers": 1, "backend": "sequential"},
        signature=minhash_signature(batches),
        divergence={"component": "matches", "batch_index": 0},
    )
    from repro.testing.cases import load_case, write_case

    path = write_case(case, tmp_path)
    loaded = load_case(path)
    assert case_to_dict(loaded) == case_to_dict(case)
    assert [rule.name for rule in loaded.rules] == [rule.name for rule in rules]
    assert loaded.batches == tuple(batches)
    # The rule dict form round-trips free-pattern rules the strict GPAR
    # constructor would reject.
    assert rule_from_dict(rule_to_dict(rules[0])).antecedent == rules[0].antecedent


def test_minhash_dedup_flags_near_duplicates():
    graph = _storm_graph()
    batch = STORM_FAMILIES["correlated-deletions"](graph, size=10, seed=0)
    same = minhash_signature([batch])
    # One extra op out of eleven: still the same counterexample.
    near = minhash_signature(
        [batch, UpdateBatch.of(UpdateOp.add_node("extra", "pad"))]
    )
    other = minhash_signature([STORM_FAMILIES["label-flips"](graph, size=10, seed=5)])
    assert estimated_similarity(same, same) == 1.0
    assert estimated_similarity(same, near) > estimated_similarity(same, other)
    assert is_duplicate(near, [same])
    assert not is_duplicate(other, [same])


def test_distill_rejects_passing_runs():
    graph, rules, batches = _shim_workload()
    clean = DifferentialOracle(rules, num_workers=1)
    with pytest.raises(ValueError):
        distill(graph, batches, clean.check)
