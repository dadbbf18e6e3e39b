"""The three "compute once" mechanisms against their slow forms.

* **pattern identity** — ``Pattern`` / ``GPAR`` keep their structural key,
  hash and canonical code on the object: the cached forms must agree with
  recomputation on equal and unequal patterns.  Of them only the canonical
  code crosses a pickle boundary: it equals the code recomputed under
  another ``PYTHONHASHSEED``, where a carried hash would be wrong;
* **incDiv** — the bound-pruned, id-keyed :class:`IncrementalDiversifier`
  against the parent commit's quadratic one, kept below as the reference;
* **sketches** — prefix sums stored on :class:`KHopSketch` against the
  ``Counter`` forms that rebuilt them per comparison, kept below;
* **count gates** — deterministic call counts (no stopwatch) that fail when
  any of the three goes back to recomputing per use, or when DMine's round
  goes back to costing Σ and the hubs: a bound per rule ever seen, an exact
  isomorphism check or a canonical code per proposal, edge scans in the
  proposer, an anchored search where a parent's embeddings could decide.
  Search counts are compared with a same-process run on the
  naive oracles, not pinned: they depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import math
import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from test_properties import graphs_with_patterns, random_graphs

import repro
from repro import api
from repro.datasets import generate_gpars, pokec_like
from repro.graph import bfs_distances, build_sketch, sketch_dominates
from repro.identification import EIPConfig
from repro.matching import MatchStore
from repro.metrics.diversification import DiversificationObjective, jaccard_distance
from repro.mining import DMineConfig, IncrementalDiversifier
from repro.mining.incdiv import RuleInfo
from repro.pattern import GPAR, Pattern, canonical_code
from repro.stream import random_update_batch
from repro.testing import eip_fingerprint

PREDICATE = "user:like_book:personal development"


# ----------------------------------------------------------------------
# (1) identity: cached == recomputed, on equal and unequal patterns
# ----------------------------------------------------------------------
def _rebuilt(pattern: Pattern) -> Pattern:
    """An equal pattern from the defining fields, given in another order."""
    return Pattern(
        dict(reversed(list(pattern.node_items()))),
        [(edge.source, edge.target, edge.label) for edge in reversed(pattern.edges())],
        x=pattern.x,
        y=pattern.y,
        copies=pattern.copy_counts(),
    )


@given(graphs_with_patterns(), graphs_with_patterns())
@settings(max_examples=60, deadline=None)
def test_cached_identity_agrees_with_recomputation(first, second):
    pattern, other = first[1], second[1]
    grown = pattern.with_edge("x", "tmp", "knows", target_label="person")
    round_trip = Pattern(  # the grown pattern less its new node, rebuilt from its fields
        {node: label for node, label in grown.node_items() if node != "tmp"},
        [
            (edge.source, edge.target, edge.label)
            for edge in grown.edges()
            if "tmp" not in (edge.source, edge.target)
        ],
        x=grown.x,
        y=grown.y,
        copies=grown.copy_counts(),
    )
    for twice in range(2):  # the second pass reads every slot the first filled
        for equal in (_rebuilt(pattern), round_trip):
            assert equal == pattern and hash(equal) == hash(pattern)
            assert canonical_code(equal) == canonical_code(pattern)
        assert hash(pattern) == hash(pattern._key())
        assert (pattern == other) == (pattern._key() == other._key())
    assert grown != pattern and grown.has_edge("x", "tmp", "knows")
    assert not pattern.has_edge("x", "tmp", "knows")

    y = next((node for node in pattern.nodes() if node != pattern.x), None)
    if y is not None:
        nodes, edges = dict(pattern.node_items()), pattern.edges()
        rule = GPAR(Pattern(nodes, edges, x="x", y=y), "buys", name="R", validate=False)
        twin = GPAR(_rebuilt(rule.antecedent), "buys", name="another name", validate=False)
        assert twin == rule and hash(twin) == hash(rule) == hash(rule._key())
        assert GPAR(rule.antecedent, "sells", validate=False) != rule


# ----------------------------------------------------------------------
# (2) of the derived state only the canonical code crosses a pickle boundary
# ----------------------------------------------------------------------
def _spec(rule: GPAR) -> tuple:
    """The defining fields of *rule* as plain builtins."""
    antecedent = rule.antecedent
    return (
        dict(antecedent.node_items()),
        [(edge.source, edge.target, edge.label) for edge in antecedent.edges()],
        antecedent.x,
        antecedent.y,
        antecedent.copy_counts(),
        rule.consequent_label,
    )


_CHILD = """
import pickle, sys
from repro import api
from repro.pattern import GPAR, Pattern
from repro.testing import eip_fingerprint

with open(sys.argv[1], "rb") as handle:
    batch = pickle.load(handle)
for position, (spec, rule) in enumerate(batch):
    *pattern_fields, consequent = spec
    nodes, edges, x, y, copies = pattern_fields
    fresh = GPAR(Pattern(nodes, edges, x=x, y=y, copies=copies), consequent, validate=False)
    rules = {fresh: position}
    patterns = {fresh.antecedent: position, fresh.pr_pattern(): -position}
    assert rules[rule] == position, f"rule {position} is unfindable by an equal key"
    assert patterns[rule.antecedent] == position and patterns[rule.pr_pattern()] == -position
with api.restore_core(sys.argv[2]) as core:
    (session,) = core.sessions.values()
    assert eip_fingerprint(session.result) == eip_fingerprint(session.recompute())
    with open(sys.argv[3], "wb") as handle:
        pickle.dump(eip_fingerprint(session.result), handle)
"""


def test_unpickled_under_another_hash_seed_equal_patterns_are_found(tmp_path):
    graph = pokec_like(40, 3, seed=7)
    rules = generate_gpars(
        graph, api.parse_predicate(PREDICATE), count=6, max_pattern_edges=3, d=2, seed=5
    )
    copied = GPAR(
        Pattern(
            {"x": "user", "f": "user", "y": "book"},
            [("x", "f", "follow"), ("f", "y", "like_book")],
            x="x", y="y", copies={"f": 2},
        ),
        "like_book",
    )
    batch = []
    for rule in [*rules, copied]:
        # Take everything that is cached: hashes, keys, codes, the memo.
        hash(rule), hash(rule.antecedent), hash(rule.pr_pattern())
        canonical_code(rule.antecedent), rule.antecedent.expanded(), rule.radius
        batch.append((_spec(rule), rule))
    (tmp_path / "batch.pkl").write_bytes(pickle.dumps(batch))

    config = EIPConfig(eta=0.5, num_workers=2)
    with api.open_session(graph.copy(), rules, config=config) as session:
        for seed in range(2):
            session.apply(random_update_batch(session.core.graph, size=5, seed=seed))
        saved = eip_fingerprint(session.result)
        session.core.save_state(tmp_path / "core.pkl")
    assert saved[0], "the checkpointed answer must identify something"

    own_seed = os.environ.get("PYTHONHASHSEED")
    src = str(Path(repro.__file__).resolve().parents[1])
    environment = {
        **os.environ,
        "PYTHONHASHSEED": "4321" if own_seed != "4321" else "1234",
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    files = [str(tmp_path / name) for name in ("batch.pkl", "core.pkl", "out.pkl")]
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, *files],
        env=environment, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert pickle.loads((tmp_path / "out.pkl").read_bytes()) == saved


_CODES_CHILD = """
import pickle, sys
from repro.pattern import Pattern
from repro.pattern.canonical import _compute_code

with open(sys.argv[1], "rb") as handle:
    batch = pickle.load(handle)
for position, (spec, pattern) in enumerate(batch):
    nodes, edges, x, y, copies = spec
    fresh = Pattern(nodes, edges, x=x, y=y, copies=copies)
    assert pattern._code is not None, f"pattern {position} crossed without its code"
    assert pattern._code == _compute_code(fresh), f"pattern {position}: code differs here"
    assert pattern._hash is None, f"pattern {position} carried its hash"
    assert hash(pattern) == hash(fresh) == hash(pattern._key()) and pattern == fresh
"""


def test_canonical_codes_cross_into_another_hash_seed(tmp_path):
    graph = pokec_like(40, 3, seed=7)
    rules = generate_gpars(
        graph, api.parse_predicate(PREDICATE), count=6, max_pattern_edges=3, d=2, seed=5
    )
    copied = Pattern(
        {"x": "user", "f": "user", "y": "book"},
        [("x", "f", "follow"), ("f", "y", "like_book")],
        x="x", y="y", copies={"f": 2},
    )
    patterns = [copied, *(rule.antecedent for rule in rules), *(rule.pr_pattern() for rule in rules)]
    batch = []
    for pattern in patterns:
        hash(pattern), canonical_code(pattern)
        spec = (dict(pattern.node_items()), list(pattern.edges()), pattern.x, pattern.y, pattern.copy_counts())
        batch.append((spec, pattern))
    (tmp_path / "codes.pkl").write_bytes(pickle.dumps(batch))

    own_seed = os.environ.get("PYTHONHASHSEED")
    src = str(Path(repro.__file__).resolve().parents[1])
    environment = {
        **os.environ,
        "PYTHONHASHSEED": "4321" if own_seed != "4321" else "1234",
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    child = subprocess.run(
        [sys.executable, "-c", _CODES_CHILD, str(tmp_path / "codes.pkl")],
        env=environment, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr


def test_pickles_carry_defining_fields_only():
    """The defining fields and the canonical code cross; the structural key,
    its hash and the memo stay behind."""
    pattern = Pattern({"x": "user", "y": "book"}, [("x", "y", "like")], x="x", y="y")
    bare = len(pickle.dumps(pattern))
    hash(pattern), canonical_code(pattern), pattern.has_edge("x", "y", "like")
    payload = pickle.dumps(pattern)
    # 125 B bare (99 B at the parent commit, which shipped edges as plain
    # triples; a PatternEdge names its class once per pickle), plus the code.
    assert bare <= 130
    assert len(payload) <= bare + len(canonical_code(pattern)) + 4
    clone = pickle.loads(payload)
    assert clone._code == canonical_code(pattern)
    assert clone._hash is None and clone._identity is None and clone._derived is None
    assert clone == pattern and clone is not pattern

    rule = GPAR(Pattern({"x": "user", "y": "book", "z": "user"}, [("x", "z", "follow")], "x", "y"), "like")
    hash(rule), rule.pr_pattern(), rule.radius
    clone = pickle.loads(pickle.dumps(rule))
    assert (clone.name, clone.consequent_label) == (rule.name, rule.consequent_label)
    assert vars(clone) == {} and clone._hash is None and clone == rule


# ----------------------------------------------------------------------
# (3) incDiv against the parent commit's quadratic form
# ----------------------------------------------------------------------
class _QuadraticDiversifier:
    """``IncrementalDiversifier`` as it was before dense ids and the bound:
    every fresh rule is scored against every rule ever seen."""

    def __init__(self, objective: DiversificationObjective, k: int) -> None:
        self.objective = objective
        self.k = k
        self.max_pairs = (k + 1) // 2
        self._pairs: list[list] = []  # [first, second, score]
        self._info: dict[GPAR, RuleInfo] = {}

    def _rules_in_queue(self) -> set[GPAR]:
        return {rule for first, second, _score in self._pairs for rule in (first, second)}

    def _pair_score(self, first: GPAR, second: GPAR) -> float:
        info_a, info_b = self._info[first], self._info[second]
        diff = jaccard_distance(info_a.matches, info_b.matches)
        return self.objective.pair_score(info_a.confidence, info_b.confidence, diff)

    @property
    def min_pair_score(self) -> float:
        if len(self._pairs) < self.max_pairs or not self._pairs:
            return -math.inf
        return min(score for _first, _second, score in self._pairs)

    def update(self, delta, sigma) -> None:
        for rule, info in sigma.items():
            if not math.isinf(info.confidence):
                self._info[rule] = info
        fresh = []
        for rule, info in delta.items():
            if math.isinf(info.confidence):
                continue
            self._info[rule] = info
            fresh.append(rule)
        self._fill_queue()
        self._replace_with(fresh)

    def _fill_queue(self) -> None:
        available = [rule for rule in self._info if rule not in self._rules_in_queue()]
        while len(self._pairs) < self.max_pairs and len(available) >= 2:
            best = None
            for index, first in enumerate(available):
                for second in available[index + 1:]:
                    score = self._pair_score(first, second)
                    if best is None or score > best[0]:
                        best = (score, first, second)
            score, first, second = best
            self._pairs.append([first, second, score])
            available.remove(first)
            available.remove(second)

    def _replace_with(self, fresh) -> None:
        if len(self._pairs) < self.max_pairs:
            return
        for rule in fresh:
            in_queue = self._rules_in_queue()
            if rule in in_queue:
                continue
            best_partner, best_score = None, -math.inf
            for partner in self._info:
                if partner == rule or partner in in_queue:
                    continue
                score = self._pair_score(rule, partner)
                if score > best_score:
                    best_score, best_partner = score, partner
            if best_partner is None:
                continue
            worst = min(range(len(self._pairs)), key=lambda i: self._pairs[i][2])
            if best_score > self._pairs[worst][2]:
                self._pairs[worst] = [rule, best_partner, best_score]

    def top_k(self) -> list[GPAR]:
        rules: list[GPAR] = []
        for first, second, _score in sorted(self._pairs, key=lambda pair: -pair[2]):
            for rule in (first, second):
                if rule not in rules:
                    rules.append(rule)
        return rules[: self.k]

    def objective_value(self) -> float:
        rules = self.top_k()
        return self.objective.total_from_matches(
            [self._info[rule].confidence for rule in rules],
            [self._info[rule].matches for rule in rules],
        )


def _numbered_rule(number: int) -> GPAR:
    antecedent = Pattern(
        {"x": "user", "y": "book", "z": f"hobby{number}"}, [("x", "z", "has")], x="x", y="y"
    )
    return GPAR(antecedent, "like", name=f"R{number}")


@pytest.mark.parametrize("k", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("seed", range(8))
def test_diversifier_equals_the_quadratic_reference(seed, k):
    """Random streams built from few distinct confidences and few distinct
    match sets: equal scores everywhere, so any change in visiting order or
    in the strictness of a comparison changes the chosen pairs."""
    rng = random.Random(seed * 31 + k)
    objective = DiversificationObjective(
        lam=rng.choice([0.0, 0.3, 0.5, 1.0]), k=k, normalizer=rng.choice([0.0, 12.0, 400.0])
    )
    confidences = [0.0, 0.4, 0.4, 0.9, 1.7, 1.7, 3.2, math.inf]
    entities = [f"u{index}" for index in range(9)]
    match_sets = [frozenset(rng.sample(entities, rng.randint(0, 6))) for _ in range(5)]
    fast, slow = IncrementalDiversifier(objective, k), _QuadraticDiversifier(objective, k)
    sigma: dict[GPAR, RuleInfo] = {}
    issued = 0
    for _round in range(6):
        delta = {}
        for _ in range(rng.randint(0, 9)):
            issued += 1
            delta[_numbered_rule(issued)] = RuleInfo(
                rng.choice(confidences), rng.randint(1, 9), rng.choice(match_sets)
            )
        if sigma and rng.random() < 0.5:  # a known rule comes back, re-scored
            known = rng.choice(list(sigma))
            delta[_numbered_rule(int(known.name[1:]))] = RuleInfo(
                rng.choice(confidences[:-1]), 2, rng.choice(match_sets)
            )
        sigma.update(delta)
        if rng.random() < 0.4:  # the reduction rules prune Σ between rounds
            sigma = {rule: info for rule, info in sigma.items() if rng.random() < 0.7}
        fast.update(delta, sigma)
        slow.update(delta, sigma)
        assert [rule.name for rule in fast.top_k()] == [rule.name for rule in slow.top_k()]
        assert fast.min_pair_score == slow.min_pair_score
        assert fast.objective_value() == slow.objective_value()


# ----------------------------------------------------------------------
# (4) prefix-summed sketches against the per-comparison Counter forms
# ----------------------------------------------------------------------
def _hop_histograms(graph, node, hops: int) -> list[Counter]:
    per_hop = [Counter() for _ in range(hops)]
    for other, distance in bfs_distances(graph, node, radius=hops).items():
        if distance:
            per_hop[distance - 1][graph.node_label(other)] += 1
    return per_hop


def _at(histograms: list[Counter], hop: int) -> Counter:
    return histograms[hop - 1] if hop <= len(histograms) else Counter()


def _dominates_by_counters(candidate: list[Counter], required: list[Counter]) -> bool:
    candidate_cumulative, required_cumulative = Counter(), Counter()
    for hop in range(1, max(len(candidate), len(required)) + 1):
        candidate_cumulative.update(_at(candidate, hop))
        required_cumulative.update(_at(required, hop))
        for label, needed in required_cumulative.items():
            if candidate_cumulative.get(label, 0) < needed:
                return False
    return True


@given(random_graphs(), st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_sketch_comparisons_equal_the_counter_forms(graph, seed, candidate_hops, required_hops):
    rng = random.Random(seed)
    nodes = sorted(graph.nodes(), key=str)
    for _ in range(6):
        first, second = rng.choice(nodes), rng.choice(nodes)
        candidate = build_sketch(graph, first, candidate_hops)
        required = build_sketch(graph, second, required_hops)
        slow_candidate = _hop_histograms(graph, first, candidate_hops)
        slow_required = _hop_histograms(graph, second, required_hops)
        cumulative = Counter()
        for hop in range(1, candidate_hops + 1):
            cumulative.update(_at(slow_candidate, hop))
            assert candidate.prefix[hop - 1] == dict(cumulative)
        assert candidate.total == sum(sum(hist.values()) for hist in slow_candidate)
        assert sketch_dominates(candidate, required) == _dominates_by_counters(
            slow_candidate, slow_required
        )


# ----------------------------------------------------------------------
# (5) count gates
# ----------------------------------------------------------------------
def _counting(monkeypatch, owner, name: str, calls: list, raising: bool = True) -> None:
    original = getattr(owner, name, None)
    if original is None and not raising:
        return

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


#: ``jaccard_distance`` calls of the mining run below at the parent commit:
#: 324,246 (every fresh rule against every rule ever seen); 4,206 here.
JACCARD_CEILING = 30_000
#: The same run's Lemma 3 bound evaluations: 323,799 when incDiv bounded every
#: rule ever seen per fresh rule, ≈ 5,500 when the scan stops at the first
#: partner that cannot beat ``F'_m``.
BOUND_CEILING = 12_000
#: Canonical codes computed: 2,816 when every proposal paid for one, ≈ 1,550
#: when equal proposals are dropped first.
CODE_CEILING = 1_600
#: Anchored searches the run's match stores fell back to: 19,157 when each
#: child tested its parent's first four embeddings alone, ≈ 1,763 when all
#: siblings share one read of the parent's stream up to the store's cap,
#: ≈ 750 when a growing edge at x also drops centres whose profile row
#: lacks its triple.
FALLBACK_CEILING = 1_000

_MINING_ARGS = (PREDICATE, DMineConfig(k=6, d=2, sigma=4, num_workers=2, max_edges=3))


def _mine():
    predicate, config = _MINING_ARGS
    return api.mine(pokec_like(80, 4, seed=7), api.parse_predicate(predicate), config)


@pytest.fixture(scope="module")
def mining_calls():
    """Call lists of one small ``api.mine`` run: patterns built, structural
    keys computed, match-set distances taken and pair bounds evaluated by the
    diversifier, canonical codes of the dedup,
    the match stores built, and the modules that asked a graph for its edges."""
    import repro.mining.incdiv as incdiv
    import repro.pattern.canonical as canonical

    calls = {
        name: [] for name in ("built", "keyed", "distances", "bounds", "codes", "stores")
    }
    edge_readers: set[str] = set()

    def reading(name):
        original = getattr(repro.graph.Graph, name)

        def read(self, node):
            edge_readers.add(sys._getframe(1).f_globals.get("__name__"))
            return original(self, node)

        return read

    with pytest.MonkeyPatch.context() as monkeypatch:
        _counting(monkeypatch, Pattern, "_init", calls["built"])
        _counting(monkeypatch, Pattern, "_key", calls["keyed"])
        _counting(monkeypatch, incdiv, "jaccard_distance", calls["distances"])
        _counting(monkeypatch, DiversificationObjective, "upper_bound_contribution", calls["bounds"])
        _counting(monkeypatch, canonical, "_compute_code", calls["codes"])
        _counting(monkeypatch, MatchStore, "__init__", calls["stores"])
        for name in ("out_edges", "in_edges"):
            monkeypatch.setattr(repro.graph.Graph, name, reading(name))
        result = _mine()
    assert len(result.top_k) == 6 and result.rounds_executed == 3
    return calls, edge_readers, result


def test_structural_keys_are_computed_once_per_pattern(mining_calls):
    """Patterns are counted at ``Pattern._init``, the constructor that built,
    derived (``with_edge``) and unpickled patterns all go through."""
    calls = mining_calls[0]
    assert 0 < len(calls["keyed"]) <= len(calls["built"])


def test_fresh_rules_are_scored_against_the_bound_only(mining_calls):
    calls = mining_calls[0]
    assert 0 < len(calls["distances"]) <= JACCARD_CEILING
    assert len(calls["distances"]) == 4_206  # the pairs that can beat F'_m, each scored once
    assert 0 < len(calls["bounds"]) <= BOUND_CEILING


def test_dedup_is_keyed_by_code(mining_calls):
    assert 0 < len(mining_calls[0]["codes"]) <= CODE_CEILING


def test_sibling_groups_fall_back_to_few_anchored_searches(mining_calls):
    stores = [args[0] for args in mining_calls[0]["stores"]]
    assert 0 < sum(store.statistics.fallback_probes for store in stores) <= FALLBACK_CEILING


def test_extension_keys_are_read_off_profile_rows(mining_calls):
    assert "repro.mining.expansion" not in mining_calls[1]


def test_mining_counts_equal_a_run_on_the_reference_oracles(mining_calls, monkeypatch):
    """The three rewrites change no proposal, group or pair: the search
    counts and the top-k equal a run with the naive forms patched in."""
    import repro.mining.expansion as expansion
    from repro.testing import reference_extension_keys, reference_group_automorphic

    monkeypatch.setattr(
        expansion,
        "_extension_keys_for_match",
        lambda graph, antecedent, mapping, label, _profile: reference_extension_keys(
            graph, antecedent, mapping, label
        ),
    )
    # ``repro.mining.dmine`` the attribute is the function; patch the module.
    monkeypatch.setattr(sys.modules["repro.mining.dmine"], "group_automorphic", reference_group_automorphic)
    reference, fast = _mine(), mining_calls[2]
    assert reference.candidates_generated == fast.candidates_generated
    assert reference.candidates_pruned == fast.candidates_pruned
    assert [(m.rule, m.support, m.confidence) for m in reference.top_k] == [
        (m.rule, m.support, m.confidence) for m in fast.top_k
    ]


def test_workers_compute_no_canonical_code(monkeypatch):
    """Worker-side mining keys its match store by the pattern: one mine of
    the repo benchmark's batch sample (``benchmarks/e2e/batch.py``'s
    ``mine_config``, sequential) computes no canonical code with
    ``LocalMiner`` or ``MatchStore`` on the stack; the dedup still does."""
    import repro.pattern.canonical as canonical

    callers: list[set] = []
    compute = canonical._compute_code

    def counted(pattern):
        frame, modules = sys._getframe(1), set()
        while frame is not None:
            modules.add(frame.f_globals.get("__name__"))
            frame = frame.f_back
        callers.append(modules)
        return compute(pattern)

    monkeypatch.setattr(canonical, "_compute_code", counted)
    config = DMineConfig(k=8, d=2, sigma=5, num_workers=2, max_edges=3, backend="sequential")
    result = api.mine(pokec_like(100, 4, seed=7, name="sample"), api.parse_predicate(PREDICATE), config)
    assert result.top_k and callers
    workers = {"repro.mining.local_mine", "repro.matching.incremental"}
    assert not [modules & workers for modules in callers if modules & workers]


def test_search_plans_are_built_once_per_pattern(monkeypatch):
    import repro.matching.base
    import repro.matching.guided
    import repro.matching.vf2

    plans: list[tuple] = []  # holds the patterns, so no id is reused
    for module in (repro.matching.base, repro.matching.guided, repro.matching.vf2):
        _counting(monkeypatch, module, "build_search_plan", plans, raising=False)
    graph = pokec_like(60, 3, seed=7)
    rules = generate_gpars(
        graph, api.parse_predicate(PREDICATE), count=6, max_pattern_edges=3, d=2, seed=5
    )
    with api.open_session(graph, rules, config=EIPConfig(eta=0.5, num_workers=2)) as session:
        for seed in range(5):
            session.apply(random_update_batch(session.core.graph, size=6, seed=seed))
        assert session.result.identified
    assert plans
    assert len(plans) == len({(id(pattern), anchor) for pattern, anchor in plans})
