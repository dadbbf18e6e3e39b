"""Kept witnesses and shared neighbourhoods on the tick path.

A streaming worker keeps, for every positive ``(pattern, centre)`` verdict,
the embedding its search returned (:class:`repro.matching.base.WitnessStore`)
and answers the next probe of the pair by re-validating that tuple in full.
The store is a cache **validated on use**: nothing invalidates it, so the
only way it can be wrong is a validation that accepts a tuple which is no
longer a match.  This file attacks exactly that:

(i)   adversarial unit cases — relabel away and back, same id under another
      label, a witness edge lost while a second embedding survives, a shed
      witness node, a probe inside an open batch;
(ii)  a differential property test: warm identifier == fresh recompute after
      every batch of label-flip-heavy streams, sequential and processes;
(iii) checkpoints carry no witnesses: a restored core searches once, then hits;
(iv)  the store is bounded by live trie patterns × owned centres, across
      retirement, removal, shedding and a 100-tick churn;
(v)   area-recomputed membership == membership rebuilt from nothing;
(vi)  the count gates of the change: ticks answer positives from witnesses,
      and a batch reads each node's neighbourhood once.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro import api
from repro.datasets import generate_gpars, pokec_like
from repro.graph import Graph, columnar_view
from repro.graph.neighborhood import ball
from repro.identification import EIPConfig, identify_entities
from repro.matching import GuidedMatcher, VF2Matcher
from repro.matching.base import Matcher, PlanMatcher, WitnessStore, search_plan
from repro.matching.multi import trie_patterns
from repro.obs import registry
from repro.obs.stats import enable_collection
from repro.partition.fragment import Fragment
from repro.partition.lifecycle import FragmentManager, FragmentUpdate, apply_fragment_update
from repro.pattern.pattern import Pattern
from repro.stream import StreamingIdentifier, UpdateBatch, UpdateOp, random_update_batch
from repro.stream.identifier import read_checkpoint
from repro.testing import (
    counters,
    disable_collection,
    eip_fingerprint,
    reference_recheck_pairs,
    reset_metrics,
)
from repro.testing.storms import label_flip_storm

PREDICATE = "user:like_book:personal development"
BOOK = "book:personal development"


# ----------------------------------------------------------------------
# (i) adversarial unit cases
# ----------------------------------------------------------------------
VISITS_IN_CITY = Pattern(
    nodes={"x": "cust", "v": "rest", "w": "city"},
    edges=[("x", "v", "visit"), ("v", "w", "in")],
    x="x",
)


def _diamond(restaurants=("r1", "r2")) -> Graph:
    """``c`` visits each restaurant, each is in ``city``: one embedding per restaurant."""
    graph = Graph(name="diamond")
    graph.add_node("c", "cust")
    graph.add_node("city", "city")
    for restaurant in restaurants:
        graph.add_node(restaurant, "rest")
        graph.add_edge("c", restaurant, "visit")
        graph.add_edge(restaurant, "city", "in")
    return graph


def _keeping(matcher_cls) -> PlanMatcher:
    matcher = matcher_cls()
    matcher.witnesses = WitnessStore()
    return matcher


def _kept(matcher, pattern=VISITS_IN_CITY, anchor="c"):
    """The kept witness of the pair as ``{pattern node: data node}``, or None."""
    expanded = pattern.expanded()
    witness = matcher.witnesses.kept.get(expanded, {}).get(anchor)
    if witness is None:
        return None
    return dict(zip(search_plan(expanded, expanded.x).order, witness))


def _probe(matcher, graph) -> bool:
    """One probe of the pair, held equal to a store-less matcher's verdict."""
    verdict = matcher.exists_match_at(graph, VISITS_IN_CITY, "c")
    assert verdict == type(matcher)().exists_match_at(graph, VISITS_IN_CITY, "c")
    return verdict


@pytest.fixture(params=[GuidedMatcher, VF2Matcher], ids=["guided", "vf2"])
def matcher(request):
    return _keeping(request.param)


@pytest.fixture(params=[True, False], ids=["resident", "raw"])
def resident(request):
    return request.param


def _graph(resident, restaurants=("r1", "r2")) -> Graph:
    graph = _diamond(restaurants)
    if resident:
        columnar_view(graph)
    return graph


class TestAdversarialCases:
    def test_a_hit_is_a_full_revalidation_not_a_search(self, matcher, resident):
        graph = _graph(resident)
        assert _probe(matcher, graph)
        assert matcher.statistics.matches_found == 1 and matcher.statistics.witness_hits == 0
        expanded_before = matcher.statistics.states_expanded
        assert _probe(matcher, graph)
        assert matcher.statistics.witness_hits == 1 and matcher.statistics.matches_found == 1
        assert matcher.statistics.states_expanded == expanded_before
        assert set(_kept(matcher)) == {"x", "v", "w"} and _kept(matcher)["x"] == "c"

    def test_witness_node_relabelled_away_and_back(self, matcher, resident):
        graph = _graph(resident)
        assert _probe(matcher, graph)
        first = _kept(matcher)["v"]
        graph.relabel_node(first, "closed")
        assert _probe(matcher, graph)  # the other restaurant still witnesses the pair
        assert matcher.statistics.witness_invalidated == 1
        second = _kept(matcher)["v"]
        assert second != first and graph.node_label(second) == "rest"
        graph.relabel_node(first, "rest")
        assert _probe(matcher, graph)
        assert _kept(matcher)["v"] == second and matcher.statistics.witness_hits == 1

    def test_only_witness_relabelled_away_and_back(self, matcher, resident):
        graph = _graph(resident, restaurants=("r1",))
        assert _probe(matcher, graph)
        graph.relabel_node("r1", "closed")
        assert not _probe(matcher, graph)
        assert _kept(matcher) is None and len(matcher.witnesses) == 0  # dropped, not left to rot
        graph.relabel_node("r1", "rest")
        assert _probe(matcher, graph)  # by search: nothing was kept
        assert matcher.statistics.witness_hits == 0 and matcher.statistics.matches_found == 2

    def test_witness_node_reborn_under_another_label(self, matcher, resident):
        """Same id, same edges, other label: every dict probe but one still succeeds."""
        graph = _graph(resident, restaurants=("r1",))
        assert _probe(matcher, graph)
        with graph.batch_update():
            graph.remove_node("r1")
            graph.add_node("r1", "bar")
            graph.add_edge("c", "r1", "visit")
            graph.add_edge("r1", "city", "in")
        assert not _probe(matcher, graph)
        assert matcher.statistics.witness_invalidated == 1 and matcher.statistics.witness_hits == 0

    def test_witness_edge_removed_while_a_second_embedding_survives(self, matcher, resident):
        graph = _graph(resident)
        assert _probe(matcher, graph)
        first = _kept(matcher)["v"]
        graph.remove_edge(first, "city", "in")
        assert _probe(matcher, graph)
        assert _kept(matcher)["v"] != first, "the broken witness must have been replaced"
        assert matcher.statistics.witness_invalidated == 1 and matcher.statistics.matches_found == 2

    def test_witness_node_shed_while_the_centre_stays_owned(self, matcher):
        graph = _graph(resident=True)
        fragment = Fragment(index=0, graph=graph, owned_centers={"c"})
        assert _probe(matcher, graph)
        first = _kept(matcher)["v"]
        apply_fragment_update(fragment, FragmentUpdate(sequence=1, shed=(first,)))
        assert "c" in fragment.owned_centers and not graph.has_node(first)
        assert _probe(matcher, graph)  # through the restaurant that stayed resident
        assert _kept(matcher)["v"] != first
        apply_fragment_update(fragment, FragmentUpdate(sequence=2, shed=(_kept(matcher)["v"],)))
        assert not _probe(matcher, graph) and len(matcher.witnesses) == 0

    @pytest.mark.parametrize("broken", [True, False], ids=["witness-broken", "witness-intact"])
    def test_open_batch_neither_reads_nor_writes_the_store(self, matcher, resident, broken):
        graph = _graph(resident)
        assert _probe(matcher, graph)
        witness = _kept(matcher)
        counted = matcher.statistics.snapshot()
        with graph.batch_update():
            if broken:
                graph.remove_edge(witness["v"], "city", "in")
            assert matcher.exists_match_at(graph, VISITS_IN_CITY, "c")  # raw search, half-applied state
            assert _kept(matcher) == witness, "an open batch must not touch the store"
            after = matcher.statistics.snapshot()
            assert after["witness_hits"] == counted["witness_hits"]
            assert after["witness_invalidated"] == counted["witness_invalidated"]
            assert after["matches_found"] == counted["matches_found"] + 1
        cold = _keeping(type(matcher))
        with graph.batch_update():
            graph.add_node("late", "rest")
            assert cold.exists_match_at(graph, VISITS_IN_CITY, "c")
            assert len(cold.witnesses) == 0, "a verdict on a half-applied state must not be kept"

    def test_find_match_at_never_consults_the_store(self, matcher, resident):
        """Mining's canonical witness is the DFS-first mapping, whatever was kept."""
        graph = _graph(resident)
        assert _probe(matcher, graph)
        expanded = VISITS_IN_CITY.expanded()
        other = ({"r1", "r2"} - {_kept(matcher)["v"]}).pop()
        matcher.witnesses.kept[expanded]["c"] = tuple(
            {"x": "c", "v": other, "w": "city"}[node] for node in search_plan(expanded, "x").order
        )
        assert matcher.find_match_at(graph, VISITS_IN_CITY, "c") == type(matcher)().find_match_at(
            graph, VISITS_IN_CITY, "c"
        )

    def test_one_shot_matchers_have_no_store(self):
        assert Matcher.witnesses is None and GuidedMatcher().witnesses is None
        graph = pokec_like(25, 3, seed=2)
        rules = _sigma(graph, count=4)
        made = []
        original = GuidedMatcher.__init__

        def spy(self, *args, **kwargs):
            original(self, *args, **kwargs)
            made.append(self)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(GuidedMatcher, "__init__", spy)
            identify_entities(graph, rules, eta=0.5, num_workers=2)
        assert made, "the spy must have seen api.identify's matchers"
        assert all(m.witnesses is None for m in made), "api.identify must neither fill nor read a store"


# ----------------------------------------------------------------------
# streaming helpers
# ----------------------------------------------------------------------
def _sigma(graph, count=6, seed=5):
    predicate = api.parse_predicate(PREDICATE)
    return generate_gpars(graph, predicate, count=count, max_pattern_edges=3, d=2, seed=seed)


def _stores(identifier) -> dict[int, WitnessStore]:
    """fragment index → its worker's store (in-process backends keep the contexts)."""
    found = {}
    for index, context in identifier.runtime.executor._contexts.items():
        for key, value in context.state.items():
            if isinstance(key, tuple) and key[0] == "eip-matcher":
                found[index] = value.witnesses
    return found


def _fresh(identifier):
    return identify_entities(
        identifier.graph.copy(), list(identifier.rules), eta=identifier.config.eta,
        num_workers=identifier.config.num_workers, seed=identifier.config.seed,
    )


def perturb_and_revert(graph: Graph, count: int, seed: int, toggles: int = 3) -> list[UpdateBatch]:
    """Batch *i* undoes batch *i-1*'s perturbation, then applies its own: a user
    goes dormant or a guest arrives liking the planted book, plus one
    ``like_book`` and some ``follow`` toggles — the graph is always its base
    plus ONE perturbation (the shape of the repo benchmark's hub workload).
    *graph* itself is not mutated."""
    rng = random.Random(seed)
    mirror = graph.copy()
    users = sorted(node for node, label in mirror.node_items() if label == "user")
    undo: list[UpdateOp] = []
    batches = []
    for index in range(count):
        ops = list(undo)
        for op in undo:
            op.apply(mirror)
        if index % 2:
            guest = f"guest{index}"
            fresh = [UpdateOp.add_node(guest, "user"), UpdateOp.add_edge(guest, BOOK, "like_book")]
            undo = [UpdateOp.remove_node(guest)]
        else:  # every other time a user the planted predicate holds for: the answer moves
            fans = sorted(mirror.in_neighbors(BOOK, "like_book"), key=str) if index % 4 else []
            user = rng.choice([fan for fan in fans if fan in users] or users)
            fresh = [UpdateOp.relabel_node(user, "dormant")]
            undo = [UpdateOp.relabel_node(user, "user")]
        chosen: set = set()
        while len(chosen) < toggles:
            target, label = (rng.choice(users), "follow") if chosen else (BOOK, "like_book")
            edge = (rng.choice(users), target, label)
            if edge[0] == edge[1] or edge in chosen:
                continue
            chosen.add(edge)
            present = mirror.has_edge(*edge)
            fresh.append(UpdateOp.remove_edge(*edge) if present else UpdateOp.add_edge(*edge))
            undo.append(UpdateOp.add_edge(*edge) if present else UpdateOp.remove_edge(*edge))
        for op in fresh:
            op.apply(mirror)
        batches.append(UpdateBatch(ops=tuple(ops + fresh)))
    return batches


@pytest.fixture
def counted():
    """Statistics collection on for the test, the registry clean on both sides."""
    reset_metrics(registry())
    enable_collection()
    yield lambda name: counters(registry(), "repro_match_").get(f"repro_match_{name}_total", 0)
    disable_collection()
    reset_metrics(registry())


# ----------------------------------------------------------------------
# (ii) differential property test
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["sequential", "processes"])
def test_warm_identifier_equals_fresh_under_label_flip_heavy_streams(backend):
    """40 streams × 4 batches; a warm store must never change an answer."""
    answered = hits = 0
    for stream in range(40):
        graph = pokec_like(24, 3, seed=stream % 7 + 1)
        rules = _sigma(graph, count=5, seed=stream)
        config = EIPConfig(eta=0.5, num_workers=2, backend=backend, executor_workers=1 + stream % 2)
        with StreamingIdentifier(graph, rules, config=config) as identifier:
            for position in range(4):
                sampler = random_update_batch if position == 2 else label_flip_storm
                identifier.apply(sampler(graph, size=6, seed=stream * 10 + position))
                maintained = eip_fingerprint(identifier.result)
                assert maintained == eip_fingerprint(_fresh(identifier)), (backend, stream, position)
                answered += bool(maintained[0])
            if backend == "sequential":
                hits += sum(len(store) for store in _stores(identifier).values())
    assert answered > 40, "the streams must mostly compare non-empty answers"
    assert backend != "sequential" or hits > 0


# ----------------------------------------------------------------------
# (iii) checkpoints carry no witnesses
# ----------------------------------------------------------------------
def test_restored_core_rebuilds_its_witnesses(tmp_path, counted, monkeypatch):
    """Witnesses are rebuilt, not checkpointed (``format: 1`` unchanged): the
    first tick after a restore starts from empty stores and searches for
    every witness it ends up holding.  (It can still count a few hits: a
    prefix the antecedent pass searched is probed again by the PR pass of
    the same round — hits on witnesses written moments earlier.)  The ticks
    re-verify by the coarse rule, every pair within d hops of a change, so
    that kept witnesses are probed at all: the tick's own walk skips the
    positives no change can reach."""
    monkeypatch.setattr(StreamingIdentifier, "_recheck_pairs", reference_recheck_pairs)
    graph = pokec_like(40, 3, seed=7)
    batches = perturb_and_revert(graph, 6, seed=1)
    config = EIPConfig(eta=0.5, num_workers=2)
    with api.open_session(graph, _sigma(graph), config=config) as session:
        for batch in batches[:4]:
            session.apply(batch)
        path = session.core.save_state(tmp_path / "state.pkl")
        reset_metrics(registry())
        session.apply(batches[4])  # the same tick, on the session that kept its witnesses
        warm_hits, warm_found = counted("witness_hits"), counted("matches_found")
        assert warm_hits > warm_found
    state = read_checkpoint(path)
    assert state["format"] == 1 and not any("witness" in str(key).lower() for key in state)
    with api.restore_core(path) as restored:
        (session,) = restored.sessions.values()
        identifier = restored.identifier
        assert _stores(identifier) == {}, "a restored core starts with new worker contexts"
        reset_metrics(registry())
        restored.apply(batches[4])
        cold_hits, cold_found = counted("witness_hits"), counted("matches_found")
        assert cold_hits + cold_found == warm_hits + warm_found, "same verdicts either way"
        assert cold_found > warm_found and cold_hits < warm_hits
        assert cold_found >= sum(len(store) for store in _stores(identifier).values()) > 0
        assert eip_fingerprint(session.result) == eip_fingerprint(session.recompute())
        reset_metrics(registry())
        restored.apply(batches[5])
        assert counted("witness_hits") > counted("matches_found")
        assert eip_fingerprint(session.result) == eip_fingerprint(session.recompute())


# ----------------------------------------------------------------------
# (iv) the store is bounded
# ----------------------------------------------------------------------
def test_store_is_bounded_by_live_patterns_and_owned_centres():
    graph = pokec_like(40, 3, seed=7)
    rules = _sigma(graph, count=10)
    batches = perturb_and_revert(graph, 100, seed=4)
    with api.open_shared_core(graph, EIPConfig(eta=0.5, num_workers=2), radius_floor=3) as core:
        core.open_session("stays", rules[:5])
        leaving = core.open_session("leaves", rules[4:])
        identifier = core.identifier

        def live():
            return trie_patterns(identifier.rules, identifier._census_pairs)

        def check_bound():
            for index, store in _stores(identifier).items():
                owned = identifier.manager.owned_centers(index)
                assert set(store.kept) <= live()
                assert all(set(by_anchor) <= owned for by_anchor in store.kept.values())
                assert len(store) <= len(live()) * len(owned)

        for batch in batches[:40]:
            core.apply(batch)
        check_bound()
        before = live()
        kept_before = set().union(*(store.kept for store in _stores(identifier).values()))
        core.close_session(leaving)
        retired = before - live()
        assert retired & kept_before, "the leaving tenant must have had witnesses of its own"
        for batch in batches[40:]:
            core.apply(batch)
            check_bound()
        kept_after = set().union(*(store.kept for store in _stores(identifier).values()))
        assert not retired & kept_after
        assert all(  # the hundred guests of the churn left nothing behind
            not str(anchor).startswith("guest") or graph.has_node(anchor)
            for store in _stores(identifier).values()
            for by_anchor in store.kept.values()
            for anchor in by_anchor
        )
        assert sum(len(store) for store in _stores(identifier).values()) > 0


# ----------------------------------------------------------------------
# (v) area-recomputed membership == membership rebuilt from nothing
# ----------------------------------------------------------------------
def test_area_membership_equals_the_owned_balls_rebuilt_from_nothing():
    """The reference form, kept here: membership rebuilt from each owned
    centre's freshly computed ball must agree with what ``derive_batch``
    maintained by recomputing only the area near the change, and the
    slices must carry exactly the difference, on 30 deletion-heavy batches."""
    from repro.datasets import most_frequent_predicates, synthetic_graph
    from repro.partition import partition_graph

    graph = synthetic_graph(140, 420, num_node_labels=5, num_edge_labels=3, seed=3)
    x_label = most_frequent_predicates(graph, top=1)[0].label("x")
    radius = 2
    fragments = partition_graph(graph, 3, centers=graph.nodes_with_label(x_label), d=radius, seed=0)
    manager = FragmentManager(graph, fragments, radius, x_label)
    shed_total = entered_total = 0
    for position in range(30):
        batch = random_update_batch(graph, size=10, seed=500 + position, deletion_bias=0.6)
        members_before = {index: set(nodes) for index, nodes in manager._node_sets.items()}
        delta = batch.apply(graph)
        plan = manager.derive_batch(delta)

        reference = {index: set() for index in members_before}
        for center, owner in manager._owner.items():
            reference[owner] |= ball(graph, center, radius)  # plain BFS: no memo, no area
        for index, members in reference.items():
            assert manager._node_sets[index] == members, (position, index)
            update = plan.updates[index]
            entered = members - members_before[index]
            vanished = members_before[index] - members
            assert {node for node, _label, _attrs in update.add_nodes} == entered
            assert set(update.shed) == {node for node in vanished if graph.has_node(node)}
            assert set(update.remove_nodes) == {node for node in vanished if not graph.has_node(node)}
            shed_total += len(update.shed)
            entered_total += len(entered)
        summary = manager.resident_summary()
        assert summary["resident_nodes"] == sum(len(members) for members in reference.values())
        assert plan.shed_nodes == sum(len(update.shed) for update in plan.updates.values())
    assert shed_total > 0 and entered_total > 0, "the batches must have shed and admitted nodes"


# ----------------------------------------------------------------------
# (vi) the count gates
# ----------------------------------------------------------------------
def _hub_session():
    graph = pokec_like(80, 3, seed=7)
    return graph, _sigma(graph, count=8), perturb_and_revert(graph, 21, seed=7, toggles=3)


def _tick_counts(graph, rules, batches, counted):
    """Per maintained tick: ``(witness_hits, matches_found, profile_matches, fingerprint)``."""
    out = []
    with api.open_session(graph.copy(), rules, config=EIPConfig(eta=0.5, num_workers=2)) as session:
        session.apply(batches[0])  # warm-up, as in the repo benchmark
        for batch in batches[1:]:
            reset_metrics(registry())
            session.apply(batch)
            out.append((
                counted("witness_hits"), counted("matches_found"), counted("profile_matches"),
                eip_fingerprint(session.result),
            ))
    return out


def test_ticks_answer_positives_from_kept_witnesses(counted):
    """Over 20 perturb-and-revert ticks that re-verify by the coarse rule
    (every pair within d hops of a change) the positive verdicts decided
    without a search — by a kept witness or by the anchor's profile — are
    at least 4x the searched ones
    (``witness_hits + profile_matches >= 4 x matches_found``), and
    ``witness_hits + matches_found + profile_matches`` is the number of
    positive verdicts each tick decided — what ``matches_found`` reads when
    every pair is searched.  The tick's own walk re-verifies a subset of
    those pairs — fewer positive verdicts — and serves the same answers."""
    graph, rules, batches = _hub_session()
    walked = _tick_counts(graph, rules, batches, counted)
    with pytest.MonkeyPatch.context() as coarse:
        coarse.setattr(StreamingIdentifier, "_recheck_pairs", reference_recheck_pairs)
        kept = _tick_counts(graph, rules, batches, counted)
        assert kept == _tick_counts(graph, rules, batches, counted), "sequential counts must repeat"
        with pytest.MonkeyPatch.context() as patch:  # no witness, no profile verdict: every pair searched
            patch.setattr(PlanMatcher, "exists_match_at", Matcher.exists_match_at)
            patch.setattr(GuidedMatcher, "_profile_decides", False)
            searched = _tick_counts(graph, rules, batches, counted)
    assert [tick[3] for tick in walked] == [tick[3] for tick in kept]
    assert sum(sum(tick[:3]) for tick in walked) < sum(sum(tick[:3]) for tick in kept)
    assert len(kept) == len(searched) == 20
    for (hits, found, profiled, answer), (no_hits, everything, no_profiled, same) in zip(kept, searched):
        assert no_hits == no_profiled == 0 and answer == same
        assert hits + found + profiled == everything
    hits, found, profiled = (sum(tick[i] for tick in kept) for i in range(3))
    assert found > 0 and hits > 0 and hits + profiled >= 4 * found, (hits, found, profiled)
    assert len({tick[3][0] for tick in kept}) > 1, "the identified set must change along the way"


def test_derive_batch_reads_each_neighbourhood_once_per_tick(monkeypatch):
    graph, rules, batches = _hub_session()
    calls: Counter = Counter()
    inside = []
    original_neighbors = Graph.neighbors
    original_derive = FragmentManager.derive_batch

    def counting_neighbors(self, node):
        if inside:
            calls[node] += 1
        return original_neighbors(self, node)

    def bracketed_derive(self, delta):
        inside.append(True)
        try:
            return original_derive(self, delta)
        finally:
            inside.pop()

    monkeypatch.setattr(Graph, "neighbors", counting_neighbors)
    monkeypatch.setattr(FragmentManager, "derive_batch", bracketed_derive)
    with api.open_session(graph.copy(), rules, config=EIPConfig(eta=0.5, num_workers=2)) as session:
        for batch in batches:
            calls.clear()
            report, _delta = session.apply(batch)
            assert report.rechecked_centers > 40, "a hub tick must recheck most centres"
            assert calls and max(calls.values()) == 1, calls.most_common(3)
