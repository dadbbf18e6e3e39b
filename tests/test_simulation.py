"""Tests for the graph-simulation matching semantics (future-work extension)."""

import pytest

from repro.graph import Graph
from repro.matching import (
    SimulationMatcher,
    VF2Matcher,
    maximum_dual_simulation,
    simulation_match_set,
)
from repro.pattern import Pattern, PatternBuilder


@pytest.fixture
def cycle_graph() -> Graph:
    """A 2-cycle of customers plus a dangling chain of the same labels."""
    graph = Graph(name="cycles")
    for node in ("a", "b", "c", "d"):
        graph.add_node(node, "cust")
    graph.add_edge("a", "b", "friend")
    graph.add_edge("b", "a", "friend")
    graph.add_edge("c", "d", "friend")
    return graph


@pytest.fixture
def friend_cycle_pattern() -> Pattern:
    return (
        PatternBuilder()
        .node("x", "cust")
        .node("y", "cust")
        .edge("x", "y", "friend")
        .edge("y", "x", "friend")
        .designate(x="x", y="y")
        .build()
    )


class TestMaximumSimulation:
    def test_simulation_on_paper_graph(self, g1, r7):
        """Every isomorphism match is also a simulation match."""
        iso = VF2Matcher().match_set(g1, r7.pr_pattern())
        sim = simulation_match_set(g1, r7.pr_pattern())
        assert iso <= sim

    def test_simulation_respects_labels(self, g1):
        pattern = Pattern(nodes={"x": "spaceship"}, edges=[], x="x")
        assert simulation_match_set(g1, pattern) == set()

    def test_simulation_weaker_than_isomorphism_on_cycles(
        self, cycle_graph, friend_cycle_pattern
    ):
        """Simulation cannot distinguish the 2-cycle from the chain's source...

        ...but isomorphism can: only a and b lie on an actual mutual-friend
        cycle, while simulation also keeps them (it never adds non-cycle
        nodes here because the backward condition on the chain fails).
        """
        iso = VF2Matcher().match_set(cycle_graph, friend_cycle_pattern)
        sim = simulation_match_set(cycle_graph, friend_cycle_pattern)
        assert iso == {"a", "b"}
        assert iso <= sim

    def test_total_simulation_required(self, cycle_graph):
        """If one pattern node cannot be simulated, the whole result is empty."""
        pattern = (
            PatternBuilder()
            .node("x", "cust")
            .node("r", "restaurant")
            .edge("x", "r", "visit")
            .designate(x="x", y="r")
            .build()
        )
        simulation = maximum_dual_simulation(pattern, cycle_graph)
        assert all(not candidates for candidates in simulation.values())

    def test_dual_condition_prunes_dangling_nodes(self, cycle_graph, friend_cycle_pattern):
        simulation = maximum_dual_simulation(friend_cycle_pattern, cycle_graph)
        # d has no outgoing friend edge, so it cannot simulate either node;
        # c has no incoming friend edge, so it is pruned by the backward check.
        assert "d" not in simulation["x"] and "c" not in simulation["x"]

    def test_copy_counts_are_expanded(self, g1, r1):
        simulation = maximum_dual_simulation(r1.pr_pattern(), g1)
        assert simulation[r1.x] >= {"cust1", "cust2", "cust3"}


class TestSimulationMatcher:
    def test_match_set_with_candidate_restriction(self, g1, r7):
        matcher = SimulationMatcher()
        full = matcher.match_set(g1, r7.pr_pattern())
        restricted = matcher.match_set(g1, r7.pr_pattern(), candidates={"cust1"})
        assert restricted == full & {"cust1"}

    def test_exists_match_at(self, g1, r7):
        matcher = SimulationMatcher()
        assert matcher.exists_match_at(g1, r7.pr_pattern(), "cust1")
        assert not matcher.exists_match_at(g1, r7.pr_pattern(), "LeBernardin")

    def test_cache_reuse_and_clear(self, g1, r7):
        matcher = SimulationMatcher()
        first = matcher.match_set(g1, r7.pr_pattern())
        second = matcher.match_set(g1, r7.pr_pattern())
        assert first == second
        assert matcher._cache, "the second query must have had a cached fixpoint to reuse"
        assert SimulationMatcher().match_set(g1, r7.pr_pattern()) == first  # a cold one agrees
