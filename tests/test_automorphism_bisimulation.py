"""Tests for canonical codes, automorphic grouping and the isomorphism oracle.

Production groups rules by ``(consequent label, canonical code)``; the exact
isomorphism search lives in :mod:`repro.testing.reference` as the oracle.
"""

import pytest

from repro.pattern import GPAR, Pattern, canonical_code, group_automorphic
from repro.testing import are_isomorphic, gpars_automorphic


def _rule(nodes, edges, x="x", y="y", consequent="visit", name="R"):
    return GPAR(Pattern(nodes, edges, x=x, y=y), consequent, name=name, validate=False)


@pytest.fixture
def rule_a():
    return _rule(
        {"x": "cust", "f": "cust", "y": "restaurant"},
        [("x", "f", "friend"), ("f", "y", "visit")],
    )


@pytest.fixture
def rule_a_renamed():
    """Same structure as rule_a but with different internal node ids."""
    return _rule(
        {"x": "cust", "buddy": "cust", "y": "restaurant"},
        [("x", "buddy", "friend"), ("buddy", "y", "visit")],
    )


@pytest.fixture
def rule_b():
    """Different structure: the friend edge points the other way."""
    return _rule(
        {"x": "cust", "f": "cust", "y": "restaurant"},
        [("f", "x", "friend"), ("f", "y", "visit")],
    )


class TestIsomorphism:
    def test_renamed_patterns_are_isomorphic(self, rule_a, rule_a_renamed):
        assert are_isomorphic(rule_a.pr_pattern(), rule_a_renamed.pr_pattern())
        assert gpars_automorphic(rule_a, rule_a_renamed)

    def test_different_structure_not_isomorphic(self, rule_a, rule_b):
        assert not are_isomorphic(rule_a.pr_pattern(), rule_b.pr_pattern())

    def test_designated_nodes_must_correspond(self):
        first = Pattern(
            {"x": "cust", "f": "cust"}, [("x", "f", "friend")], x="x", y=None
        )
        second = Pattern(
            {"x": "cust", "f": "cust"}, [("x", "f", "friend")], x="f", y=None
        )
        assert not are_isomorphic(first, second)

    def test_copy_expansion_respected(self, r1):
        # The same rule compared against itself must of course be isomorphic,
        # including the expansion of its 3-copies node.
        assert are_isomorphic(r1.pr_pattern(), r1.pr_pattern())

    def test_size_mismatch_fast_reject(self, rule_a):
        bigger = _rule(
            {"x": "cust", "f": "cust", "g": "cust", "y": "restaurant"},
            [("x", "f", "friend"), ("f", "g", "friend"), ("f", "y", "visit")],
        )
        assert not are_isomorphic(rule_a.pr_pattern(), bigger.pr_pattern())

    def test_different_consequent_not_automorphic(self, rule_a):
        other = _rule(
            {"x": "cust", "f": "cust", "y": "restaurant"},
            [("x", "f", "friend"), ("f", "y", "visit")],
            consequent="like",
        )
        assert not gpars_automorphic(rule_a, other)


class TestCanonicalCode:
    def test_same_code_for_renamed(self, rule_a, rule_a_renamed):
        assert canonical_code(rule_a.pr_pattern()) == canonical_code(
            rule_a_renamed.pr_pattern()
        )

    def test_different_code_for_different_structure(self, rule_a, rule_b):
        assert canonical_code(rule_a.pr_pattern()) != canonical_code(rule_b.pr_pattern())

    def test_code_is_deterministic(self, r1):
        assert canonical_code(r1.pr_pattern()) == canonical_code(r1.pr_pattern())

    def test_fallback_codes_can_split_isomorphic_patterns(self):
        """The stated limit past the ordering cap: x with f-edges to six c
        nodes, each g-wired to a distinct d node.  Two wirings are isomorphic,
        but both six-member colour classes exceed the cap, the name order
        encodes the wirings differently, and the rules stay in two groups."""

        def wired(order):
            nodes = {"x": "a", "y": "b"}
            edges = []
            for index, target in enumerate(order):
                nodes[f"c{index}"], nodes[f"d{index}"] = "c", "d"
                edges += [("x", f"c{index}", "f"), (f"c{index}", f"d{target}", "g")]
            return _rule(nodes, edges, consequent="s", name=f"wired-{order}")

        first, second = wired((0, 1, 2, 3, 4, 5)), wired((1, 0, 3, 2, 5, 4))
        assert first.antecedent.num_edges == 12
        codes = [canonical_code(rule.pr_pattern()) for rule in (first, second)]
        assert all(code.startswith("fallback:") for code in codes)
        assert codes[0] != codes[1]
        assert gpars_automorphic(first, second)
        assert len(group_automorphic([first, second])) == 2


class TestGrouping:
    def test_group_automorphic(self, rule_a, rule_a_renamed, rule_b):
        groups = group_automorphic([rule_a, rule_a_renamed, rule_b])
        assert len(groups) == 2
        sizes = sorted(len(group) for group in groups)
        assert sizes == [1, 2]

    def test_grouping_paper_rules(self, g1_rules):
        groups = group_automorphic(list(g1_rules))
        # The five paper rules are pairwise non-automorphic.
        assert len(groups) == len(g1_rules)
