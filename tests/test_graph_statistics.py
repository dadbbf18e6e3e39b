"""Tests for graph statistics."""

from repro.graph.statistics import most_frequent_edge_patterns


class TestSummaries:
    def test_most_frequent_edge_patterns(self, g1):
        patterns = most_frequent_edge_patterns(g1, top=3)
        assert len(patterns) == 3
        counts = [count for *_rest, count in patterns]
        assert counts == sorted(counts, reverse=True)
        top = patterns[0]
        assert top[3] >= patterns[-1][3]

