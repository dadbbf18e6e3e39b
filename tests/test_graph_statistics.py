"""Tests for graph statistics."""

import pytest

from repro.graph import Graph, summarize
from repro.graph.statistics import degree_histogram, most_frequent_edge_patterns


class TestSummaries:
    def test_summarize_counts(self, g1):
        summary = summarize(g1)
        assert summary.num_nodes == g1.num_nodes
        assert summary.num_edges == g1.num_edges
        assert summary.num_node_labels == len(g1.node_labels())
        assert summary.avg_out_degree == pytest.approx(g1.num_edges / g1.num_nodes)
        assert "|V|" in summary.as_row()

    def test_summarize_empty_graph(self):
        summary = summarize(Graph(name="empty"))
        assert summary.num_nodes == 0
        assert summary.avg_out_degree == 0.0

    def test_degree_histogram(self, g1):
        histogram = degree_histogram(g1)
        assert sum(histogram.values()) == g1.num_nodes
        assert all(degree >= 0 for degree in histogram)

    def test_most_frequent_edge_patterns(self, g1):
        patterns = most_frequent_edge_patterns(g1, top=3)
        assert len(patterns) == 3
        counts = [count for *_rest, count in patterns]
        assert counts == sorted(counts, reverse=True)
        top = patterns[0]
        assert top[3] >= patterns[-1][3]

