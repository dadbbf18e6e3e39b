"""Serialisation round-trips for graphs."""

import pytest

from repro.datasets import pokec_like
from repro.exceptions import GraphError, NodeNotFoundError
from repro.graph import (
    ColumnarFragment,
    Graph,
    graph_from_dict,
    graph_to_dict,
    load_graph_json,
    save_graph_json,
)
from repro.testing import resident_label, resident_sketch, structure_equal


@pytest.fixture
def sample() -> Graph:
    graph = Graph(name="sample")
    graph.add_node("u1", "user", {"age": 30})
    graph.add_node("u2", "user")
    graph.add_node("c", "city")
    graph.add_edge("u1", "u2", "follow")
    graph.add_edge("u1", "c", "live_in")
    graph.add_edge("u2", "c", "live_in")
    return graph


class TestDictRoundTrip:
    def test_roundtrip_preserves_structure(self, sample):
        rebuilt = graph_from_dict(graph_to_dict(sample))
        assert structure_equal(rebuilt, sample)
        assert rebuilt.name == "sample"

    def test_roundtrip_preserves_attrs(self, sample):
        rebuilt = graph_from_dict(graph_to_dict(sample))
        assert rebuilt.node_attrs("u1") == {"age": 30}

    def test_dict_shape(self, sample):
        document = graph_to_dict(sample)
        assert {node["id"] for node in document["nodes"]} == {"u1", "u2", "c"}
        assert len(document["edges"]) == 3


class TestJsonFiles:
    def test_json_roundtrip(self, sample, tmp_path):
        path = tmp_path / "graph.json"
        save_graph_json(sample, path)
        loaded = load_graph_json(path)
        assert structure_equal(loaded, sample)

    def test_json_file_is_readable_text(self, sample, tmp_path):
        path = tmp_path / "graph.json"
        save_graph_json(sample, path)
        assert '"label": "user"' in path.read_text()


def _per_op(nodes, edges, name: str) -> Graph:
    """The same graph built one recorded mutation at a time."""
    graph = Graph(name=name)
    for node, label, attrs in nodes:
        graph.add_node(node, label, attrs)
    for source, target, label in edges:
        graph.add_edge(source, target, label)
    return graph


def _probes(graph: Graph) -> tuple:
    """Every probe of a structure compiled on *graph*, as one comparable value."""
    view = ColumnarFragment(graph)
    edge_labels = sorted(graph.edge_labels())
    return (
        {label: view.nodes_with_label(label) for label in graph.node_labels()},
        [
            (
                resident_label(view, node),
                view.profile(node),
                view.ball(node, 2),
                resident_sketch(view, node, 2),
                [(view.out_neighbors(node, label), view.in_neighbors(node, label)) for label in edge_labels],
            )
            for node in sorted(graph.nodes(), key=str)
        ],
    )


class TestConstructionIsNotAnUpdate:
    def test_loaded_and_induced_graphs_equal_a_per_op_build(self):
        source = pokec_like(60, 3, seed=2)
        document = graph_to_dict(source)
        nodes = [(node["id"], node["label"], node["attrs"]) for node in document["nodes"]]
        edges = [(edge["source"], edge["target"], edge["label"]) for edge in document["edges"]]
        keep = set(sorted(source.nodes(), key=str)[::2])
        cases = [
            (graph_from_dict(document), _per_op(nodes, edges, source.name)),
            (
                source.induced_subgraph(keep),
                _per_op(
                    [node for node in nodes if node[0] in keep],
                    [edge for edge in edges if edge[0] in keep and edge[1] in keep],
                    "induced",
                ),
            ),
        ]
        for built, reference in cases:
            assert structure_equal(built, reference) and structure_equal(reference, built)
            assert built.version == 0 and not built._delta_log  # nothing was recorded
            assert _probes(built) == _probes(reference)

    def test_malformed_documents_fail_as_a_per_op_build_would(self):
        twice = {"nodes": [{"id": "a", "label": "x"}, {"id": "a", "label": "y"}], "edges": []}
        with pytest.raises(GraphError):
            graph_from_dict(twice)
        dangling = {"nodes": [{"id": "a", "label": "x"}], "edges": [{"source": "a", "target": "b", "label": "e"}]}
        with pytest.raises(NodeNotFoundError):
            graph_from_dict(dangling)
