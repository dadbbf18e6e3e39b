"""Serialisation of graphs to/from JSON documents."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.graph.graph import Graph


def graph_to_dict(graph: Graph) -> dict[str, Any]:
    """Convert *graph* to a JSON-serialisable dict.

    Nodes and edges are emitted in sorted order so equal graphs produce
    identical documents no matter how (or in which process) they were
    built — edge iteration follows adjacency-*set* order, which varies
    with the hash seed, and the serve/wire layer relies on document
    identity (same graph document + seed ⇒ same generated Σ).
    """
    return {
        "name": graph.name,
        "nodes": [
            {"id": node, "label": label, "attrs": graph.node_attrs(node) or None}
            for node, label in sorted(graph.node_items(), key=lambda item: str(item[0]))
        ],
        "edges": [
            {"source": edge.source, "target": edge.target, "label": edge.label}
            for edge in sorted(
                graph.edges(), key=lambda e: (str(e.source), e.label, str(e.target))
            )
        ],
    }


def graph_from_dict(document: dict[str, Any]) -> Graph:
    """Reconstruct a graph from :func:`graph_to_dict` output."""
    graph = Graph.from_parts(
        ((node["id"], node["label"], node.get("attrs") or None) for node in document["nodes"]),
        ((edge["source"], edge["target"], edge["label"]) for edge in document["edges"]),
        name=document.get("name", "graph"),
    )
    graph.label_table  # warm before the first compile
    return graph


def save_graph_json(graph: Graph, path: str | Path) -> None:
    """Write *graph* to *path* as a JSON document."""
    payload = graph_to_dict(graph)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=str)


def load_graph_json(path: str | Path) -> Graph:
    """Load a graph previously written by :func:`save_graph_json`."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    return graph_from_dict(document)
