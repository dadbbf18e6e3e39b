"""GPAR workload generation for the EIP benchmarks (paper Section 6).

The paper evaluates ``Match`` on sets Σ of 8–48 GPARs whose labels are drawn
from the data graph.  :func:`generate_gpars` samples such rules directly from
a graph: it picks a positive centre node for the predicate, walks its
d-neighbourhood, and lifts the visited edges into a pattern — which
guarantees the generated rule has at least one match and uses realistic
label combinations.
"""

from __future__ import annotations

import random
from typing import Hashable

from repro.exceptions import DatasetError
from repro.graph.graph import Graph
from repro.graph.neighborhood import bfs_distances
from repro.graph.statistics import most_frequent_edge_patterns
from repro.pattern.gpar import GPAR
from repro.pattern.pattern import Pattern, PatternEdge
from repro.utils.rng import ensure_rng

NodeId = Hashable


def most_frequent_predicates(graph: Graph, top: int = 20) -> list[Pattern]:
    """The *top* most frequent single-edge predicate patterns of *graph*.

    Each returned pattern is ``x --q--> y`` with the x/y labels of the
    frequent edge pattern; DMine's default seeding uses these (Exp-1).
    """
    patterns: list[Pattern] = []
    for source_label, edge_label, target_label, _count in most_frequent_edge_patterns(graph, top):
        patterns.append(
            Pattern(
                nodes={"x": source_label, "y": target_label},
                edges=[PatternEdge("x", "y", edge_label)],
                x="x",
                y="y",
            )
        )
    return patterns


def _predicate_parts(predicate: Pattern) -> tuple[str, str, str]:
    edges = predicate.edges()
    if len(edges) != 1:
        raise DatasetError("a predicate pattern must have exactly one edge")
    edge = edges[0]
    return predicate.label(predicate.x), edge.label, predicate.label(edge.target)


def generate_gpars(
    graph: Graph,
    predicate: Pattern,
    count: int,
    max_pattern_edges: int = 6,
    d: int = 2,
    seed: int | random.Random | None = 0,
    name_prefix: str = "W",
) -> list[GPAR]:
    """Sample *count* GPARs for *predicate* from the structure of *graph*.

    Parameters
    ----------
    graph:
        The data graph the rules are sampled from.
    predicate:
        Single-edge predicate pattern ``x --q--> y``.
    count:
        Number of rules to produce.
    max_pattern_edges:
        Upper bound on the number of antecedent edges per rule.
    d:
        Maximum radius of the rule pattern at x.
    seed:
        Randomness control.

    Returns
    -------
    list[GPAR]
        ``count`` distinct, valid GPARs, each with at least one match in
        *graph* by construction.  Raises :class:`DatasetError` when the graph
        has no positive centre for the predicate.
    """
    for name, value in (("count", count), ("max_pattern_edges", max_pattern_edges), ("d", d)):
        if value < 1:
            raise DatasetError(f"{name} must be >= 1, got {value}")
    rng = ensure_rng(seed)
    x_label, q_label, y_label = _predicate_parts(predicate)

    positives = [
        node
        for node in sorted(graph.nodes_with_label(x_label), key=str)
        if any(
            graph.node_label(target) == y_label
            for target in graph.out_neighbors(node, q_label)
        )
    ]
    if not positives:
        raise DatasetError(
            f"graph {graph.name!r} has no positive centre for predicate "
            f"{x_label} --{q_label}--> {y_label}"
        )

    rules: list[GPAR] = []
    seen: set = set()
    attempts = 0
    max_attempts = count * 60
    while len(rules) < count and attempts < max_attempts:
        attempts += 1
        rule = _sample_rule(
            graph,
            rng,
            rng.choice(positives),
            x_label,
            q_label,
            y_label,
            max_pattern_edges=max_pattern_edges,
            d=d,
            name=f"{name_prefix}{len(rules) + 1}",
        )
        if rule is None or rule in seen:
            continue
        seen.add(rule)
        rules.append(rule)
    if len(rules) < count:
        raise DatasetError(
            f"could only sample {len(rules)} of {count} distinct GPARs "
            f"after {attempts} attempts; relax max_pattern_edges or d"
        )
    return rules


def _sample_rule(
    graph: Graph,
    rng: random.Random,
    center: NodeId,
    x_label: str,
    q_label: str,
    y_label: str,
    max_pattern_edges: int,
    d: int,
    name: str,
) -> GPAR | None:
    """Lift a random connected subgraph around *center* into a GPAR."""
    distances = bfs_distances(graph, center, radius=d)
    # Data node -> pattern node id, seeded with the designated x.
    node_map: dict[NodeId, str] = {center: "x"}
    pattern_nodes: dict[str, str] = {"x": x_label}
    pattern_edges: list[PatternEdge] = []
    y_assigned: str | None = None

    target_edges = rng.randint(1, max_pattern_edges)
    frontier = [center]
    guard = 0
    while len(pattern_edges) < target_edges and frontier and guard < 200:
        guard += 1
        data_node = rng.choice(frontier)
        # Sorted so the draw depends only on graph *content* and the seed —
        # never on adjacency-set iteration order (hash seed / insertion
        # order), which must not change which Σ a (graph, seed) pair yields
        # (repro.serve regenerates Σ from a serialized graph document).
        incident = sorted(
            list(graph.out_edges(data_node)) + list(graph.in_edges(data_node)),
            key=lambda e: (str(e.source), e.label, str(e.target)),
        )
        if not incident:
            frontier.remove(data_node)
            continue
        edge = rng.choice(incident)
        other = edge.target if edge.source == data_node else edge.source
        if other not in distances:
            continue
        # Never copy the consequent edge into the antecedent.
        if (
            edge.source == center
            and edge.label == q_label
            and graph.node_label(edge.target) == y_label
            and (y_assigned is None or node_map.get(edge.target) == y_assigned)
        ):
            continue
        if other not in node_map:
            pattern_id = f"v{len(node_map)}"
            node_map[other] = pattern_id
            pattern_nodes[pattern_id] = graph.node_label(other)
            frontier.append(other)
        new_edge = PatternEdge(node_map[edge.source], node_map[edge.target], edge.label)
        if new_edge not in pattern_edges and new_edge.source != new_edge.target:
            pattern_edges.append(new_edge)
        if y_assigned is None and graph.node_label(other) == y_label and other != center:
            y_assigned = node_map[other]

    if not pattern_edges:
        return None
    # Ensure a designated y exists; add a fresh, antecedent-disconnected y
    # node only through the consequent is not allowed (PR must be connected),
    # so attach it through an existing q-link of the centre when needed.
    if y_assigned is None:
        y_targets = [
            target
            for target in graph.out_neighbors(center, q_label)
            if graph.node_label(target) == y_label and target not in node_map
        ]
        if not y_targets:
            return None
        chosen = sorted(y_targets, key=str)[0]
        y_assigned = f"v{len(node_map)}"
        node_map[chosen] = y_assigned
        pattern_nodes[y_assigned] = y_label
        # Tie y into the antecedent via a co-location or co-interest edge so
        # the antecedent stays connected (keeps the parallel and sequential
        # evaluations exactly comparable); give up on this sample otherwise.
        tied = False
        for edge in sorted(
            graph.in_edges(chosen), key=lambda e: (str(e.source), e.label, str(e.target))
        ):
            if edge.source in node_map and edge.source != center:
                pattern_edges.append(
                    PatternEdge(node_map[edge.source], y_assigned, edge.label)
                )
                tied = True
                break
        if not tied:
            return None

    antecedent = Pattern(
        nodes=pattern_nodes,
        edges=pattern_edges,
        x="x",
        y=y_assigned,
    )
    if antecedent.has_edge("x", y_assigned, q_label):
        return None
    try:
        rule = GPAR(antecedent, consequent_label=q_label, name=name)
    except Exception:
        return None
    if rule.radius > d:
        return None
    return rule
