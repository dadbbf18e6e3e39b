"""The reference oracle: one deliberately naive matcher, nothing resident.

Every production matcher answers from whatever is resident for the graph it
is handed (index, columnar view, sketches, match store, private caches).
:class:`ReferenceMatcher` is the fixed point they are all held to: plain
backtracking over ``Graph.out_neighbors`` / ``in_neighbors`` /
``nodes_with_label``, no filter beyond labels and edges, no state between
calls.  It is slow on purpose and lives here, not in a production config —
the equivalence suites (``tests/test_index_equivalence.py``,
``test_columnar_equivalence.py``, ``test_incremental_equivalence.py``,
``test_stream_equivalence.py``) and the differential oracle compare the
production path against it.

Mining's coordinator and proposer have naive twins here too:
:func:`reference_extension_keys` scans every incident edge of every mapped
node, and :func:`reference_group_automorphic` compares each rule with every
earlier group through the bisimulation filter and the exact check.  The
partitioner's greedy has one as well: :func:`reference_balance` decodes every
centre's ball into a set and compares sets.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Sequence

from repro.graph.graph import Graph
from repro.graph.neighborhood import Neighborhoods
from repro.identification.eip import EIPResult, _shared_predicate
from repro.matching.base import Matcher
from repro.matching.vf2 import VF2Matcher
from repro.metrics.confidence import evaluate_rule
from repro.metrics.lcwa import predicate_stats
from repro.mining.expansion import _ExtensionKey
from repro.pattern.automorphism import gpars_automorphic
from repro.pattern.bisimulation import are_bisimilar
from repro.pattern.canonical import canonical_code
from repro.pattern.gpar import GPAR
from repro.pattern.pattern import Pattern, PatternEdge

NodeId = Hashable


class ReferenceMatcher:
    """Non-induced subgraph isomorphism by plain backtracking.

    Implements the query surface of :class:`repro.matching.base.Matcher`
    (anchored, match-set and full-enumeration queries) so it can stand in
    wherever a matcher is accepted, e.g. ``evaluate_rule(..., matcher=...)``.
    """

    def iter_matches_at(
        self, graph: Graph, pattern: Pattern, anchor_value: NodeId
    ) -> Iterator[dict]:
        """Every injective, label- and edge-preserving mapping with x ↦ anchor."""
        expanded = pattern.expanded()
        if not graph.has_node(anchor_value):
            return
        if graph.node_label(anchor_value) != expanded.label(expanded.x):
            return
        order = [expanded.x] + sorted(
            (node for node in expanded.nodes() if node != expanded.x), key=str
        )
        yield from self._extend(graph, expanded, order, {expanded.x: anchor_value})

    @staticmethod
    def _neighbor_pool(graph: Graph, pattern: Pattern, node, mapping: dict):
        """Data neighbours along one pattern edge into the mapped part, if any."""
        for edge in pattern.out_edges(node):
            if edge.target in mapping:
                return graph.in_neighbors(mapping[edge.target], edge.label)
        for edge in pattern.in_edges(node):
            if edge.source in mapping:
                return graph.out_neighbors(mapping[edge.source], edge.label)
        return None

    def _extend(self, graph: Graph, pattern: Pattern, order: list, mapping: dict):
        if len(mapping) == len(order):
            yield dict(mapping)
            return
        # Prefer a pattern node tied to the mapped part: its candidates are
        # one neighbour set instead of a whole label bucket.
        unmapped = [node for node in order if node not in mapping]
        pools = {node: self._neighbor_pool(graph, pattern, node, mapping) for node in unmapped}
        node = next((n for n in unmapped if pools[n] is not None), unmapped[0])
        pool = pools[node]
        if pool is None:  # free node of a disconnected pattern
            pool = graph.nodes_with_label(pattern.label(node))
        used = set(mapping.values())
        for data_node in sorted(pool, key=str):
            if data_node in used or graph.node_label(data_node) != pattern.label(node):
                continue
            if any(
                edge.target in mapping
                and not graph.has_edge(data_node, mapping[edge.target], edge.label)
                for edge in pattern.out_edges(node)
            ) or any(
                edge.source in mapping
                and not graph.has_edge(mapping[edge.source], data_node, edge.label)
                for edge in pattern.in_edges(node)
            ):
                continue
            mapping[node] = data_node
            yield from self._extend(graph, pattern, order, mapping)
            del mapping[node]

    def find_match_at(self, graph: Graph, pattern: Pattern, anchor_value: NodeId) -> dict | None:
        """One mapping with ``pattern.x -> anchor_value``, or ``None``."""
        return next(self.iter_matches_at(graph, pattern, anchor_value), None)

    def exists_match_at(self, graph: Graph, pattern: Pattern, anchor_value: NodeId) -> bool:
        """Whether some match maps the designated node x to *anchor_value*."""
        return self.find_match_at(graph, pattern, anchor_value) is not None

    def match_set(
        self,
        graph: Graph,
        pattern: Pattern,
        candidates: Iterable[NodeId] | None = None,
    ) -> set[NodeId]:
        """``Q(x, G)`` restricted to *candidates* (default: x's label bucket)."""
        if candidates is None:
            candidates = graph.nodes_with_label(pattern.label(pattern.x))
        return {node for node in candidates if self.exists_match_at(graph, pattern, node)}

    def find_all(self, graph: Graph, pattern: Pattern, limit: int | None = None) -> list[dict]:
        """Every mapping of *pattern* into *graph* (at most *limit*)."""
        results: list[dict] = []
        for anchor in sorted(graph.nodes_with_label(pattern.label(pattern.x)), key=str):
            for mapping in self.iter_matches_at(graph, pattern, anchor):
                results.append(mapping)
                if limit is not None and len(results) >= limit:
                    return results
        return results


def identify_sequential(
    graph: Graph,
    rules: Sequence[GPAR],
    eta: float = 1.0,
    matcher: Matcher | None = None,
) -> EIPResult:
    """``Σ(x, G, η)`` by a plain sequential evaluation (the EIP test oracle).

    Evaluates each rule globally with :func:`repro.metrics.evaluate_rule`
    and applies the confidence bound — no partitioning, no parallel runtime.
    The parallel algorithms must agree with this on every input.  *matcher*
    defaults to :class:`repro.matching.VF2Matcher`.
    """
    representative = _shared_predicate(rules)
    engine = matcher if matcher is not None else VF2Matcher()
    stats = predicate_stats(graph, representative.q_pattern())

    result = EIPResult()
    for rule in rules:
        evaluation = evaluate_rule(graph, rule, matcher=engine, stats=stats)
        result.rule_confidences[rule] = evaluation.confidence
        result.rule_matches[rule] = evaluation.rule_matches
        result.candidates_examined += evaluation.supp_antecedent
        if evaluation.confidence >= eta and evaluation.supp_r > 0:
            result.accepted_rules.append(rule)
            result.identified.update(evaluation.rule_matches)
    return result


def reference_identify(graph: Graph, rules: Sequence[GPAR], eta: float) -> EIPResult:
    """``Σ(x, G, η)`` straight from the definition, on the whole graph.

    No partitioning, no workers, no sharing across Σ: the sequential
    evaluation (:func:`identify_sequential`, one
    :func:`repro.metrics.evaluate_rule` per rule) with a
    :class:`ReferenceMatcher` doing all the matching.
    """
    return identify_sequential(graph, rules, eta=eta, matcher=ReferenceMatcher())


def reference_extension_keys(
    graph: Graph,
    antecedent: Pattern,
    mapping: dict,
    consequent_label: str,
) -> set[_ExtensionKey]:
    """All single-edge extensions suggested by one antecedent match.

    Every in- and out-edge of every mapped data node is read: an edge to
    another mapped node is a closing key (unless the pattern has it, it is a
    self-edge or it is the consequent edge), any other a growing key.
    """
    keys: set[_ExtensionKey] = set()
    image = {data_node: pattern_node for pattern_node, data_node in mapping.items()}
    existing_edges = set(antecedent.edges())
    for pattern_node, data_node in mapping.items():
        for edge in graph.out_edges(data_node):
            other_pattern = image.get(edge.target)
            if other_pattern is not None:
                candidate = PatternEdge(pattern_node, other_pattern, edge.label)
                if candidate in existing_edges or other_pattern == pattern_node:
                    continue
                # Never re-introduce the consequent edge q(x, y).
                if (
                    pattern_node == antecedent.x
                    and other_pattern == antecedent.y
                    and edge.label == consequent_label
                ):
                    continue
                keys.add(
                    _ExtensionKey(
                        kind="closing",
                        pattern_source=pattern_node,
                        pattern_target=other_pattern,
                        edge_label=edge.label,
                    )
                )
            else:
                keys.add(
                    _ExtensionKey(
                        kind="growing",
                        pattern_source=pattern_node,
                        pattern_target=None,
                        edge_label=edge.label,
                        other_label=graph.node_label(edge.target),
                        outgoing=True,
                    )
                )
        for edge in graph.in_edges(data_node):
            other_pattern = image.get(edge.source)
            if other_pattern is not None:
                candidate = PatternEdge(other_pattern, pattern_node, edge.label)
                if candidate in existing_edges or other_pattern == pattern_node:
                    continue
                if (
                    other_pattern == antecedent.x
                    and pattern_node == antecedent.y
                    and edge.label == consequent_label
                ):
                    continue
                keys.add(
                    _ExtensionKey(
                        kind="closing",
                        pattern_source=other_pattern,
                        pattern_target=pattern_node,
                        edge_label=edge.label,
                    )
                )
            else:
                keys.add(
                    _ExtensionKey(
                        kind="growing",
                        pattern_source=pattern_node,
                        pattern_target=None,
                        edge_label=edge.label,
                        other_label=graph.node_label(edge.source),
                        outgoing=False,
                    )
                )
    return keys


def reference_balance(
    hoods: Neighborhoods, center_list: Sequence[NodeId], d: int, num_fragments: int
) -> tuple[list[set], list[set]]:
    """The partitioner's greedy on decoded node sets: every centre's ball is
    read as a set and compared with every fragment's set by difference."""
    balls = hoods.balls(center_list, d)
    fragment_nodes: list[set] = [set() for _ in range(num_fragments)]
    fragment_centers: list[set] = [set() for _ in range(num_fragments)]
    fragment_load: list[int] = [0] * num_fragments
    for center in center_list:
        center_ball = hoods.nodes(balls[center])
        best_index = 0
        best_cost: tuple[int, int] | None = None
        for index in range(num_fragments):
            new_nodes = len(center_ball - fragment_nodes[index])
            cost = (fragment_load[index] + len(center_ball), len(fragment_nodes[index]) + new_nodes)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_index = index
        fragment_nodes[best_index].update(center_ball)
        fragment_centers[best_index].add(center)
        fragment_load[best_index] += len(center_ball)
    return fragment_nodes, fragment_centers


def reference_group_automorphic(
    rules: Sequence[GPAR],
    use_bisimulation_filter: bool = True,
) -> list[list[GPAR]]:
    """Partition *rules* into groups of pairwise-automorphic GPARs.

    Each rule is compared with every earlier group: same consequent, same
    canonical code, bisimilar (Lemma 4), then the exact isomorphism check.
    """
    groups: list[list[GPAR]] = []
    group_codes: list[str] = []
    for rule in rules:
        code = canonical_code(rule.pr_pattern())
        placed = False
        for index, group in enumerate(groups):
            representative = group[0]
            if rule.consequent_label != representative.consequent_label:
                continue
            if group_codes[index] != code:
                continue
            if use_bisimulation_filter and not are_bisimilar(
                rule.pr_pattern(), representative.pr_pattern()
            ):
                continue
            if gpars_automorphic(rule, representative):
                group.append(rule)
                placed = True
                break
        if not placed:
            groups.append([rule])
            group_codes.append(code)
    return groups
