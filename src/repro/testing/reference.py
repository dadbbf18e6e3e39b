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

Mining's coordinator and proposer have naive twins here too
(:func:`candidate_extensions` materialises production's keys as rules):
:func:`reference_extension_keys` scans every incident edge of every mapped
node, and :func:`reference_group_automorphic` compares each rule with every
earlier group by an exact isomorphism search (:func:`gpars_automorphic`),
reading no canonical code.  The partitioner's greedy has one as well:
:func:`reference_balance` decodes every centre's ball into a set and
compares sets.  :func:`reference_recheck` is the streaming tick's
coarse recheck rule: every centre within ``d`` hops of a change
(:func:`reference_recheck_pairs` re-verifies Σ there).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Sequence

from repro.graph.graph import Graph
from repro.graph.neighborhood import Neighborhoods, multi_source_ball
from repro.identification.eip import EIPResult, _shared_predicate
from repro.matching.base import Matcher
from repro.matching.vf2 import VF2Matcher
from repro.metrics.confidence import evaluate_rule
from repro.metrics.lcwa import predicate_stats
from repro.mining.expansion import _apply_extension, _ExtensionKey, extension_keys
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
        loops = [edge.label for edge in expanded.out_edges(expanded.x) if edge.target == expanded.x]
        if not all(graph.has_edge(anchor_value, anchor_value, label) for label in loops):
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
            mapping[node] = data_node  # first, so a self-loop is checked below
            if not any(
                edge.target in mapping
                and not graph.has_edge(data_node, mapping[edge.target], edge.label)
                for edge in pattern.out_edges(node)
            ) and not any(
                edge.source in mapping
                and not graph.has_edge(mapping[edge.source], data_node, edge.label)
                for edge in pattern.in_edges(node)
            ):
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


def candidate_extensions(graph: Graph, rule: GPAR, *args, **kwargs) -> list[GPAR]:
    """The new rules, each one antecedent edge larger than *rule*, of the
    keys production's :func:`~repro.mining.expansion.extension_keys` returns
    for the same arguments."""
    return [_apply_extension(rule, key) for key in extension_keys(graph, rule, *args, **kwargs)]


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


def are_isomorphic(first: Pattern, second: Pattern) -> bool:
    """Designated-node-preserving isomorphism between two patterns.

    Both patterns are copy-expanded first.  The mapping must send x to x and
    y to y (when present), preserve node labels, and induce a bijection
    between the edge sets with matching labels.
    """
    a = first.expanded()
    b = second.expanded()
    if a.num_nodes != b.num_nodes or a.num_edges != b.num_edges:
        return False
    if (a.y is None) != (b.y is None):
        return False

    b_nodes_by_label: dict[str, list] = {}
    for node, label in b.node_items():
        b_nodes_by_label.setdefault(label, []).append(node)
    a_nodes = sorted(a.nodes(), key=lambda n: (n != a.x, n != a.y, str(n)))
    b_edge_set = {(e.source, e.target, e.label) for e in b.edges()}
    a_edges = a.edges()

    def consistent(mapping: dict) -> bool:
        for edge in a_edges:
            if edge.source in mapping and edge.target in mapping:
                if (mapping[edge.source], mapping[edge.target], edge.label) not in b_edge_set:
                    return False
        return True

    def backtrack(index: int, mapping: dict, used: set) -> bool:
        if index == len(a_nodes):
            return True
        node = a_nodes[index]
        if node == a.x:
            candidates = [b.x]
        elif a.y is not None and node == a.y:
            candidates = [b.y]
        else:
            candidates = b_nodes_by_label.get(a.label(node), [])
        for candidate in candidates:
            if candidate in used:
                continue
            if b.label(candidate) != a.label(node):
                continue
            mapping[node] = candidate
            used.add(candidate)
            if consistent(mapping) and backtrack(index + 1, mapping, used):
                return True
            used.discard(candidate)
            del mapping[node]
        return False

    return backtrack(0, {}, set())


def gpars_automorphic(first: GPAR, second: GPAR) -> bool:
    """Whether two GPARs have the same consequent and isomorphic PR patterns."""
    if first.consequent_label != second.consequent_label:
        return False
    return are_isomorphic(first.pr_pattern(), second.pr_pattern())


def _isomorphism_invariants(rule: GPAR) -> tuple:
    """Consequent label, node-label multiset and labelled-edge-triple multiset
    of the expanded PR: equal for automorphic rules, and read off no code."""
    pattern = rule.pr_pattern().expanded()
    return (
        rule.consequent_label,
        sorted(label for _node, label in pattern.node_items()),
        sorted((pattern.label(e.source), e.label, pattern.label(e.target)) for e in pattern.edges()),
    )


def reference_group_automorphic(rules: Sequence[GPAR]) -> list[list[GPAR]]:
    """Partition *rules* into groups of pairwise-automorphic GPARs.

    Each rule is compared with every earlier group's first member by the
    exact isomorphism search, after a rejection on invariants that every
    isomorphism preserves; no canonical code is read.
    """
    groups: list[list[GPAR]] = []
    invariants: list[tuple] = []
    for rule in rules:
        invariant = _isomorphism_invariants(rule)
        for index, group in enumerate(groups):
            if invariants[index] == invariant and gpars_automorphic(rule, group[0]):
                group.append(rule)
                break
        else:
            groups.append([rule])
            invariants.append(invariant)
    return groups


def reference_recheck(identifier, delta) -> set:
    """The centres within ``d`` hops of a node *delta* touched, on the
    post-update graph: by the ball lemma of ``docs/streaming.md`` no other
    centre's verdict can have changed, so a tick's recheck pairs never
    reach beyond them."""
    region = multi_source_ball(identifier.graph, delta.touched, identifier.max_radius)
    return region & identifier.graph.nodes_with_label(identifier.x_label)


def reference_recheck_pairs(identifier, delta, _region) -> tuple:
    """The coarse rule as a drop-in for ``StreamingIdentifier._recheck_pairs``:
    every rule's antecedent and PR at every centre of
    :func:`reference_recheck`, for tests about how a tick verifies a pair
    rather than which pairs it verifies."""
    centres = tuple(reference_recheck(identifier, delta))
    return (dict.fromkeys(range(len(identifier.rules)), centres),) * 2 + ((),)
