"""Multi-pattern matching for a set Σ of GPARs.

When EIP is posed with many rules over the same predicate, much of the
per-candidate work is shared, mirroring the paper's use of common
sub-pattern extraction [32] in ``Match``.  Each pattern's edges are ordered
into a deterministic connectivity-respecting chain from ``x``, and the match
set of every chain prefix shared by two or more patterns is computed once
and reused as the candidate pool of everything below it in the trie; the
anchored matcher's ``match_set`` then filters the surviving pool by the
labelled adjacency profile the full pattern requires of ``x`` (a necessary
condition) before any isomorphism search runs.  Because a full match
restricted to a prefix's nodes is a prefix match, pool restriction by prefix
match sets is lossless — the per-pattern results are identical to
rule-at-a-time evaluation.  EIP
rule sets share their consequent (and, having been grown levelwise from
common seeds, usually long antecedent prefixes), which is exactly the shape
the trie rewards.

The matcher keeps no table of its own: a pattern's prefix chain is a pure
function of the pattern and is kept on it (``Pattern.derive``), together
with the hashes, search plans and required sketches of the prefixes — so a
Σ verified tick after tick is compiled once, and nothing is keyed by
structure, bounded or cleared.
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable, Iterable, Mapping, Sequence

from repro.graph.graph import Graph
from repro.matching.base import Matcher, MatchStatistics
from repro.pattern.gpar import GPAR
from repro.pattern.pattern import Pattern, PatternEdge

NodeId = Hashable


def prefix_chain(pattern: Pattern) -> tuple[Pattern, ...]:
    """Cumulative connected-from-x sub-patterns of *pattern*.

    Edges are consumed smallest-``sort_key``-first among those incident
    to the already-covered node set, which makes the chain deterministic
    and maximises sharing between patterns grown from common prefixes.
    The chain stops at the connected-from-x frontier: components only
    reachable through uncovered nodes (a "free" y) are left to the final
    full-pattern match, where the matcher's label-index fallback already
    handles them.  A chain depends only on the (immutable) pattern, so
    it is built once and lives on its pattern
    (:meth:`~repro.pattern.pattern.Pattern.derive`) — and with it the
    prefixes' own hashes, search plans and required sketches.
    """
    return pattern.derive("prefix_chain", _build_prefix_chain)


def _build_prefix_chain(pattern: Pattern) -> tuple[Pattern, ...]:
    expanded = pattern.expanded()
    covered = {expanded.x}
    remaining = set(expanded.edges())
    chosen: list[PatternEdge] = []
    chain: list[Pattern] = []
    while remaining:
        incident = [
            edge
            for edge in remaining
            if edge.source in covered or edge.target in covered
        ]
        if not incident:
            break
        edge = min(incident, key=PatternEdge.sort_key)
        remaining.remove(edge)
        chosen.append(edge)
        covered.add(edge.source)
        covered.add(edge.target)
        chain.append(
            Pattern(
                nodes={node: expanded.label(node) for node in covered},
                edges=list(chosen),
                x=expanded.x,
                y=expanded.y if expanded.y in covered else None,
            )
        )
    return tuple(chain)


def trie_patterns(rules: Iterable[GPAR], census: Iterable[tuple] = ()) -> set[Pattern]:
    """Every pattern verifying *rules* can hand the anchored matcher: both
    patterns of each rule, the x-parts *census* substitutes, and their chains."""
    patterns = [pattern for rule in rules for pattern in (rule.antecedent, rule.pr_pattern())]
    patterns += [x_part for _pattern, x_part in census]
    return {member for pattern in patterns for member in (pattern.expanded(), *prefix_chain(pattern))}


class MultiPatternMatcher:
    """Evaluate ``PR(x, G)`` for every rule of a workload while sharing work.

    Parameters
    ----------
    matcher:
        The anchored matcher used for the exact checks (typically a
        :class:`repro.matching.GuidedMatcher`, possibly wrapped in a
        :class:`repro.matching.LocalityMatcher`).

    Notes
    -----
    The trie only narrows pools; each pool is profile-filtered once, by
    the anchored matcher's ``match_set`` (against the resident
    :class:`repro.graph.columnar.ColumnarFragment` when the graph has one,
    per candidate otherwise), where the prunes are counted.
    """

    def __init__(self, matcher: Matcher) -> None:
        self.matcher = matcher
        self.statistics = MatchStatistics()

    def shared_match_sets(
        self,
        graph: Graph,
        patterns: Mapping[Hashable, Pattern],
        pools: Mapping[Hashable, Iterable[NodeId] | None] | None = None,
    ) -> dict[Hashable, set[NodeId]]:
        """``{key: Q(x, G) ∩ pools[key]}`` for many patterns, one pool a key.

        A pool of ``None`` (or no *pools* at all) probes every node carrying
        x's label.  Every chain prefix occurring in at least two patterns'
        chains is matched once, over the union of the pools of the keys
        below it, and its match set narrows the pool of everything below it
        — a full match restricted to a prefix's nodes is a prefix match, so
        nothing is lost; unshared suffixes jump straight to the full
        pattern.  Results equal per-pattern ``matcher.match_set`` calls.
        """
        pools = dict.fromkeys(patterns) if pools is None else pools
        chains = {key: prefix_chain(pattern) for key, pattern in patterns.items()}
        shared: Counter = Counter()
        below: dict[Pattern, dict] = {}  # prefix -> the distinct pools under it
        for key, chain in chains.items():
            for prefix in chain[:-1]:
                shared[prefix] += 1
                below.setdefault(prefix, {})[id(pools[key])] = pools[key]
        # prefix -> (its match set, the pool it serves)
        pool_cache: dict[Pattern, tuple] = {}
        results: dict[Hashable, set[NodeId]] = {}
        for key, pattern in patterns.items():
            narrowed = over = None
            for prefix in chains[key][:-1]:
                if shared[prefix] < 2:
                    continue
                cached = pool_cache.get(prefix)
                if cached is None:
                    members = list(below[prefix].values())
                    # The pool this prefix serves: the one its keys share, or their union.
                    base = members[0] if len(members) == 1 else None if None in members else set().union(*members)
                    # narrowed ⊆ over, so a pool the previous prefix served needs no intersection.
                    if narrowed is not None:
                        candidates = narrowed if base is None or base is over else narrowed & base
                    else:
                        candidates = base
                    found = frozenset(self.matcher.match_set(graph, prefix, candidates=candidates))
                    cached = pool_cache[prefix] = (found, base)
                narrowed, over = cached
                self.statistics.prefix_pool_hits += 1
            pool = pools[key]
            if narrowed is not None:
                pool = narrowed if pool is None or pool is over else narrowed.intersection(pool)
            results[key] = self.matcher.match_set(graph, pattern, candidates=pool)
        self.statistics.merge(self.matcher.statistics)
        self.matcher.reset_statistics()
        return results

    def match_sets(
        self,
        graph: Graph,
        rules: Sequence[GPAR],
        pools: Mapping[GPAR, Iterable[NodeId] | None] | None = None,
    ) -> dict[GPAR, set[NodeId]]:
        """Return ``{rule: PR(x, G) ∩ pools[rule]}`` for every rule in *rules*.

        *pools* restricts the data nodes probed per rule (e.g. the centres
        of a fragment whose verdict may have changed); by default all nodes
        carrying the rule's x-label are probed.
        """
        return self.shared_match_sets(graph, {rule: rule.pr_pattern() for rule in rules}, pools)

    def antecedent_match_sets(
        self,
        graph: Graph,
        rules: Sequence[GPAR],
        pools: Mapping[GPAR, Iterable[NodeId] | None] | None = None,
    ) -> dict[GPAR, set[NodeId]]:
        """Return ``{rule: Q(x, G) ∩ pools[rule]}`` (antecedent-only match sets)."""
        return self.shared_match_sets(graph, {rule: rule.antecedent for rule in rules}, pools)
