"""Global census semantics for disconnected ("free") pattern parts.

DMine grows antecedents edge-by-edge from the consequent's endpoints, so a
mined antecedent routinely contains nodes with no path to ``x`` — most often
a lone isolated ``y``, occasionally a whole component carrying edges.  A
worker that resolves those free parts against its *fragment* makes the
verdict depend on the partitioning; the correct reading (the one whole-graph
matching gives) is global.  This module centralises that global half so the
batch solvers (:mod:`repro.identification.matchc`) and the streaming
identifier (:mod:`repro.stream.identifier`) share one implementation and
therefore agree on every Σ by construction:

* :func:`split_pattern_components` separates a pattern into the connected
  x-component (verified ball-locally by workers, via
  :class:`CensusMatcher` substitution) and its free components;
* :func:`plan_census` derives, per disconnected rule, either a **label
  census** (every free node isolated — feasibility is a per-label counting
  condition, exact for injective label-equality matching) or a **component
  census** (some free component carries edges — the coordinator enumerates
  each component shape's embeddings on the authoritative graph and decides
  per-centre, with a disjoint-packing shortcut that usually avoids any
  per-centre probe);
* :func:`apply_census` rewrites the workers' fragment reports from x-part
  verdicts to whole-graph verdicts.

Exactness of the component route: a centre ``c`` whose x-part matches has a
full match iff an injective completion over the free components exists.  If
every shape ``C_i`` has a pairwise-disjoint embedding family of size at
least ``|P| - |C_i| + 1`` (``P`` the whole expanded pattern), a completion
always exists — each node blocked by the x-part image or by previously
placed components kills at most one member of a disjoint family, and at most
``|P| - |C_i|`` nodes are blocked.  When the shortcut cannot certify that,
an anchored whole-graph probe of the *full* pattern decides the centre
exactly; when some shape has no embedding at all, the rule matches nowhere.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Hashable, Iterable, Mapping, Sequence

from repro.exceptions import PatternError
from repro.graph.graph import Graph
from repro.graph.neighborhood import eccentricity, multi_source_ball
from repro.matching.base import MatchStatistics
from repro.matching.vf2 import VF2Matcher
from repro.pattern.gpar import GPAR
from repro.pattern.pattern import Pattern
from repro.pattern.radius import pattern_radius

__all__ = [
    "CensusMatcher",
    "CensusPlan",
    "CensusStatistics",
    "RuleCensus",
    "apply_census",
    "census_feasible",
    "component_census",
    "plan_census",
    "split_pattern_components",
]

NodeId = Hashable

#: Per-shape embedding enumeration cap.  The cap never affects correctness:
#: a disjoint family found inside the truncated census is still a real
#: disjoint family (sufficiency holds), and emptiness is decided before the
#: cap can bite; a truncated census that fails to pack merely falls back to
#: exact per-centre probes.
CENSUS_ENUMERATION_LIMIT = 4096


class CensusStatistics(MatchStatistics):
    """The coordinator's census searches, collected as ``repro_census_*``: kept
    out of ``repro_match_*``, whose verdict counts are the workers'."""

    _metric_kind = "census"


def split_pattern_components(pattern: Pattern):
    """Split *pattern* into its x-component and free-component shapes.

    Returns ``(x_part, components)`` where ``x_part`` is the connected
    component of ``x`` (with ``y`` kept only if it lies inside) and
    ``components`` the remaining connected components, each as a standalone
    pattern anchored at its smallest node (by string order — the anchor
    choice is arbitrary for shape matching, fixed for determinism) and
    ordered by that anchor.  Returns ``None`` when the pattern is connected.
    """
    expanded = pattern.expanded()
    component = multi_source_ball(expanded, (expanded.x,), None)
    free = set(expanded.nodes()) - component
    if not free:
        return None
    x_part = Pattern(
        nodes={node: expanded.label(node) for node in component},
        edges=[edge for edge in expanded.edges() if edge.source in component],
        x=expanded.x,
        y=expanded.y if expanded.y in component else None,
    )
    shapes: list[Pattern] = []
    remaining = set(free)
    while remaining:
        members = multi_source_ball(expanded, (min(remaining, key=str),), None)
        remaining -= members
        shapes.append(
            Pattern(
                nodes={node: expanded.label(node) for node in members},
                edges=[edge for edge in expanded.edges() if edge.source in members],
                x=min(members, key=str),
            )
        )
    return x_part, tuple(shapes)


def census_feasible(requirements, label_counts: Mapping) -> bool:
    """Whether the global label census covers the free-node requirements."""
    return all(label_counts.get(label, 0) >= needed for label, needed in requirements)


class CensusMatcher:
    """Substitute census-split patterns' x-components before matching.

    Workers never see the whole graph, so a free node matched against a
    *fragment's* label index would make the verdict partition-dependent.
    This wrapper reroutes every probe of a census-split pattern to its
    connected x-component (ball-local, hence exact on the fragment); the
    coordinator applies the global feasibility half at assembly time.
    Everything else — connected patterns, the predicate — passes through,
    including :meth:`match_set` so the prefix-trie path of
    :class:`repro.matching.MultiPatternMatcher` shares work under census
    rules too.
    """

    __slots__ = ("_inner", "_substitutions")

    def __init__(self, inner, substitutions: Mapping[Pattern, Pattern]) -> None:
        self._inner = inner
        self._substitutions = dict(substitutions)

    def exists_match_at(self, graph: Graph, pattern: Pattern, anchor_value) -> bool:
        resolved = self._substitutions.get(pattern, pattern)
        return self._inner.exists_match_at(graph, resolved, anchor_value)

    def find_match_at(self, graph: Graph, pattern: Pattern, anchor_value):
        resolved = self._substitutions.get(pattern, pattern)
        return self._inner.find_match_at(graph, resolved, anchor_value)

    def match_set(self, graph: Graph, pattern: Pattern, candidates=None):
        resolved = self._substitutions.get(pattern, pattern)
        return self._inner.match_set(graph, resolved, candidates=candidates)

    def find_all(self, graph: Graph, pattern: Pattern, limit: int | None = None):
        resolved = self._substitutions.get(pattern, pattern)
        return self._inner.find_all(graph, resolved, limit=limit)

    def iter_matches_at(self, graph: Graph, pattern: Pattern, anchor_value):
        resolved = self._substitutions.get(pattern, pattern)
        return self._inner.iter_matches_at(graph, resolved, anchor_value)

    def __getattr__(self, name):
        return getattr(self._inner, name)


# ----------------------------------------------------------------------
# per-Σ census plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RuleCensus:
    """Census plan of one rule with a disconnected antecedent (or PR).

    ``requirements``/``pr_requirements`` carry the label census when every
    free component of the respective pattern is isolated; otherwise the
    pattern takes the component route and ``components``/``pr_components``
    hold the free shapes.  ``pr_part`` is ``None`` when PR is connected
    (the usual free-``y`` case — the consequent edge reattaches y) and the
    workers verify the full PR ball-locally.  ``depth`` replaces
    ``rule.verification_radius``, which needs a connected PR: the
    x-reachable depths of both x-components bound the ball that workers
    need.  ``size``/``pr_size`` are the expanded node counts used by the
    disjoint-packing shortcut.
    """

    rule: GPAR
    part: Pattern
    requirements: tuple = ()
    components: tuple = ()
    pr_part: Pattern | None = None
    pr_requirements: tuple = ()
    pr_components: tuple = ()
    depth: int = 0
    size: int = 0
    pr_size: int = 0


@dataclass(frozen=True)
class CensusPlan:
    """Census plans for the disconnected rules of one Σ (empty when none)."""

    entries: tuple[RuleCensus, ...] = ()

    @property
    def substitutions(self) -> tuple:
        """``((pattern, x_part), ...)`` pairs for :class:`CensusMatcher`."""
        pairs = []
        for entry in self.entries:
            pairs.append((entry.rule.antecedent, entry.part))
            if entry.pr_part is not None:
                pairs.append((entry.rule.pr_pattern(), entry.pr_part))
        return tuple(pairs)

    @property
    def rules(self) -> frozenset:
        return frozenset(entry.rule for entry in self.entries)


def _route(pattern: Pattern):
    """(x_part, label requirements, component shapes) of a disconnected pattern."""
    x_part, shapes = split_pattern_components(pattern)
    if any(tuple(shape.edges()) for shape in shapes):
        return x_part, (), shapes
    expanded = pattern.expanded()
    free = set(expanded.nodes()) - multi_source_ball(expanded, (expanded.x,), None)
    totals = Counter(expanded.label(node) for node in expanded.nodes())
    requirements = tuple(
        sorted((label, totals[label]) for label in {expanded.label(node) for node in free})
    )
    return x_part, requirements, ()


def plan_census(rules: Sequence[GPAR]) -> CensusPlan:
    """Derive the census plan of Σ: one :class:`RuleCensus` per disconnected rule."""
    entries: list[RuleCensus] = []
    for rule in rules:
        try:
            pattern_radius(rule.antecedent, rule.antecedent.x)
            continue
        except PatternError:
            pass
        part, requirements, components = _route(rule.antecedent)
        pr_pattern = rule.pr_pattern()
        pr_split = split_pattern_components(pr_pattern)
        if pr_split is None:
            pr_part, pr_requirements, pr_components = None, (), ()
            pr_depth = pattern_radius(pr_pattern, rule.x)
            pr_size = 0
        else:
            pr_part, pr_requirements, pr_components = _route(pr_pattern)
            pr_depth = eccentricity(pr_part.to_graph(), rule.x)
            pr_size = len(tuple(pr_pattern.expanded().nodes()))
        entries.append(
            RuleCensus(
                rule=rule,
                part=part,
                requirements=requirements,
                components=components,
                pr_part=pr_part,
                pr_requirements=pr_requirements,
                pr_components=pr_components,
                depth=max(pr_depth, eccentricity(part.to_graph(), rule.x)),
                size=len(tuple(rule.antecedent.expanded().nodes())),
                pr_size=pr_size,
            )
        )
    return CensusPlan(tuple(entries))


def max_verification_radius(rules: Sequence[GPAR], plan: CensusPlan) -> int:
    """Largest ball radius any rule of Σ needs, census plans included."""
    census_rules = plan.rules
    radii = [rule.verification_radius for rule in rules if rule not in census_rules]
    radii.extend(entry.depth for entry in plan.entries)
    return max(radii)


# ----------------------------------------------------------------------
# the coordinator-held component census
# ----------------------------------------------------------------------
def component_census(
    graph: Graph, shape: Pattern, matcher, limit: int | None = CENSUS_ENUMERATION_LIMIT
) -> frozenset:
    """Embedding node-sets of *shape* on the (whole, authoritative) graph.

    Single-node shapes are answered from the label bucket; shapes with edges
    enumerate anchored matches at every anchor-label candidate.  Distinct
    embeddings with equal node sets (automorphic images) collapse — node
    sets are all the packing shortcut and emptiness test consume.
    """
    expanded = shape.expanded()
    nodes = tuple(expanded.nodes())
    if len(nodes) == 1 and not tuple(expanded.edges()):
        label = expanded.label(nodes[0])
        return frozenset(frozenset((node,)) for node in graph.nodes_with_label(label))
    mappings = matcher.find_all(graph, expanded, limit=limit)
    return frozenset(frozenset(mapping.values()) for mapping in mappings)


def _packs(census: frozenset, threshold: int) -> bool:
    """Whether *census* contains a pairwise-disjoint family of *threshold* sets."""
    if threshold <= 0:
        return True
    chosen: set = set()
    found = 0
    for members in sorted(census, key=lambda s: sorted(map(str, s))):
        if members & chosen:
            continue
        chosen |= members
        found += 1
        if found >= threshold:
            return True
    return False


def _component_failures(
    graph: Graph,
    pattern: Pattern,
    shapes: tuple,
    censuses: Mapping[Pattern, frozenset],
    size: int,
    centers: Iterable[NodeId],
    matcher,
):
    """Centres of *centers* (x-part matches) lacking a full *pattern* match.

    ``None`` means *every* centre fails (some shape has no embedding at
    all); an empty set means every centre passes.
    """
    if any(not censuses[shape] for shape in shapes):
        return None
    if all(
        _packs(censuses[shape], size - len(tuple(shape.nodes())) + 1) for shape in shapes
    ):
        return set()
    return {
        center
        for center in centers
        if not matcher.exists_match_at(graph, pattern, center)
    }


def apply_census(graph: Graph, rules: Sequence[GPAR], reports, plan: CensusPlan, matcher=None):
    """Rewrite verdict *reports* from x-part verdicts to whole-graph verdicts.

    Label-census rules whose free labels the current counts cannot cover get
    their antecedent set (and, for an uncoverable PR, their match set)
    emptied; component-census rules get per-centre verdicts decided
    against the authoritative graph.  Reports are copied, never mutated —
    the streaming identifier keeps the originals as its maintained x-part
    state, under which the census may become satisfiable again later.
    """
    if not plan.entries:
        return list(reports)
    counts = graph.node_label_counts()
    infeasible = [
        entry.rule
        for entry in plan.entries
        if entry.requirements and not census_feasible(entry.requirements, counts)
    ]
    pr_infeasible = [
        entry.rule
        for entry in plan.entries
        if entry.pr_requirements and not census_feasible(entry.pr_requirements, counts)
    ]

    component_entries = [
        entry for entry in plan.entries if entry.components or entry.pr_components
    ]
    removals: dict[GPAR, set | None] = {}
    pr_removals: dict[GPAR, set | None] = {}
    if component_entries:
        if matcher is None:
            matcher = VF2Matcher()
            matcher.statistics = CensusStatistics()
        censuses: dict[Pattern, frozenset] = {}
        for entry in component_entries:
            for shape in entry.components + entry.pr_components:
                if shape not in censuses:
                    censuses[shape] = component_census(graph, shape, matcher)
        for entry in component_entries:
            rule = entry.rule
            if entry.components:
                centers = set().union(
                    *(report.antecedent_sets.get(rule, set()) for report in reports)
                )
                removals[rule] = _component_failures(
                    graph, rule.antecedent, entry.components, censuses,
                    entry.size, centers, matcher,
                )
            if entry.pr_components:
                centers = set().union(
                    *(report.rule_matches.get(rule, set()) for report in reports)
                )
                if removals.get(rule) is not None:
                    centers -= removals[rule] or set()
                pr_removals[rule] = _component_failures(
                    graph, rule.pr_pattern(), entry.pr_components, censuses,
                    entry.pr_size, centers, matcher,
                )

    if not (infeasible or pr_infeasible or removals or pr_removals):
        return list(reports)
    adjusted = []
    for stored in reports:
        antecedent_sets = dict(stored.antecedent_sets)
        rule_matches = dict(stored.rule_matches)
        for rule in infeasible:
            antecedent_sets[rule] = set()
        for rule in pr_infeasible:
            rule_matches[rule] = set()
        for rule, failed in removals.items():
            antecedent_sets[rule] = (
                set() if failed is None else antecedent_sets.get(rule, set()) - failed
            )
            # A full-antecedent failure implies a full-PR failure (PR embeds
            # the antecedent), so the rule's match set shrinks with it.
            rule_matches[rule] = (
                set() if failed is None else rule_matches.get(rule, set()) - failed
            )
        for rule, failed in pr_removals.items():
            rule_matches[rule] = (
                set() if failed is None else rule_matches.get(rule, set()) - failed
            )
        adjusted.append(
            replace(stored, antecedent_sets=antecedent_sets, rule_matches=rule_matches)
        )
    return adjusted
