"""Data-driven levelwise expansion of rule antecedents (``localMine``).

A worker grows a GPAR by one antecedent edge at a time.  Rather than
enumerating all label combinations, extensions are read off the data: for a
matched centre, the antecedent match is overlaid on the fragment and every
incident data edge (counted off profile rows) not yet in the pattern becomes a candidate
extension — either a *closing* edge between two already-present pattern nodes
or a *growing* edge to a fresh pattern node carrying the data node's label.
Extensions supported by more centres are proposed first.
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import Hashable, Iterable, NamedTuple

from repro.graph.columnar import columnar_view
from repro.graph.graph import Graph
from repro.graph.neighborhood import bfs_distances
from repro.matching.base import Matcher
from repro.pattern.gpar import GPAR
from repro.pattern.pattern import Pattern

NodeId = Hashable


class _ExtensionKey(NamedTuple):
    """Structural identity of a candidate extension.

    ``closing`` extensions connect two existing pattern nodes; ``growing``
    extensions attach a new node with *other_label* to *pattern_node*.
    """

    kind: str  # "closing" | "growing"
    pattern_source: object
    pattern_target: object
    edge_label: str
    other_label: str | None = None
    outgoing: bool = True

    def sort_key(self) -> tuple:
        """A total order independent of hash seeds and process identity."""
        return (
            self.kind,
            str(self.pattern_source),
            str(self.pattern_target),
            self.edge_label,
            str(self.other_label),
            self.outgoing,
        )


def _extension_keys_for_match(
    graph: Graph,
    antecedent: Pattern,
    mapping: dict,
    consequent_label: str,
    profile,
) -> set[_ExtensionKey]:
    """All single-edge extensions suggested by one antecedent match.

    Read off the mapped nodes' profile rows (*profile*: data node -> the
    ``{(direction, edge label, neighbour label): count}`` row of
    :meth:`repro.graph.columnar.ColumnarFragment.profile`), not their edges.
    The only edges looked at are those between two mapped nodes, found by
    adjacency membership; they give the closing keys and, per row triple,
    the edges into the image.  A growing key exists iff its triple counts
    more edges than go into the image (``docs/incremental.md``, "Proposing").
    """
    image = {data_node: pattern_node for pattern_node, data_node in mapping.items()}
    labels = {data_node: graph.node_label(data_node) for data_node in image}
    into_image: Counter = Counter()
    keys: set[_ExtensionKey] = set()
    for source, pattern_source in image.items():
        for direction, edge_label, label in profile(source):
            if direction != "out":
                continue
            for target, pattern_target in image.items():
                if labels[target] != label or not graph.has_edge(source, target, edge_label):
                    continue
                into_image[source, "out", edge_label, label] += 1
                into_image[target, "in", edge_label, labels[source]] += 1
                if (
                    pattern_source == pattern_target
                    or antecedent.has_edge(pattern_source, pattern_target, edge_label)
                    # Never re-introduce the consequent edge q(x, y).
                    or (pattern_source, pattern_target, edge_label)
                    == (antecedent.x, antecedent.y, consequent_label)
                ):
                    continue
                keys.add(_ExtensionKey("closing", pattern_source, pattern_target, edge_label))
    for data_node, pattern_node in image.items():
        for (direction, edge_label, label), count in profile(data_node).items():
            if count > into_image[data_node, direction, edge_label, label]:
                keys.add(_ExtensionKey("growing", pattern_node, None, edge_label, label, direction == "out"))
    return keys


def _apply_extension(rule: GPAR, key: tuple) -> GPAR:
    """Materialise a valid extension key (see :func:`extension_keys`), an
    :class:`_ExtensionKey` or its plain tuple, into a GPAR named ``<rule's name>+``."""
    kind, source, target, edge_label, other_label, outgoing = key
    antecedent = rule.antecedent
    if kind == "closing":
        new_antecedent = antecedent.with_edge(source, target, edge_label)
    else:
        new_node = f"v{antecedent.num_nodes}"
        while antecedent.has_node(new_node):
            new_node = new_node + "_"
        if outgoing:
            new_antecedent = antecedent.with_edge(source, new_node, edge_label, target_label=other_label)
        else:
            new_antecedent = antecedent.with_edge(new_node, source, edge_label, source_label=other_label)
    return GPAR(new_antecedent, rule.consequent_label, name=f"{rule.name}+", validate=False)


def extension_keys(
    graph: Graph,
    rule: GPAR,
    centers: Iterable[NodeId],
    matcher: Matcher,
    max_radius: int,
    max_extensions: int = 30,
    consequent_label: str | None = None,
    witnesses=None,
) -> list[_ExtensionKey]:
    """The keys of the single-edge extensions of *rule* suggested by *graph*
    around *centers*: valid ones only, most-supported first, at most
    *max_extensions*.

    Parameters
    ----------
    centers:
        Data nodes at which the antecedent currently matches (typically the
        fragment's owned matched centres); each contributes one witness match.
    max_radius:
        Extensions whose rule pattern exceeds this radius at x are dropped.
        *rule*'s own rule pattern must be connected and within it (DMine's
        seed and every rule this function returns are).
    max_extensions:
        At most this many keys are returned.
    witnesses:
        Optional materialized witness source (an object with
        ``witness_for(center) -> mapping | None``, e.g. a canonical
        :class:`repro.matching.incremental.MatchEntry` of the antecedent).
        A stored witness replaces the fresh ``find_match_at`` probe; it must
        be the *same* mapping the probe would return (canonical entries
        guarantee this), so the proposed extensions are unchanged.
    """
    q_label = consequent_label if consequent_label is not None else rule.consequent_label
    antecedent = rule.antecedent.expanded()
    profile = functools.cache(columnar_view(graph).profile)  # one read per node and call
    votes: Counter = Counter()
    for center in centers:
        mapping = witnesses.witness_for(center) if witnesses is not None else None
        if mapping is None:
            mapping = matcher.find_match_at(graph, antecedent, center)
        if mapping is None:
            continue
        for key in _extension_keys_for_match(graph, antecedent, mapping, q_label, profile):
            votes[key] += 1

    # Most-supported first with a *total* tie order: Counter.most_common
    # breaks ties by insertion order, which follows set iteration and hence
    # the per-process hash seed — sorting on the key itself keeps the
    # max_extensions truncation identical on every execution backend
    # (including spawn-based process pools).
    ranked = sorted(votes.items(), key=lambda item: (-item[1], item[0].sort_key()))
    # Keys are read off the *expanded* antecedent: one naming a copy-expansion
    # sibling is invalid, and so is a closing edge the unexpanded antecedent
    # has.  An extension's radius follows from the rule's distances: a
    # growing edge puts its new node one hop beyond its anchor, a closing
    # edge lengthens no distance.
    unexpanded = rule.antecedent
    distances = bfs_distances(rule.pr_pattern(), rule.x)
    keys: list[_ExtensionKey] = []
    for key, _count in ranked:
        source = key.pattern_source
        if not unexpanded.has_node(source):
            continue
        if key.kind == "closing":
            target = key.pattern_target
            if not unexpanded.has_node(target) or unexpanded.has_edge(source, target, key.edge_label):
                continue
        elif distances[source] + 1 > max_radius:
            continue
        keys.append(key)
        if len(keys) >= max_extensions:
            break
    return keys
