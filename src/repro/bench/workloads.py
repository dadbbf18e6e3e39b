"""Benchmark workloads: graphs, predicates and rule sets.

The paper's graphs (Pokec, Google+, synthetic up to 100M edges) are replaced
by the laptop-scale substitutes documented in DESIGN.md.  Workloads are
cached per process so parameter sweeps re-use the same graph object.
"""

from __future__ import annotations

from functools import lru_cache

from repro.datasets import (
    generate_gpars,
    googleplus_like,
    most_frequent_predicates,
    pokec_like,
    synthetic_graph,
)
from repro.graph.graph import Graph
from repro.pattern.gpar import GPAR
from repro.pattern.pattern import Pattern

# Default benchmark scales (kept modest so the whole suite runs in minutes).
POKEC_USERS = 220
GOOGLEPLUS_USERS = 220
SYNTHETIC_NODES = 1200
DENSE_NODES = 4000


def _planted_predicate(graph: Graph, edge_label: str, y_label: str) -> Pattern:
    for predicate in most_frequent_predicates(graph, top=30):
        edge = predicate.edges()[0]
        if edge.label == edge_label and predicate.label(predicate.y) == y_label:
            return predicate
    raise RuntimeError(
        f"planted predicate {edge_label}->{y_label} not found in {graph.name}"
    )


@lru_cache(maxsize=None)
def mining_workload(dataset: str, scale: int | None = None) -> tuple[Graph, Pattern]:
    """Graph + predicate for the DMine benchmarks (Fig. 5(a)–(g)); *scale*
    is the user / node count (synthetic graphs have 3 × as many edges).

    ``"dense"`` is the label-skewed synthetic graph of the streaming smoke
    families: fewer node labels than ``"synthetic"`` means bigger label
    buckets, more embeddings per centre and deeper levelwise search — the
    regime where matching dominates the run.  Callers must ``copy()`` a
    graph before mutating it: workloads are cached per process.
    """
    if dataset == "pokec":
        graph = pokec_like(num_users=scale or POKEC_USERS, num_communities=8, seed=7)
        predicate = _planted_predicate(graph, "like_book", "personal development")
    elif dataset == "googleplus":
        graph = googleplus_like(num_users=scale or GOOGLEPLUS_USERS, num_circles=8, seed=7)
        predicate = _planted_predicate(graph, "major", "Computer Science")
    elif dataset in ("synthetic", "dense"):
        nodes = scale or (SYNTHETIC_NODES if dataset == "synthetic" else DENSE_NODES)
        node_labels, edge_labels = (20, 8) if dataset == "synthetic" else (8, 4)
        graph = synthetic_graph(
            nodes, nodes * 3, num_node_labels=node_labels, num_edge_labels=edge_labels, seed=7
        )
        predicate = most_frequent_predicates(graph, top=1)[0]
    else:
        raise ValueError(f"unknown dataset {dataset!r}")
    return graph, predicate


@lru_cache(maxsize=None)
def dense_eip_workload(
    scale: int = DENSE_NODES, num_rules: int = 16
) -> tuple[Graph, tuple[GPAR, ...]]:
    """Rule set Σ over the dense graph — what every streaming smoke family
    maintains (``tenant`` cuts its overlapping slices from the whole pool,
    the solo families take a prefix).

    Σ is *mined* by DMine rather than sampled: a mined rule set shares
    antecedent prefixes by construction (levelwise growth from one seed) and
    actually identifies entities on its own graph (27 at the default scale
    with η = 0.5), so the smoke's fingerprint gates compare non-empty,
    changing answers — randomly sampled rules score 0.0 or ``inf`` at this
    label density and identify nothing at any η.  The last rule is a
    census-split twin of the first, so the free-node maintenance path is
    streamed too.
    """
    from repro.mining import DMineConfig, dmine

    graph, predicate = mining_workload("dense", scale)
    config = DMineConfig(
        k=num_rules,
        d=2,
        sigma=2,
        num_workers=2,
        max_edges=3,
        max_extensions_per_rule=8,
        max_rules_per_round=30,
    )
    result = dmine(graph, predicate, config)
    ranked = sorted(
        result.all_rules.items(), key=lambda item: (-item[1].support, item[0].name)
    )
    rules = [rule for rule, _info in ranked[:num_rules]]
    return graph, tuple(rules + [_census_split_variant(rules[0], predicate)])


@lru_cache(maxsize=None)
def storm_workload(
    scale: int = 400, mined: int = 6, sampled: int = 3
) -> tuple[Graph, tuple[GPAR, ...]]:
    """Graph + census-mixed Σ for the adversarial ``storm`` smoke family.

    Both checks of the differential oracle must compare something.  The
    *mined* best-supported rules of :func:`dense_eip_workload` identify
    entities (5 at the default scale; the deletion, label-flip and random
    storms move that answer), so the identifier check bites; the *sampled*
    connected rules identify nothing but add antecedent match sets the
    matches check sees change.  A free-node and an edge-carrying component
    variant of the first mined rule add the two census paths.
    """
    graph, pool = dense_eip_workload(scale)
    _, predicate = mining_workload("dense", scale)
    connected = generate_gpars(
        graph, predicate, count=sampled, max_pattern_edges=2, d=2, seed=3
    )
    return graph, (
        pool[:mined] + tuple(connected) + (pool[-1], _edge_component_variant(pool[0], predicate))
    )


def _census_variant(base: GPAR, suffix: str, nodes: dict, edges: tuple = ()) -> GPAR:
    """A twin of *base* whose antecedent gains *nodes* (and *edges* among
    them) disconnected from x — the part a coordinator-side census answers."""
    expanded = base.antecedent.expanded()
    antecedent = Pattern(
        nodes={**{node: expanded.label(node) for node in expanded.nodes()}, **nodes},
        edges=[*expanded.edges(), *edges],
        x=expanded.x,
        y=expanded.y,
    )
    return GPAR(
        antecedent,
        consequent_label=base.consequent_label,
        name=f"{base.name}+{suffix}",
        validate=False,
    )


def _edge_component_variant(base: GPAR, predicate: Pattern) -> GPAR:
    """*base* plus a disconnected q-shaped component (two fresh nodes joined
    by the predicate's edge label) — maintained via the component census."""
    return _census_variant(
        base,
        "component",
        {"census_f1": predicate.label(predicate.x), "census_f2": predicate.label(predicate.y)},
        (("census_f1", "census_f2", predicate.edges()[0].label),),
    )


def _census_split_variant(base: GPAR, predicate: Pattern) -> GPAR:
    """*base* plus an isolated node carrying the predicate's y-label.

    The antecedent splits into the (shared) connected-from-x part plus a
    global label census.  Its chain prefixes are exactly *base*'s, which
    keeps the prefix-trie sharing of ``MultiPatternMatcher`` live under
    census substitution (``tests/test_incremental_equivalence.py`` asserts
    that via ``prefix_pool_hits``).
    """
    return _census_variant(base, "census", {"census_free": predicate.label(predicate.y)})


@lru_cache(maxsize=None)
def eip_workload(
    dataset: str,
    num_rules: int = 8,
    max_pattern_edges: int = 4,
    d: int = 2,
    scale: int | None = None,
    seed: int = 5,
) -> tuple[Graph, tuple[GPAR, ...]]:
    """Graph + rule set Σ for the Match benchmarks (Fig. 5(h)–(o))."""
    graph, predicate = mining_workload(dataset, scale)
    rules = generate_gpars(
        graph,
        predicate,
        count=num_rules,
        max_pattern_edges=max_pattern_edges,
        d=d,
        seed=seed,
    )
    return graph, tuple(rules)
