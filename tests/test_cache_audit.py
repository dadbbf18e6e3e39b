"""Warm-cache staleness audit (ROADMAP "warm-cache staleness audits").

Streaming keeps matchers alive across graph mutations (pool-lifetime
worker contexts), which turned three pre-existing unversioned caches into
bugs before they were ``Graph.version``-pinned.  This audit makes the
convention enforceable:

* a **registry** names every cache a matcher/solver keeps, by staleness
  discipline: graph-keyed caches MUST be **version-pinned**; **pattern-keyed**
  caches are exempt (patterns are immutable; what is compiled from a
  pattern lives on the pattern itself, ``Pattern.derive``, not in a
  matcher); and the witness store of the streaming worker is **validated
  on use** — it pins nothing and invalidates nothing, every read re-proves
  the entry against the graph it is about to be used on;
* a **discovery sweep** fails when a class grows an unregistered
  cache-shaped attribute, or a matcher class exported by ``repro.matching``
  is missing from the registry — adding a cache without auditing it breaks
  this file;
* a **behavioural sweep** warms every registered matcher, mutates the
  graph through update batches, and requires warm results byte-identical
  to a fresh instance's — served-stale answers fail loudly (for the
  validated-on-use store this sweep *is* the audit; the adversarial cases
  live in ``tests/test_witnesses.py``);
* a **pinning sweep** asserts every graph-keyed cache entry left behind
  after the warm re-probe carries the current ``Graph.version`` — batch
  identification's per-graph fragmentation (``MODULE_CACHES``) included.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.datasets import generate_gpars, most_frequent_predicates, synthetic_graph
from repro.graph import columnar, columnar_view, registered_columnar
from repro.matching import (
    GuidedMatcher,
    LocalityMatcher,
    MatchStore,
    VF2Matcher,
)
from repro.identification import EIPConfig
from repro.matching.base import WitnessStore
from repro.partition import partitioner
from repro.stream import random_update_batch
from repro.testing import discard_columnar, eip_fingerprint, resident_label, resident_sketch

# ----------------------------------------------------------------------
# the registry: every matcher/solver cache, by staleness discipline
# ----------------------------------------------------------------------
def _keeping_witnesses():
    """The guided matcher as the streaming worker runs it (``_stream_verify``)."""
    matcher = GuidedMatcher()
    matcher.witnesses = WitnessStore()
    return matcher


#: name -> (factory, graph-keyed pinned attrs, pattern-keyed or validated-on-use exempt attrs)
AUDITED_CACHES = {
    "vf2": (lambda: VF2Matcher(), (), ()),
    "guided": (lambda: GuidedMatcher(), (), ()),
    "guided-witnesses": (_keeping_witnesses, (), ("witnesses",)),  # validated on use
    "locality": (lambda: LocalityMatcher(VF2Matcher()), ("_ball_cache",), ()),
}

#: Classes allowed to carry caches without appearing above (audited by
#: their own dedicated suites, noted here so discovery stays exhaustive).
AUDITED_ELSEWHERE = {
    "MatchStore",  # entry.version pinning: tests/test_stream.py, this file below
    "MultiPatternMatcher",  # keeps nothing: prefix chains live on their patterns
    "ColumnarFragment",  # built_version pinning: tests/test_index.py + test_columnar.py, below
}

#: Process-wide caches kept in module globals, keyed by graph object (weak
#: keys).  The discovery sweep below finds every weak-keyed map a ``repro``
#: module holds; a new one must be classified here before it lands.
MODULE_CACHES = {
    # built_version pinning, refreshed on probe: tests/test_columnar.py, below
    "repro.graph.columnar._REGISTRY": "graph -> ColumnarFragment",
    # version-pinned: served only while graph.version equals the key's and no
    # fragment graph moved; never read or written inside an open batch
    "repro.partition.partitioner._SHARED": "graph -> (key, fragments, fragment versions)",
}

_CACHE_HINTS = ("cache", "sketch", "memo", "graphs", "store", "witness")


def _cache_like_attributes(instance) -> set[str]:
    found = set()
    for name, value in vars(instance).items():
        if not isinstance(value, (dict, WitnessStore)):
            continue
        if any(hint in name.lower() for hint in _CACHE_HINTS):
            found.add(name)
    return found


def test_registry_covers_every_cache_carrying_class():
    """Every concrete matcher ``repro.matching`` exports must be audited —
    anything answering ``match_set`` can be kept warm across mutations."""
    import inspect

    import repro.matching as matching

    registered_types = {
        type(factory()) for factory, _pinned, _exempt in AUDITED_CACHES.values()
    }
    matchers = [
        obj
        for obj in (getattr(matching, name) for name in matching.__all__)
        if inspect.isclass(obj) and hasattr(obj, "match_set") and not inspect.isabstract(obj)
    ]
    assert len(matchers) >= 3, "the discovery went blind"
    for obj in matchers:
        assert obj in registered_types or obj.__name__ in AUDITED_ELSEWHERE, (
            f"{obj.__name__} answers match_set but is not in "
            "the staleness-audit registry; register it in test_cache_audit.py"
        )


def test_every_module_level_graph_cache_is_registered():
    import importlib
    import pkgutil
    import weakref

    import repro

    found = {}  # id -> where it was seen (a re-export names the same object)
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if isinstance(value, weakref.WeakKeyDictionary):
                found.setdefault(id(value), f"{info.name}.{name}")
    registered = {}
    for path in MODULE_CACHES:
        module, _, name = path.rpartition(".")
        registered[id(getattr(importlib.import_module(module), name))] = path
    unregistered = sorted(found[key] for key in found.keys() - registered.keys())
    assert not unregistered, f"classify {unregistered} in MODULE_CACHES"
    assert registered.keys() <= found.keys(), "the discovery went blind"


@pytest.mark.parametrize("name", sorted(AUDITED_CACHES))
def test_no_unregistered_cache_attributes(name):
    """A new dict-shaped cache attribute must be classified before landing."""
    factory, pinned, exempt = AUDITED_CACHES[name]
    instance = factory()
    discovered = _cache_like_attributes(instance)
    unregistered = discovered - set(pinned) - set(exempt)
    assert not unregistered, (
        f"{type(instance).__name__} grew unaudited cache attributes "
        f"{sorted(unregistered)}; classify them as graph-keyed (pinned) or "
        "pattern-keyed (exempt) in test_cache_audit.py"
    )


def _workload(seed: int):
    graph = synthetic_graph(80, 240, num_node_labels=4, num_edge_labels=3, seed=seed)
    predicate = most_frequent_predicates(graph, top=1)[0]
    rules = generate_gpars(graph, predicate, count=2, max_pattern_edges=3, d=2, seed=seed)
    patterns = []
    for rule in rules:
        patterns.append(rule.antecedent)
        patterns.append(rule.pr_pattern())
    return graph, patterns


@pytest.mark.parametrize("resident", [True, False])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", sorted(AUDITED_CACHES))
def test_warm_matcher_survives_mutations(name, seed, resident):
    """Warm caches across update batches == a fresh matcher every time.

    ``resident=False`` runs the same matchers on a graph with nothing
    registered — how production reaches them on transient graphs — which
    forces each matcher's *private* caches to carry the staleness burden
    (the resident structure otherwise absorbs most probes):
    the configuration that exposed the original three bugs.
    """
    factory, pinned, _exempt = AUDITED_CACHES[name]
    graph, patterns = _workload(seed)
    if resident:
        columnar_view(graph)
    else:
        discard_columnar(graph)
    warm = factory()
    for pattern in patterns:  # warm every cache with real traffic
        warm.match_set(graph, pattern)
    for position in range(3):
        batch = random_update_batch(graph, size=6, seed=seed * 50 + position)
        batch.apply(graph)
        fresh = factory()
        for pattern in patterns:
            assert warm.match_set(graph, pattern) == fresh.match_set(graph, pattern), (
                name,
                seed,
                position,
                pattern,
            )
        # Pinning sweep: graph-keyed entries must follow the
        # ``(version, payload)`` convention, which is what lets the read
        # path validate the pin before serving (stale entries may linger —
        # they are revalidated, never served; the behavioural sweep above
        # is the proof).
        for attribute in pinned:
            cache = getattr(warm, attribute)
            if not resident:
                # With nothing resident, every private cache must have seen
                # traffic — an empty cache means the audit went blind.
                assert cache, f"{name}.{attribute} was never exercised by the audit"
            for value in cache.values():
                assert isinstance(value, tuple) and isinstance(value[0], int), (
                    f"{name}.{attribute} entries must be (version, payload) "
                    f"tuples, got {type(value)}"
                )
    assert (registered_columnar(graph) is not None) == resident
    if getattr(warm, "witnesses", None) is not None:  # the store must have been read, not bypassed
        assert warm.statistics.witness_hits > 0 and len(warm.witnesses) > 0


def _open_batch_query(name):
    """``(rules, run)``: one of the three ``match_set`` surfaces on G1's rules."""
    from repro.datasets.paper_graphs import rule_r1, rule_r5
    from repro.matching import MultiPatternMatcher

    rules = [rule_r1(), rule_r5()]
    if name == "multi":
        multi = MultiPatternMatcher(VF2Matcher())
        return rules, lambda graph: list(multi.match_sets(graph, rules).values())
    matcher = AUDITED_CACHES[name][0]()
    return rules, lambda graph: [
        matcher.match_set(graph, rule.pr_pattern()) for rule in rules
    ]


@pytest.mark.parametrize("resident", [False, True], ids=["raw", "resident"])
@pytest.mark.parametrize("name", ["vf2", "guided", "multi"])
def test_open_batch_never_changes_whether_a_query_answers(name, resident):
    """Inside an open, dirty ``batch_update`` every matcher probes raw.

    The same call used to answer when nothing was resident and raise
    ``GraphError`` ("cannot refresh ... while a batch_update is open") when
    something was; residency must change neither the answer nor whether
    there is one.
    """
    from repro.datasets.paper_graphs import graph_g1

    graph = graph_g1()
    if resident:
        columnar_view(graph)
    _rules, run = _open_batch_query(name)
    before = run(graph)  # warm every cache on the pre-batch state
    with graph.batch_update():
        graph.add_node("batch-probe", "cust")
        graph.add_edge("batch-probe", "NewYork", "live_in")
        inside = run(graph)
    after = run(graph)
    assert inside == after == _open_batch_query(name)[1](graph.copy())
    assert any(before)  # the gate is not vacuous: G1 has matches
    assert (registered_columnar(graph) is not None) == resident


def _identify_workload(seed: int):
    graph = synthetic_graph(80, 240, num_node_labels=4, num_edge_labels=3, seed=seed)
    predicate = most_frequent_predicates(graph, top=1)[0]
    rules = generate_gpars(graph, predicate, count=3, max_pattern_edges=3, d=2, seed=seed)
    return graph, rules, lambda target: eip_fingerprint(
        api.identify(target, rules, EIPConfig(eta=0.5, num_workers=2))
    )


def test_open_batch_never_reads_or_writes_shared_fragments():
    """Batch identification inside an open, dirty ``batch_update`` fragments
    the half-applied graph afresh: the graph's version has not moved yet, so
    the memo's entry would serve the pre-batch fragments."""
    graph, rules, identify = _identify_workload(seed=6)
    before = identify(graph)
    entry = partitioner._SHARED[graph]
    with graph.batch_update() as batch:
        for node in sorted(graph.nodes_with_label(rules[0].x_label), key=str)[:3]:
            batch.remove_node(node)
        inside = identify(graph)
        assert partitioner._SHARED[graph] is entry
    assert inside == identify(graph) == identify(graph.copy()) != before
    assert any(before[2]) and partitioner._SHARED[graph][0][0] == graph.version


def test_shared_fragments_entries_are_version_pinned():
    """After a warm re-identify, the memo's entry carries the current
    ``Graph.version``, and its fragment graphs the versions it stored."""
    graph, rules, identify = _identify_workload(seed=7)
    for position in range(3):
        identify(graph)
        random_update_batch(graph, size=6, seed=position).apply(graph)
        assert identify(graph) == identify(graph) == identify(graph.copy())
        key, fragments, versions = partitioner._SHARED[graph]
        assert key[0] == graph.version
        assert [fragment.graph.version for fragment in fragments] == versions


def test_match_store_entries_are_version_pinned():
    """MatchStore (solver-side cache) evicts on any version mismatch."""
    graph, patterns = _workload(seed=1)
    store = MatchStore(graph)
    from repro.matching import DeltaMatcher

    delta_matcher = DeltaMatcher(graph, VF2Matcher(), store)
    pattern = patterns[1]  # a PR pattern: connected, enumerable
    candidates = sorted(graph.nodes_with_label(pattern.label(pattern.x)), key=str)
    _matches, entry = delta_matcher.materialize(pattern, candidates)
    assert entry is not None and entry.version == graph.version
    graph.add_node("audit-probe", "somewhere")
    assert store.get(pattern) is None, "stale entry must be evicted, not served"
    assert store.statistics.stale_entries == 1


def test_resident_index_never_serves_stale_reads():
    """The version guard runs on *every* probe, the lazy caches included."""
    from repro.graph import build_sketch

    graph, _patterns = _workload(seed=2)
    index = columnar_view(graph)
    label = sorted(graph.node_labels())[0]
    anchor = sorted(graph.nodes(), key=str)[0]
    before = set(index.nodes_with_label(label))
    resident_sketch(index, anchor, 2)  # warm the caches the mutation must reach
    index.in_neighbors(anchor, "audit-edge")
    fresh_node = "audit-fresh"
    graph.add_node(fresh_node, label)
    graph.add_edge(fresh_node, anchor, "audit-edge")
    assert set(index.nodes_with_label(label)) == before | {fresh_node}
    assert resident_label(index, fresh_node) == label
    assert index.in_neighbors(anchor, "audit-edge") == {fresh_node}
    assert resident_sketch(index, anchor, 2) == build_sketch(graph, anchor, 2)
    assert registered_columnar(graph) is index


def test_frozen_neighbors_view_never_serves_stale_reads():
    """The neighbourhood kernel memoises adjacency but tracks mutations.

    The memo is version-pinned like every other probe: a touched
    node's entry is dropped by the delta patch, an untouched node's entry
    is reused, and both must equal the graph's live adjacency afterwards.
    """
    graph, _patterns = _workload(seed=3)
    index = columnar_view(graph)
    nodes = sorted(graph.nodes(), key=str)[:10]
    for node in nodes:  # warm the memo
        assert index.ball(node, 1) == graph.neighbors(node) | {node}
    source, target = nodes[0], nodes[-1]
    graph.add_edge(source, target, "audit-edge")
    assert target in index.ball(source, 1)
    assert source in index.ball(target, 1)
    for node in nodes:
        assert index.ball(node, 1) == graph.neighbors(node) | {node}


#: Every slot of the neighbourhood kernel the resident structure (and the
#: coordinator's FragmentManager) keeps: its memos are version-pinned through
#: their owner, which hands it each applied delta's touched set — the owner's
#: pin (``ColumnarFragment._built_version``) is theirs.  A new slot must be
#: classified here before it lands.
NEIGHBORHOOD_SLOTS = {
    "_views": "pinned memo: node -> frozen neighbour view (set side)",
    "_adjacent": "pinned memo: bit -> undirected adjacency mask (mask side)",
    "_label_masks": "pinned memo: label -> node mask (mask side)",
    "_bit": "bit index: live node -> bit",
    "_node_at": "bit index: bit -> node, dead ones until the re-index",
    "_relabels": "epoch of the label masks: a cached ring's label counts hold while it stands",
    "_graph_ref": "the graph itself (weak)",
    "masks": "the representation, fixed per compile",
}


@pytest.mark.parametrize("side", ["masks", "sets"])
def test_neighborhood_masks_are_version_pinned(monkeypatch, side):
    """Warm every kernel memo, mutate, probe: each memoised entry left behind
    equals what the current graph gives, on both sides of the n/E rule."""
    from repro.graph import neighborhood
    from repro.graph.neighborhood import Neighborhoods

    assert set(Neighborhoods.__slots__) == set(NEIGHBORHOOD_SLOTS)
    if side == "sets":
        monkeypatch.setattr(neighborhood, "uses_masks", lambda num_nodes, num_edges: False)
    monkeypatch.setattr(columnar, "DELTA_REBUILD_FRACTION", 1.0)  # patch, never rebuild
    graph, _patterns = _workload(seed=5)
    index = columnar_view(graph)
    kernel = index._neighborhoods
    assert kernel.masks == (side == "masks")
    for position in range(4):
        for node in sorted(graph.nodes(), key=str):  # warm every memo
            resident_sketch(index, node, 2)
            index.ball(node, 2)
        random_update_batch(graph, size=8, seed=90 + position, deletion_bias=0.4).apply(graph)
        index.ball(sorted(graph.nodes(), key=str)[0], 1)  # the probe that refreshes
        assert index._built_version == graph.version
        assert index._neighborhoods is kernel, "the audit must see a patched kernel, not a new one"
        for node, view in kernel._views.items():
            assert view == frozenset(graph.neighbors(node))
        for bit, mask in enumerate(kernel._adjacent):
            if mask is not None:
                node = kernel._node_at[bit]
                assert kernel._bit[node] == bit
                assert kernel.nodes(mask) == graph.neighbors(node)
        for label, mask in kernel._label_masks.items():
            assert kernel.nodes(mask) == graph.nodes_with_label(label)


def test_resident_columnar_view_never_serves_stale_reads():
    """ColumnarFragment's version guard runs on every store probe."""
    graph, _patterns = _workload(seed=4)
    view = columnar_view(graph)
    label = sorted(graph.node_labels())[0]
    before = view.nodes_with_label(label)
    fresh_node = "audit-columnar-fresh"
    graph.add_node(fresh_node, label)
    assert view.nodes_with_label(label) == before | {fresh_node}
    assert view._built_version == graph.version
    assert registered_columnar(graph) is view
