"""Probes the suites put to production objects, and resets between cases.

No production path needs these: each one reads a structure a test holds
equal to an oracle, or resets process state between cases.

* :func:`structure_equal` — exact graph equality (node ids, labels, edges);
* :func:`counter_value` / :func:`counters` — reads of a metrics registry;
  :func:`reset_metrics` empties one;
* :func:`resident_label` — a node's label as the resident label column holds it;
* :func:`decoded_sketch` / :func:`resident_sketch` — the k-hop sketch a
  :class:`~repro.graph.neighborhood.Neighborhoods` handle stands for, and
  the one a :class:`~repro.graph.columnar.ColumnarFragment` memoises;
* :func:`discard_columnar` — drops a graph's registered resident view, so
  the next probe compiles a cold one;
* :func:`disable_collection` — new statistics objects stop registering.
"""

from __future__ import annotations

import os
from typing import Hashable

from repro.exceptions import NodeNotFoundError
from repro.graph import columnar
from repro.graph.columnar import ColumnarFragment
from repro.graph.graph import Graph
from repro.graph.neighborhood import Neighborhoods
from repro.graph.sketch import KHopSketch
from repro.obs.registry import MetricsRegistry


def structure_equal(first: Graph, second: object) -> bool:
    """Exact structural equality: same node ids, labels and edges.

    This is *not* isomorphism — node identity matters.
    """
    return (
        isinstance(second, Graph)
        and dict(first.node_items()) == dict(second.node_items())
        and first.num_edges == second.num_edges
        and set(first.edges()) == set(second.edges())
    )


def counter_value(metrics: MetricsRegistry, name: str, **labels) -> float:
    """Current value of the counter series ``name{**labels}`` (0 when absent)."""
    family = metrics.snapshot().get(name)
    if family is None:
        return 0
    return family["series"].get(tuple(str(labels[key]) for key in family["labelnames"]), 0)


def counters(metrics: MetricsRegistry, prefix: str = "") -> dict[str, float]:
    """Flat ``{name{label=...}: value}`` view of the counters under *prefix*."""
    out: dict[str, float] = {}
    for name, family in metrics.snapshot().items():
        if family["kind"] != "counter" or not name.startswith(prefix):
            continue
        for key, value in family["series"].items():
            labels = ",".join(f'{label}="{part}"' for label, part in zip(family["labelnames"], key))
            out[f"{name}{{{labels}}}" if labels else name] = value
    return out


def reset_metrics(metrics: MetricsRegistry) -> None:
    """Drop every family; the process registry first takes in, and so drops,
    this process's uncollected counts."""
    metrics._pull_uncollected()
    with metrics._lock:
        metrics._families.clear()


def resident_label(view: ColumnarFragment, node: Hashable) -> str:
    """Label of *node* in *view*'s label column (same contract as ``Graph.node_label``)."""
    view._check()
    label_id = view._label_id_of(node)
    if label_id is None or label_id < 0:
        raise NodeNotFoundError(node)
    return view.labels.label_of(label_id)


def decoded_sketch(hoods: Neighborhoods, node: Hashable, handle) -> KHopSketch:
    """The :class:`KHopSketch` a sketch handle of *node* stands for, labels as of now."""
    if not hoods.masks:
        return handle
    rings = handle[0]
    prefix = tuple({} for _ in rings)
    for label, members in hoods._label_masks.items():
        if rings[-1] & members:
            for counts, ring in zip(prefix, rings):
                count = (ring & members).bit_count()
                if count:
                    counts[label] = count
    return KHopSketch(node=node, hops=len(rings), prefix=prefix, total=rings[-1].bit_count())


def resident_sketch(view: ColumnarFragment, node: Hashable, hops: int) -> KHopSketch:
    """The *hops*-hop sketch of *node*, from *view*'s memoised handle."""
    view._check()
    return decoded_sketch(view._neighborhoods, node, view._sketch_handle(node, hops))


def discard_columnar(graph: Graph) -> bool:
    """Drop the registered view of *graph*, if any; returns whether one existed."""
    with columnar._REGISTRY_LOCK:
        return columnar._REGISTRY.pop(graph, None) is not None


def disable_collection() -> None:
    """Stop registering new statistics objects; registered ones still ship their counts."""
    os.environ["REPRO_OBS"] = "0"
