"""Update ingestion: batched graph mutations as picklable value objects.

The streaming subsystem treats a mutation workload as a sequence of
:class:`UpdateBatch` values — small, immutable, order-preserving lists of
:class:`UpdateOp` — rather than ad-hoc method calls.  A batch is applied
through :meth:`UpdateBatch.apply`, which routes every operation through one
``Graph.batch_update`` context: the whole batch is a **single version
tick**, and the graph's recorded :class:`~repro.graph.graph.GraphDelta`
(net effect + touched-node set) is returned for the delta-maintenance
layers to patch themselves forward with.

Operations are validated lazily, by the graph itself, in order: a batch
that removes an edge twice fails exactly where the second ``remove_edge``
would have failed, leaving the earlier operations applied (the delta
recorded by the enclosing context stays truthful about what happened).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterator

from repro.exceptions import StreamError
from repro.graph.graph import Graph, GraphDelta
from repro.utils.rng import ensure_rng

NodeId = Hashable

#: Operation kinds an :class:`UpdateOp` may carry.
OP_KINDS = ("add_node", "remove_node", "add_edge", "remove_edge", "relabel_node")


@dataclass(frozen=True)
class UpdateOp:
    """One primitive graph mutation (hashable, picklable).

    Use the class-method constructors; the generic fields exist so one
    frozen type covers node ops (``node``/``label``/``attrs``) and edge ops
    (``source``/``target``/``label``).
    """

    kind: str
    node: NodeId | None = None
    source: NodeId | None = None
    target: NodeId | None = None
    label: str | None = None
    attrs: tuple = ()

    # -- constructors ------------------------------------------------------
    @classmethod
    def add_node(cls, node: NodeId, label: str, attrs: dict | None = None) -> "UpdateOp":
        """Add *node* carrying *label* (and optional attributes)."""
        items = tuple(sorted(attrs.items())) if attrs else ()
        return cls(kind="add_node", node=node, label=label, attrs=items)

    @classmethod
    def remove_node(cls, node: NodeId) -> "UpdateOp":
        """Remove *node* and all its incident edges."""
        return cls(kind="remove_node", node=node)

    @classmethod
    def add_edge(cls, source: NodeId, target: NodeId, label: str) -> "UpdateOp":
        """Add the edge ``source --label--> target``."""
        return cls(kind="add_edge", source=source, target=target, label=label)

    @classmethod
    def remove_edge(cls, source: NodeId, target: NodeId, label: str) -> "UpdateOp":
        """Remove the edge ``source --label--> target``."""
        return cls(kind="remove_edge", source=source, target=target, label=label)

    @classmethod
    def relabel_node(cls, node: NodeId, label: str) -> "UpdateOp":
        """Change the label of *node* to *label*."""
        return cls(kind="relabel_node", node=node, label=label)

    # -- serialization -----------------------------------------------------
    def as_dict(self) -> dict:
        """JSON wire form consumed by ``POST /sessions/{id}/updates``
        (:func:`repro.serve.ops_from_json` is the inverse)."""
        doc: dict = {"kind": self.kind}
        if self.kind in ("add_node", "remove_node", "relabel_node"):
            doc["node"] = self.node
            if self.kind != "remove_node":
                doc["label"] = self.label
            if self.kind == "add_node" and self.attrs:
                doc["attrs"] = dict(self.attrs)
        else:
            doc["source"] = self.source
            doc["target"] = self.target
            doc["label"] = self.label
        return doc

    # -- application -------------------------------------------------------
    def apply(self, graph_like) -> None:
        """Apply the operation to a :class:`Graph` or ``GraphBatch`` proxy."""
        kind = self.kind
        if kind == "add_edge":
            graph_like.add_edge(self.source, self.target, self.label)
        elif kind == "remove_edge":
            graph_like.remove_edge(self.source, self.target, self.label)
        elif kind == "add_node":
            graph_like.add_node(self.node, self.label, dict(self.attrs) or None)
        elif kind == "remove_node":
            graph_like.remove_node(self.node)
        elif kind == "relabel_node":
            graph_like.relabel_node(self.node, self.label)
        else:
            raise StreamError(f"unknown update kind {kind!r}; expected one of {OP_KINDS}")

    def __str__(self) -> str:
        if self.kind in ("add_edge", "remove_edge"):
            return f"{self.kind}({self.source!r} --{self.label}--> {self.target!r})"
        if self.kind == "remove_node":
            return f"remove_node({self.node!r})"
        return f"{self.kind}({self.node!r}, {self.label!r})"


@dataclass(frozen=True)
class UpdateBatch:
    """An ordered, immutable batch of :class:`UpdateOp`.

    Example
    -------
    >>> from repro.graph import Graph
    >>> g = Graph(); g.add_node("a", "x"); g.add_node("b", "x")
    >>> batch = UpdateBatch.of(
    ...     UpdateOp.add_edge("a", "b", "knows"),
    ...     UpdateOp.relabel_node("b", "vip"),
    ... )
    >>> before = g.version
    >>> delta = batch.apply(g)
    >>> (g.version - before, sorted(delta.touched))
    (1, ['a', 'b'])
    """

    ops: tuple[UpdateOp, ...] = ()

    @classmethod
    def of(cls, *ops: UpdateOp) -> "UpdateBatch":
        """Build a batch from operations given as positional arguments."""
        return cls(ops=tuple(ops))

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[UpdateOp]:
        return iter(self.ops)

    def __bool__(self) -> bool:
        return bool(self.ops)

    def apply(self, graph: Graph) -> GraphDelta:
        """Apply every operation under **one** version tick; return the delta."""
        with graph.batch_update() as tx:
            for op in self.ops:
                op.apply(tx)
        return tx.delta

    def describe(self) -> str:
        """One-line ``kind=count`` summary used by reports and the CLI."""
        counts: dict[str, int] = {}
        for op in self.ops:
            counts[op.kind] = counts.get(op.kind, 0) + 1
        inner = " ".join(f"{kind}={counts[kind]}" for kind in OP_KINDS if kind in counts)
        return f"UpdateBatch({len(self.ops)} ops: {inner})"


def random_update_batch(
    graph: Graph,
    size: int = 8,
    seed: int | None = 0,
    structural_fraction: float = 0.25,
    deletion_bias: float = 0.0,
) -> UpdateBatch:
    """Sample a valid mixed batch against the graph's **current** state.

    Roughly ``1 - structural_fraction`` of the operations are edge churn
    (removal of an existing edge / insertion of a fresh edge between
    surviving nodes, drawn from the graph's own label alphabets) and the
    rest are node-level churn (add / relabel / remove), mimicking the
    social-network update workloads of the paper's applications.  The batch
    is self-consistent: sequential application never references a node or
    edge a previous operation of the same batch invalidated.

    *deletion_bias* skews the workload towards shrinkage: with that
    probability an operation is forced to be a removal (an existing edge,
    or — one time in four — a whole node), modelling deletion-heavy
    deployments, where recheck pairs come from removed elements
    (``docs/streaming.md``).  ``0.0`` (the default) leaves the historical
    sampling byte-identical.
    """
    if size < 1:
        raise StreamError(f"size must be >= 1, got {size}")
    if not 0.0 <= structural_fraction <= 1.0:
        raise StreamError(
            f"structural_fraction must be in [0, 1], got {structural_fraction}"
        )
    if not 0.0 <= deletion_bias <= 1.0:
        raise StreamError(f"deletion_bias must be in [0, 1], got {deletion_bias}")
    rng = ensure_rng(seed)
    nodes = sorted(graph.nodes(), key=str)
    if not nodes:
        raise StreamError("cannot sample updates against an empty graph")
    edges = sorted(
        graph.edges(), key=lambda e: (str(e.source), str(e.target), e.label)
    )
    node_labels = sorted(graph.node_labels()) or ["node"]
    edge_labels = sorted(graph.edge_labels()) or ["edge"]

    alive = set(nodes)
    present = {(e.source, e.target, e.label) for e in edges}
    ops: list[UpdateOp] = []
    fresh_serial = 0
    attempts = 0
    max_attempts = size * 50
    while len(ops) < size:
        attempts += 1
        if attempts > max_attempts:
            # Degenerate graphs (e.g. one node, no edges, edge churn only)
            # can starve every branch; fail loudly instead of spinning.
            raise StreamError(
                f"could only sample {len(ops)} of {size} operations after "
                f"{max_attempts} attempts; the graph is too small for the "
                "requested batch shape"
            )
        if deletion_bias > 0.0 and rng.random() < deletion_bias:
            # Forced removal: an existing edge, or (1 in 4) a whole node.
            removable = [
                e for e in sorted(present, key=str) if e[0] in alive and e[1] in alive
            ]
            pool = sorted(alive, key=str)
            if removable and (len(pool) <= 2 or rng.random() < 0.75):
                edge = removable[rng.randrange(len(removable))]
                present.discard(edge)
                ops.append(UpdateOp.remove_edge(*edge))
                continue
            if len(pool) > 2:
                node = rng.choice(pool)
                alive.discard(node)
                present = {e for e in present if node not in (e[0], e[1])}
                ops.append(UpdateOp.remove_node(node))
                continue
            continue
        roll = rng.random()
        if roll >= structural_fraction:
            # Edge churn: alternate-ish between removals and insertions.
            removable = [e for e in sorted(present, key=str) if e[0] in alive and e[1] in alive]
            if removable and rng.random() < 0.5:
                edge = removable[rng.randrange(len(removable))]
                present.discard(edge)
                ops.append(UpdateOp.remove_edge(*edge))
                continue
            pool = sorted(alive, key=str)
            if len(pool) < 2:
                continue
            source, target = rng.sample(pool, 2)
            label = rng.choice(edge_labels)
            if (source, target, label) in present:
                continue
            present.add((source, target, label))
            ops.append(UpdateOp.add_edge(source, target, label))
            continue
        structural = rng.random()
        if structural < 0.4:
            fresh_serial += 1
            node = f"stream-{seed}-{fresh_serial}"
            alive.add(node)
            ops.append(UpdateOp.add_node(node, rng.choice(node_labels)))
        elif structural < 0.8:
            pool = sorted(alive, key=str)
            node = rng.choice(pool)
            label = rng.choice(node_labels)
            ops.append(UpdateOp.relabel_node(node, label))
        else:
            pool = sorted(alive, key=str)
            if len(pool) <= 2:
                continue
            node = rng.choice(pool)
            alive.discard(node)
            present = {e for e in present if node not in (e[0], e[1])}
            ops.append(UpdateOp.remove_node(node))
    return UpdateBatch(ops=tuple(ops))
