"""The pattern model ``Q = (Vp, Ep, f, C)`` with designated nodes.

Patterns are small (a handful of nodes) and immutable once built; mutation
helpers return new patterns, which keeps the levelwise expansion of DMine
free of aliasing bugs.

Immutability is also what makes identity cheap: every pure function of a
pattern is computed at most once per object and kept *on* the object — the
structural key and its hash in slots (``__eq__`` / ``__hash__`` read them),
the canonical code in a slot (:func:`repro.pattern.canonical.canonical_code`
reads it) and everything else — the copy-expanded form, the edge set, and
what :mod:`repro.matching` compiles from a pattern (search plan, required
sketches, prefix chain) — in the per-object memo behind :meth:`Pattern.derive`.
``__reduce__`` ships the normalised defining fields and the canonical code,
a string no hash seed enters; the structural key, its hash and the memo stay
behind, because a hash cached under one ``PYTHONHASHSEED`` is wrong in a
process started with another, and would make an equal pattern unfindable in
every dict there.
"""

from __future__ import annotations

import bisect
from typing import Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, TypeVar

from repro.exceptions import PatternError
from repro.graph.graph import Graph

PatternNodeId = Hashable
T = TypeVar("T")


class PatternEdge(NamedTuple):
    """A directed labelled pattern edge."""

    source: PatternNodeId
    target: PatternNodeId
    label: str

    def sort_key(self) -> tuple[str, str, str]:
        """A total order usable even when node ids mix types (copy nodes)."""
        return (str(self.source), str(self.target), self.label)


def _from_parts(nodes, edges, x, y, copies, code=None) -> "Pattern":
    """A pattern from normalised parts (see :meth:`Pattern._init`), not
    validated again: what unpickling and the one-edge derivations build."""
    pattern = Pattern.__new__(Pattern)
    pattern._init(nodes, edges, x, y, copies, code)
    return pattern


class Pattern:
    """A connected search pattern with designated nodes ``x`` (and ``y``).

    Parameters
    ----------
    nodes:
        Mapping of pattern-node id to its label (search condition).
    edges:
        Iterable of ``(source, target, label)`` triples or
        :class:`PatternEdge` instances.
    x:
        The designated "potential customer" node; must be a key of *nodes*.
    y:
        The designated "item" node, or ``None`` for patterns that are not yet
        part of a GPAR (e.g. intermediate expansion states mine antecedents
        with both designated nodes, so in practice y is always given there).
    copies:
        Optional mapping of node id to a copy count ``C(u) >= 1``; ``k`` means
        the pattern stands for ``k`` sibling nodes with the same label and the
        same incident edges (the paper's succinct notation, e.g. "3 French
        restaurants").  Designated nodes must have count 1.

    Example
    -------
    >>> q = Pattern(
    ...     nodes={"x": "cust", "y": "restaurant"},
    ...     edges=[("x", "y", "like")],
    ...     x="x",
    ...     y="y",
    ... )
    >>> q.num_nodes, q.num_edges
    (2, 1)
    """

    __slots__ = (
        "_nodes", "_edges", "_copies", "x", "y", "_out", "_in",
        "_identity", "_hash", "_code", "_derived",
    )

    def __init__(
        self,
        nodes: Mapping[PatternNodeId, str],
        edges: Iterable[PatternEdge | tuple],
        x: PatternNodeId,
        y: PatternNodeId | None = None,
        copies: Mapping[PatternNodeId, int] | None = None,
    ) -> None:
        if not nodes:
            raise PatternError("a pattern must have at least one node")
        nodes = dict(nodes)
        normalized: list[PatternEdge] = []
        for item in edges:
            edge = item if isinstance(item, PatternEdge) else PatternEdge(*item)
            if edge.source not in nodes:
                raise PatternError(f"edge source {edge.source!r} is not a pattern node")
            if edge.target not in nodes:
                raise PatternError(f"edge target {edge.target!r} is not a pattern node")
            normalized.append(edge)
        if x not in nodes:
            raise PatternError(f"designated node x={x!r} is not a pattern node")
        if y is not None and y not in nodes:
            raise PatternError(f"designated node y={y!r} is not a pattern node")
        kept: dict[PatternNodeId, int] = {}
        for node, count in (copies or {}).items():
            if node not in nodes:
                raise PatternError(f"copy count given for unknown node {node!r}")
            if count < 1:
                raise PatternError(f"copy count for {node!r} must be >= 1, got {count}")
            if count > 1 and node in (x, y):
                raise PatternError("designated nodes cannot carry a copy count > 1")
            if count > 1:
                kept[node] = count
        edges = tuple(sorted(set(normalized), key=PatternEdge.sort_key))
        self._init(nodes, edges, x, y, kept)

    def _init(self, nodes, edges, x, y, copies, code=None) -> None:
        """Fill the slots from normalised parts: the one constructor every
        pattern goes through.  *edges* is a sorted, duplicate-free tuple over
        *nodes*; *copies* holds counts > 1 only; *code* is the canonical code
        if known."""
        self._nodes: dict[PatternNodeId, str] = nodes
        self._edges: tuple[PatternEdge, ...] = edges
        self.x = x
        self.y = y
        self._copies: dict[PatternNodeId, int] = copies
        # adjacency caches (pattern-level, before copy expansion)
        out: dict[PatternNodeId, list[PatternEdge]] = {node: [] for node in nodes}
        inc: dict[PatternNodeId, list[PatternEdge]] = {node: [] for node in nodes}
        for edge in edges:
            out[edge.source].append(edge)
            inc[edge.target].append(edge)
        self._out = out
        self._in = inc
        # Filled at first use; of these only the code is pickled.
        self._identity: tuple | None = None
        self._hash: int | None = None
        self._code: str | None = code
        self._derived: dict | None = None

    def __reduce__(self):
        return (_from_parts, (self._nodes, self._edges, self.x, self.y, self._copies, self._code))

    def derive(self, name: Hashable, factory: Callable[[Pattern], T]) -> T:
        """``factory(self)``, computed once per pattern object under *name*.

        The one memo for pure functions of a pattern: the value lives and
        dies with the object, so nothing is keyed by structure, bounded or
        cleared.  Concurrent first uses may both run *factory*; the values
        are equal and the last one stays.
        """
        memo = self._derived
        if memo is None:
            memo = self._derived = {}
        try:
            return memo[name]
        except KeyError:
            value = memo[name] = factory(self)
            return value

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of pattern nodes (before copy expansion)."""
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        """Number of pattern edges (before copy expansion)."""
        return len(self._edges)

    @property
    def size(self) -> tuple[int, int]:
        """The paper's ``|R| = (|Vp|, |Ep|)`` size measure."""
        return (self.num_nodes, self.num_edges)

    def nodes(self) -> Iterator[PatternNodeId]:
        """Iterate over pattern node ids."""
        return iter(self._nodes)

    def node_items(self) -> Iterator[tuple[PatternNodeId, str]]:
        """Iterate over ``(node, label)`` pairs."""
        return iter(self._nodes.items())

    def edges(self) -> tuple[PatternEdge, ...]:
        """All pattern edges (sorted, deduplicated)."""
        return self._edges

    def label(self, node: PatternNodeId) -> str:
        """Label (search condition) of a pattern node."""
        try:
            return self._nodes[node]
        except KeyError:
            raise PatternError(f"{node!r} is not a pattern node") from None

    def has_node(self, node: PatternNodeId) -> bool:
        """Whether *node* is a pattern node."""
        return node in self._nodes

    def has_edge(self, source: PatternNodeId, target: PatternNodeId, label: str) -> bool:
        """Whether the pattern contains the given labelled edge."""
        return PatternEdge(source, target, label) in self.derive("edge_set", lambda p: frozenset(p._edges))

    def copy_count(self, node: PatternNodeId) -> int:
        """``C(u)``: number of copies of *node* (1 unless set otherwise)."""
        if node not in self._nodes:
            raise PatternError(f"{node!r} is not a pattern node")
        return self._copies.get(node, 1)

    def copy_counts(self) -> dict[PatternNodeId, int]:
        """All copy counts > 1."""
        return dict(self._copies)

    def out_edges(self, node: PatternNodeId) -> list[PatternEdge]:
        """Out-edges of *node* in the pattern."""
        return list(self._out[node])

    def in_edges(self, node: PatternNodeId) -> list[PatternEdge]:
        """In-edges of *node* in the pattern."""
        return list(self._in[node])

    def neighbors(self, node: PatternNodeId) -> set[PatternNodeId]:
        """Undirected pattern neighbours of *node*."""
        result = {edge.target for edge in self._out[node]}
        result.update(edge.source for edge in self._in[node])
        return result

    # ------------------------------------------------------------------
    # derived patterns
    # ------------------------------------------------------------------
    def with_edge(
        self,
        source: PatternNodeId,
        target: PatternNodeId,
        label: str,
        source_label: str | None = None,
        target_label: str | None = None,
    ) -> "Pattern":
        """Return a new pattern with one more edge (and nodes if labels given)."""
        nodes = self._nodes
        for node, node_label in ((source, source_label), (target, target_label)):
            if node not in nodes:
                if node_label is None:
                    raise PatternError(f"new node {node!r} needs a label")
                nodes = {**nodes, node: node_label}
        edge = PatternEdge(source, target, label)
        edges = list(self._edges)
        if edge not in self._out.get(source, ()):
            bisect.insort(edges, edge, key=PatternEdge.sort_key)
        # Both dicts are shared, never mutated: patterns are immutable.
        return _from_parts(nodes, tuple(edges), self.x, self.y, self._copies)

    def expanded(self) -> "Pattern":
        """Materialise copy counts into explicit sibling nodes.

        A node ``u`` with ``C(u) = k`` becomes nodes ``u, (u, 2), ..., (u, k)``
        each carrying the same label and the same incident edges.  The result
        has all copy counts equal to 1 and is what the matchers operate on.
        The expanded pattern is computed once and cached.
        """
        return self.derive("expanded", Pattern._expand) if self._copies else self

    def _expand(self) -> "Pattern":
        nodes = dict(self._nodes)
        edges = list(self._edges)
        for node, count in self._copies.items():
            label = self._nodes[node]
            for index in range(2, count + 1):
                clone = (node, index)
                if clone in nodes:
                    raise PatternError(f"copy node id collision for {clone!r}")
                nodes[clone] = label
                for edge in self._out[node]:
                    edges.append(PatternEdge(clone, edge.target, edge.label))
                for edge in self._in[node]:
                    edges.append(PatternEdge(edge.source, clone, edge.label))
        return Pattern(nodes, edges, x=self.x, y=self.y)

    def to_graph(self, name: str = "pattern") -> Graph:
        """View the (copy-expanded) pattern as a :class:`Graph`.

        Pattern node labels become graph node labels, which lets the graph
        utilities (BFS, sketches) run on patterns unchanged.
        """
        expanded = self.expanded()
        graph = Graph(name=name)
        for node, label in expanded.node_items():
            graph.add_node(node, label)
        for edge in expanded.edges():
            graph.add_edge(edge.source, edge.target, edge.label)
        return graph

    # ------------------------------------------------------------------
    # equality / hashing
    # ------------------------------------------------------------------
    def _key(self) -> tuple:
        """Compute the structural key (once per object: ``__hash__`` keeps it)."""
        return (
            tuple(sorted((str(n), lbl) for n, lbl in self._nodes.items())),
            self._edges,
            tuple(sorted((str(n), c) for n, c in self._copies.items())),
            str(self.x),
            str(self.y) if self.y is not None else None,
        )

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Pattern):
            return NotImplemented
        return hash(self) == hash(other) and self._identity == other._identity

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            self._identity = self._key()
            value = self._hash = hash(self._identity)
        return value

    def __repr__(self) -> str:
        return (
            f"Pattern(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"x={self.x!r}, y={self.y!r})"
        )
