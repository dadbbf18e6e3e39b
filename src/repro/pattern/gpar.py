"""Graph-pattern association rules (GPARs), paper Section 2.2.

A GPAR ``R(x, y): Q(x, y) ⇒ q(x, y)`` consists of

* an antecedent pattern ``Q`` with designated nodes ``x`` and ``y``;
* a consequent predicate ``q(x, y)`` — a single edge labelled ``q`` from
  ``x`` to ``y`` carrying the same search conditions as in ``Q``.

The rule is modelled as the pattern ``PR`` obtained by adding the consequent
edge to ``Q``.  A practical, nontrivial GPAR must satisfy:

1. ``PR`` is connected;
2. ``Q`` is non-empty (has at least one edge);
3. ``q(x, y)`` does not already appear in ``Q``.
"""

from __future__ import annotations

from functools import cached_property

from repro.exceptions import InvalidGPARError
from repro.pattern.pattern import Pattern, PatternEdge
from repro.pattern.radius import is_connected, pattern_radius


class GPAR:
    """A graph-pattern association rule ``Q(x, y) ⇒ q(x, y)``.

    Parameters
    ----------
    antecedent:
        The pattern ``Q`` — must designate both ``x`` and ``y``.
    consequent_label:
        The edge label ``q`` of the consequent predicate.
    name:
        Optional identifier used in reports (e.g. ``"R1"``).
    validate:
        When ``True`` (default) the nontriviality conditions above are
        enforced at construction time.

    Example
    -------
    >>> from repro.pattern import PatternBuilder
    >>> q = (
    ...     PatternBuilder()
    ...     .node("x", "cust").node("x2", "cust").node("y", "album")
    ...     .undirected_edge("x", "x2", "friend")
    ...     .edge("x2", "y", "like")
    ...     .designate(x="x", y="y")
    ...     .build()
    ... )
    >>> rule = GPAR(q, consequent_label="like", name="R")
    >>> rule.consequent_label
    'like'
    """

    # ``__dict__`` holds the cached properties; like ``_hash`` they are
    # derived, so ``__reduce__`` leaves them behind (see repro.pattern.pattern).
    __slots__ = ("antecedent", "consequent_label", "name", "_hash", "__dict__")

    def __init__(
        self,
        antecedent: Pattern,
        consequent_label: str,
        name: str | None = None,
        validate: bool = True,
    ) -> None:
        if antecedent.y is None:
            raise InvalidGPARError("the antecedent must designate both x and y")
        self.antecedent = antecedent
        self.consequent_label = consequent_label
        self.name = name or f"GPAR[{consequent_label}]"
        self._hash: int | None = None
        if validate:
            self._validate()

    def __reduce__(self):
        return (GPAR, (self.antecedent, self.consequent_label, self.name, False))

    def _validate(self) -> None:
        if self.antecedent.num_edges == 0:
            raise InvalidGPARError("the antecedent Q must contain at least one edge")
        if self.antecedent.has_edge(self.antecedent.x, self.antecedent.y, self.consequent_label):
            raise InvalidGPARError(
                "the consequent edge q(x, y) must not appear in the antecedent Q"
            )
        if not is_connected(self.pr_pattern()):
            raise InvalidGPARError("the rule pattern PR must be connected")

    # ------------------------------------------------------------------
    # designated nodes and derived patterns
    # ------------------------------------------------------------------
    @property
    def x(self):
        """The designated potential-customer node of the rule."""
        return self.antecedent.x

    @property
    def y(self):
        """The designated item node of the rule."""
        return self.antecedent.y

    @property
    def x_label(self) -> str:
        """Search condition on x (e.g. ``cust``)."""
        return self.antecedent.label(self.antecedent.x)

    @property
    def y_label(self) -> str:
        """Search condition on y (possibly a value binding such as ``fake``)."""
        return self.antecedent.label(self.antecedent.y)

    @cached_property
    def _pr(self) -> Pattern:
        return self.antecedent.with_edge(self.antecedent.x, self.antecedent.y, self.consequent_label)

    def pr_pattern(self) -> Pattern:
        """``PR``: the antecedent extended with the consequent edge."""
        return self._pr

    def q_pattern(self) -> Pattern:
        """``Pq``: the single-edge pattern ``x --q--> y``.

        Carries the same search conditions on x and y as the antecedent, so
        value bindings (e.g. ``y = fake``) are preserved.
        """
        return Pattern(
            nodes={self.x: self.x_label, self.y: self.y_label},
            edges=[PatternEdge(self.x, self.y, self.consequent_label)],
            x=self.x,
            y=self.y,
        )

    @cached_property
    def radius(self) -> int:
        """``r(PR, x)``: radius of the rule pattern at the designated node x."""
        return pattern_radius(self.pr_pattern(), self.x)

    @cached_property
    def verification_radius(self) -> int:
        """Ball radius needed to verify both PR *and* the antecedent Q at x.

        ``r(Q, x)`` can exceed ``r(PR, x)``: the consequent edge shortens the
        distance from x to y inside PR, but counting ``supp(Qq̄)`` requires
        matching the antecedent alone, whose x-reachable part may be deeper.
        Nodes of Q not reachable from x at all (a "free" y) do not constrain
        the radius — they are matched against the label index.
        """
        antecedent_graph = self.antecedent.to_graph()
        from repro.graph.neighborhood import eccentricity

        reachable_depth = eccentricity(antecedent_graph, self.antecedent.x)
        return max(self.radius, reachable_depth)

    @property
    def size(self) -> tuple[int, int]:
        """``|R| = (|Vp|, |Ep|)`` of the rule pattern PR."""
        return self.pr_pattern().size

    # ------------------------------------------------------------------
    # equality / hashing (structural, name-insensitive)
    # ------------------------------------------------------------------
    def _key(self) -> tuple:
        return (self.antecedent, self.consequent_label)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, GPAR):
            return NotImplemented
        return hash(self) == hash(other) and self._key() == other._key()

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash(self._key())
        return value

    def __repr__(self) -> str:
        nodes, edges = self.size
        return (
            f"GPAR(name={self.name!r}, consequent={self.consequent_label!r}, "
            f"|Vp|={nodes}, |Ep|={edges}, radius={self.radius})"
        )

    def describe(self) -> str:
        """Multi-line human-readable description used by examples and reports."""
        lines = [f"{self.name}: Q(x, y) => {self.consequent_label}(x, y)"]
        lines.append(f"  x: {self.x!r} ({self.x_label})   y: {self.y!r} ({self.y_label})")
        lines.append("  antecedent edges:")
        for edge in self.antecedent.edges():
            source_label = self.antecedent.label(edge.source)
            target_label = self.antecedent.label(edge.target)
            copies = self.antecedent.copy_count(edge.target)
            suffix = f" (x{copies})" if copies > 1 else ""
            lines.append(
                f"    {edge.source!r}[{source_label}] --{edge.label}--> "
                f"{edge.target!r}[{target_label}]{suffix}"
            )
        return "\n".join(lines)
