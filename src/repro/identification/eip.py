"""EIP problem definition, configuration and result types."""

from __future__ import annotations

import base64
import binascii
import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Hashable, Sequence

from repro.exceptions import IdentificationError
from repro.graph.graph import Graph
from repro.parallel.executor import BACKENDS, is_int, valid_pool_size
from repro.parallel.runtime import RunTimings
from repro.pattern.gpar import GPAR

NodeId = Hashable


@dataclass(frozen=True)
class EIPConfig:
    """Parameters of an entity-identification run.

    Attributes
    ----------
    eta:
        Confidence bound η > 0; only rules with ``conf(R, G) >= eta``
        contribute identified entities.
    num_workers:
        Number of fragments / processors n.
    seed:
        Partitioning tie-break seed (an ``int``, or ``None`` for an
        unseeded partition).
    backend:
        Execution backend: ``"sequential"`` (default) or ``"processes"``
        (real multi-core parallelism).  Both backends produce identical
        matches.
    executor_workers:
        Pool size (an ``int``) for the process backend; ``None`` sizes the
        pool to ``min(num_workers, cpu_count)``.
    """

    eta: float = 1.0
    num_workers: int = 4
    seed: int | None = 0
    backend: str = "sequential"
    executor_workers: int | None = None

    def __post_init__(self) -> None:
        if not self.eta > 0:  # also NaN, which no confidence reaches
            raise IdentificationError(f"eta must be > 0, got {self.eta}")
        if not is_int(self.num_workers) or self.num_workers < 1:
            raise IdentificationError(f"num_workers must be an int >= 1, got {self.num_workers!r}")
        if self.seed is not None and not is_int(self.seed):
            raise IdentificationError(f"seed must be an int or None, got {self.seed!r}")
        if self.backend not in BACKENDS:
            raise IdentificationError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if not valid_pool_size(self.executor_workers):
            raise IdentificationError(
                f"executor_workers must be an int >= 1, got {self.executor_workers!r}"
            )


@dataclass(frozen=True)
class AnswerEntry:
    """One (entity, rule) pair of a paginated EIP answer.

    ``rule_index`` is the rule's position in Σ (the order the rules were
    given to the run), so two runs over the same Σ enumerate entries in the
    same total order regardless of set iteration order.
    """

    entity: NodeId
    rule_index: int
    rule_name: str
    confidence: float

    def sort_key(self) -> tuple[str, int]:
        """Position in the answer's total order (and what a cursor encodes)."""
        return (str(self.entity), self.rule_index)

    def as_dict(self) -> dict:
        """JSON-friendly form (entity rendered as a string)."""
        confidence = self.confidence
        return {
            "entity": str(self.entity),
            "rule_index": self.rule_index,
            "rule": self.rule_name,
            "confidence": "inf" if math.isinf(confidence) else round(confidence, 9),
        }


@dataclass(frozen=True)
class AnswerPage:
    """One page of a paginated EIP answer (see :meth:`EIPResult.pages`)."""

    entries: tuple[AnswerEntry, ...]
    next_cursor: str | None
    total: int

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def _encode_cursor(payload: list) -> str:
    """Opaque, URL-safe cursor encoding (stable across processes)."""
    raw = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    return base64.urlsafe_b64encode(raw).decode("ascii")


def _decode_cursor(cursor: str, first: tuple, second: tuple) -> list:
    """The ``[a, b]`` pair *cursor* encodes, ``type(a)`` in *first* and ``type(b)``
    in *second* (exact types: a bool or a float is no int); otherwise
    :class:`IdentificationError`."""
    try:
        raw = base64.urlsafe_b64decode(cursor.encode("ascii"))
        payload = json.loads(raw.decode("utf-8"))
    except (ValueError, binascii.Error, UnicodeDecodeError) as exc:
        raise IdentificationError(f"malformed answer cursor {cursor!r}") from exc
    if (
        not isinstance(payload, list)
        or len(payload) != 2
        or type(payload[0]) not in first
        or type(payload[1]) not in second
    ):
        raise IdentificationError(f"malformed answer cursor {cursor!r}")
    return payload


@dataclass
class EIPResult:
    """Output of an EIP run."""

    identified: set = field(default_factory=set)
    rule_confidences: dict[GPAR, float] = field(default_factory=dict)
    rule_matches: dict[GPAR, frozenset] = field(default_factory=dict)
    accepted_rules: list[GPAR] = field(default_factory=list)
    timings: RunTimings = field(default_factory=RunTimings)
    candidates_examined: int = 0
    #: Prefix-trie pool applications across all fragments; > 0 proves rules
    #: of Σ actually shared antecedent-prefix match sets.
    prefix_pool_hits: int = 0
    #: ``(entries, their sort keys)`` in the total order, filled by the first
    #: paginated read: a result is not mutated once it is published, and a
    #: concurrent first read computes the same pair.
    _ordered: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def confidence_of(self, rule: GPAR) -> float:
        """Global confidence computed for *rule* (KeyError if unknown)."""
        return self.rule_confidences[rule]

    # ------------------------------------------------------------------
    # pagination
    # ------------------------------------------------------------------
    def _ordered_entries(self) -> tuple[tuple[AnswerEntry, ...], list[tuple[str, int]]]:
        ordered = self._ordered
        if ordered is None:
            order = {rule: index for index, rule in enumerate(self.rule_confidences)}
            entries = [
                AnswerEntry(
                    entity=entity,
                    rule_index=order[rule],
                    rule_name=rule.name,
                    confidence=self.rule_confidences[rule],
                )
                for rule in self.accepted_rules
                for entity in self.rule_matches.get(rule, frozenset())
            ]
            entries.sort(key=AnswerEntry.sort_key)
            ordered = self._ordered = (tuple(entries), [entry.sort_key() for entry in entries])
        return ordered

    def answer_entries(self) -> list[AnswerEntry]:
        """Every (entity, accepted rule) pair in the deterministic total order.

        The order is ``(str(entity id), rule index in Σ)``; set iteration
        order never leaks into it, so two byte-identical results enumerate
        byte-identical entry sequences (the property the paginated serving
        layer and its consistency tests rely on).
        """
        return list(self._ordered_entries()[0])

    def pages(self, cursor: str | None = None, limit: int = 100) -> AnswerPage:
        """One page of the answer, resuming after an opaque *cursor*.

        Entries are the ``(entity, rule)`` pairs of every accepted rule's
        match set, in the deterministic ``(entity id, rule index)`` order of
        :meth:`answer_entries`, sorted once per result.  The returned
        ``next_cursor`` encodes the last entry's sort key (not an offset), so
        a page sequence is stable under re-enumeration; ``None`` marks the
        final page.  Raises :class:`IdentificationError` on a malformed cursor.
        """
        if limit < 1:
            raise IdentificationError(f"page limit must be >= 1, got {limit}")
        entries, keys = self._ordered_entries()
        start = 0
        if cursor is not None:
            last_entity, last_index = _decode_cursor(cursor, (str,), (int,))
            # First entry strictly after the cursor's key.
            start = bisect_right(keys, (last_entity, last_index))
        page = entries[start : start + limit]
        next_cursor = None
        if start + limit < len(entries) and page:
            next_cursor = _encode_cursor(list(page[-1].sort_key()))
        return AnswerPage(entries=page, next_cursor=next_cursor, total=len(entries))

    def summary(self) -> str:
        """Human-readable run summary used by examples."""
        lines = [
            f"identified {len(self.identified)} potential customers "
            f"from {len(self.rule_confidences)} rules "
            f"({len(self.accepted_rules)} above the confidence bound)"
        ]
        for rule in self.accepted_rules:
            confidence = self.rule_confidences[rule]
            conf = "inf" if math.isinf(confidence) else f"{confidence:.3f}"
            lines.append(
                f"  {rule.name}: conf={conf} matches={len(self.rule_matches[rule])}"
            )
        return "\n".join(lines)


def _shared_predicate(rules: Sequence[GPAR]) -> GPAR:
    """Validate that all rules pertain to the same predicate; return one of them."""
    if not rules:
        raise IdentificationError("EIP needs at least one GPAR")
    first = rules[0]
    signature = (first.x_label, first.consequent_label, first.y_label)
    for rule in rules[1:]:
        if (rule.x_label, rule.consequent_label, rule.y_label) != signature:
            raise IdentificationError(
                "all GPARs in Σ must pertain to the same predicate q(x, y); "
                f"{rule.name} differs from {first.name}"
            )
    return first


def identify_entities(
    graph: Graph,
    rules: Sequence[GPAR],
    eta: float = 1.0,
    num_workers: int = 4,
    algorithm: str = "match",
    seed: int = 0,
    backend: str = "sequential",
    executor_workers: int | None = None,
) -> EIPResult:
    """Solve EIP with the named algorithm (``match``, ``matchc`` or ``disvf2``)."""
    from repro.identification.disvf2 import DisVF2
    from repro.identification.match import Match
    from repro.identification.matchc import MatchC

    config = EIPConfig(
        eta=eta,
        num_workers=num_workers,
        seed=seed,
        backend=backend,
        executor_workers=executor_workers,
    )
    algorithms = {"match": Match, "matchc": MatchC, "disvf2": DisVF2}
    try:
        implementation = algorithms[algorithm.lower()]
    except KeyError:
        raise IdentificationError(
            f"unknown algorithm {algorithm!r}; expected one of {sorted(algorithms)}"
        ) from None
    return implementation(config).identify(graph, list(rules))
