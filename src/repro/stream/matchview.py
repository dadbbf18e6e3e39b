"""Maintained match sets: ``Q(x, G)`` kept current under graph updates.

:class:`MaintainedMatchView` is the matcher-level face of the streaming
subsystem (the identifier in :mod:`repro.stream.identifier` is the
algorithm-level one): it materializes the match sets of a fixed pattern
family once — embeddings included, via the incremental
:class:`~repro.matching.incremental.MatchStore` — and after every update
batch repairs them with :meth:`MatchStore.repair` instead of re-matching.
Only centres within a pattern's repair radius of a touched node are
re-decided; everyone else's verdict (and lazily suspended embedding
stream) carries over untouched.

This is what the ``stream`` bench-smoke family measures head-to-head
against from-scratch re-matching.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.exceptions import StreamError
from repro.graph.columnar import columnar_view
from repro.graph.graph import Graph
from repro.matching.incremental import DeltaMatcher, MatchStore
from repro.pattern.pattern import Pattern
from repro.stream.updates import UpdateBatch

NodeId = Hashable


class MaintainedMatchView:
    """Keep ``pattern -> match set`` current across update batches.

    Parameters
    ----------
    graph:
        The live graph; mutate it through :meth:`apply` (or apply batches
        externally and call :meth:`refresh`).
    patterns:
        The pattern family to maintain.  Patterns the matcher cannot
        enumerate embeddings for are rejected up front — this view exists
        to exercise the repair path, not the silent-fallback one.
    matcher:
        An enumerating anchored matcher (VF2, guided).
    config:
        Optional :class:`repro.stream.StreamConfig`; when given, the
        graph's bounded delta log is resized to its ``delta_log_size`` so
        the repair horizon of :meth:`MatchStore.repair` is tunable per run.
    """

    def __init__(
        self,
        graph: Graph,
        patterns: Sequence[Pattern],
        matcher,
        config=None,
    ) -> None:
        self.graph = graph
        self.matcher = matcher
        self.config = config
        if config is not None:
            config.apply_to_graph(graph)
        self.patterns = list(patterns)
        # The view keeps *graph* resident for its whole life, so it compiles
        # the resident structure the way an executor does for a fragment;
        # the matcher then probes it, and refreshes patch it per batch.
        columnar_view(graph)
        self.store = MatchStore(graph)
        self._delta = DeltaMatcher(graph, matcher, self.store)
        for pattern in self.patterns:
            if not self._delta.supports(pattern):
                raise StreamError(
                    f"pattern {pattern!r} cannot be maintained: the matcher "
                    "does not enumerate embeddings (or the pattern has copy "
                    "counts)"
                )
        self._materialize_all()

    def _materialize_all(self) -> None:
        for pattern in self.patterns:
            candidates = sorted(
                self.graph.nodes_with_label(pattern.label(pattern.x)), key=str
            )
            self._delta.materialize(pattern, candidates)

    # ------------------------------------------------------------------
    def apply(self, batch: UpdateBatch) -> None:
        """Apply *batch* to the graph, then repair the maintained sets."""
        batch.apply(self.graph)
        self.refresh()

    def refresh(self) -> None:
        """Repair every maintained entry; re-materialize any that dropped."""
        self.store.repair(self.matcher)
        for pattern in self.patterns:
            if self.store.get(pattern) is None:
                candidates = sorted(
                    self.graph.nodes_with_label(pattern.label(pattern.x)), key=str
                )
                self._delta.materialize(pattern, candidates)

    def match_set(self, pattern: Pattern) -> frozenset:
        """Current ``Q(x, G)`` of *pattern* over its full label bucket."""
        entry = self.store.get(pattern)
        if entry is None:
            raise StreamError(
                f"pattern {pattern!r} is not maintained by this view"
            )
        # Entries repaired across updates may have rechecked centres beyond
        # the original candidate pool; restrict to the current bucket.
        return frozenset(
            entry.matches & self.graph.nodes_with_label(pattern.label(pattern.x))
        )
