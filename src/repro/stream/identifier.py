"""Streaming entity identification: keep an EIP answer correct under updates.

A :class:`StreamingIdentifier` runs one full ``Match`` verification when
constructed and then maintains the resulting
:class:`~repro.identification.eip.EIPResult` across
:class:`~repro.stream.updates.UpdateBatch` applications by repairing, not
recomputing:

* the identifier applies the batch to its graph (one version tick);
* it finds the (pattern, centre) pairs a change can reach along that
  pattern's paths (:func:`reachable_centres`) — every other stored verdict
  is provably unchanged (see ``docs/streaming.md``);
* it re-verifies exactly those pairs, in process, over the graph itself and
  its one resident :class:`~repro.graph.columnar.ColumnarFragment`, which
  patches itself forward from the graph's recorded deltas, with a kept
  :class:`~repro.matching.guided.GuidedMatcher` whose witnesses survive
  between ticks;
* it splices the partial report into its one stored report, so
  :attr:`result` is at all times exactly what a from-scratch run on the
  current graph would return.  A tick whose verify or merge raises is
  recovered in the same call by re-verifying every centre, as opening does.

The graph is not partitioned: fragments exist so that the paper's batch
``Match`` and ``DMine`` run in parallel (:mod:`repro.partition`), and one
process verifying a tick gains nothing from them.

Rules whose antecedent is disconnected — the usual shape of DMine-mined
rules — are maintained too: the connected x-component is verified
ball-locally as usual, and the free part is checked against the whole
graph.  Isolated free nodes (the mined free-``y``
shape) use the **global label census** (the feasibility condition
``count(L) >= #antecedent nodes labelled L`` for each free label, exact for
injective label-equality matching); free components that carry edges use
the **component census** — per-shape embedding enumeration with an exact
per-centre fallback (see :mod:`repro.identification.census`).  The
maintained answer for such rules follows whole-graph matching semantics and
agrees with :func:`repro.identification.eip.identify_entities`, which
routes through the same census; see ``docs/streaming.md`` and
``docs/adversarial.md``.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from contextlib import contextmanager
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Hashable, Sequence

from repro.exceptions import StreamError
from repro.graph.columnar import columnar_view
from repro.graph.graph import Graph, GraphDelta
from repro.graph.neighborhood import multi_source_ball
from repro.identification.census import (
    CensusMatcher,
    apply_census,
    max_verification_radius,
    plan_census,
)
from repro.identification.eip import EIPConfig, EIPResult, Verdicts, _shared_predicate, assemble
from repro.identification.match import Match
from repro.matching.base import WitnessStore
from repro.matching.guided import GuidedMatcher
from repro.matching.multi import trie_patterns
from repro.obs.registry import registry
from repro.obs.tracing import span
# Bound here only because the repo benchmark's wrap table
# (benchmarks/e2e/wraps.py) names ``repro.stream.identifier.partition_graph``;
# nothing in this module calls it.  ROADMAP 1(c) retargets that table and
# deletes this import.
from repro.partition.partitioner import partition_graph  # noqa: F401
from repro.pattern.gpar import GPAR
from repro.pattern.pattern import Pattern, PatternEdge
from repro.stream.updates import UpdateBatch

__all__ = [
    "CensusMatcher",
    "RuleAdmissionReport",
    "StreamUpdateReport",
    "StreamingIdentifier",
]

NodeId = Hashable


@dataclass
class StreamUpdateReport:
    """What one :meth:`StreamingIdentifier.apply` did (measurement surface)."""

    delta: GraphDelta
    #: Centres re-verified for at least one pattern.
    rechecked_centers: int = 0
    #: (pattern, centre) pairs re-verified: antecedents and PRs.
    verifications: int = 0
    wall_time: float = 0.0

    def as_row(self) -> str:
        """One-line human-readable summary used by the CLI."""
        return (
            f"touched={len(self.delta.touched)} rechecked={self.rechecked_centers} "
            f"verifications={self.verifications} wall={self.wall_time:.3f}s"
        )


@dataclass
class RuleAdmissionReport:
    """What one :meth:`StreamingIdentifier.admit_rules` backfill did."""

    admitted: tuple[GPAR, ...] = ()
    backfill_centers: int = 0
    wall_time: float = 0.0


def _centres(antecedents: dict, prs: dict, classify=()) -> set:
    """Every centre a ``recheck`` names."""
    return set(classify).union(*antecedents.values(), *prs.values())


def walk_index(patterns: dict) -> tuple[dict, dict]:
    """Σ's walks back to x, indexed by the label a change starts from.

    Each node u of the connected, expanded *patterns* (``{key: pattern}``)
    gets one shortest x→u path, kept as the steps back from u: ``(edge
    label, edge points towards u, label stepped to)``.  Returns ``{edge
    label: {(source label, path, target label, path): keys}}`` and ``{node
    label: {path: keys}}``, so patterns sharing a walk look it up once.
    """
    edge_walks: dict = {}
    node_walks: dict = {}
    for key, pattern in patterns.items():
        paths, queue = {pattern.x: ()}, [pattern.x]
        for node in queue:  # breadth first: the queue grows as it is read
            for edge in sorted(pattern.out_edges(node) + pattern.in_edges(node), key=PatternEdge.sort_key):
                other = edge.target if edge.source == node else edge.source
                if other not in paths:
                    paths[other] = ((edge.label, edge.source == node, pattern.label(node)),) + paths[node]
                    queue.append(other)
        for node, path in paths.items():
            node_walks.setdefault(pattern.label(node), {}).setdefault(path, []).append(key)
        for edge in pattern.edges():
            ends = (pattern.label(edge.source), paths[edge.source], pattern.label(edge.target), paths[edge.target])
            edge_walks.setdefault(edge.label, {}).setdefault(ends, []).append(key)
    return edge_walks, node_walks


def reachable_centres(graph: Graph, delta: GraphDelta, walks: tuple, q_label) -> tuple:
    """``({key: gained}, {key: lost}, lcwa)`` for one tick (docs/streaming.md).

    *gained* / *lost* hold the centres reached by walking back along the
    paths of *walks* (:func:`walk_index`) from each added / removed edge
    (from both its ends) and each added / removed node or label, over the
    post-batch graph plus the removed edges, memoised by (node, path).
    *lcwa* holds the centres whose LCWA class may have moved: tails of
    changed ``q`` edges and ``q``-in-neighbours of relabelled or removed nodes.
    """
    edge_walks, node_walks = walks
    labels = graph._labels
    gone: dict[tuple, list] = {}
    for source, target, label in delta.removed_edges:
        gone.setdefault((target, label, True), []).append(source)
        gone.setdefault((source, label, False), []).append(target)

    def step(node, label, forward):
        near = (graph._in if forward else graph._out).get(node)
        near = near.get(label, ()) if near else ()
        extra = gone.get((node, label, forward))
        return near if extra is None else [*near, *extra]

    memo: dict[tuple, set] = {}

    def back(node, path) -> set:
        found = memo.get((node, path))
        if found is None:
            found = {node}
            for label, forward, want in path:
                found = {other for here in found for other in step(here, label, forward) if labels.get(other) == want}
            memo[(node, path)] = found
        return found

    added = [(node, labels[node]) for node in delta.added_nodes | delta.relabeled_nodes]
    gained: dict = defaultdict(set)
    lost: dict = defaultdict(set)
    for found, edges, nodes in (
        (gained, delta.added_edges, added),
        (lost, delta.removed_edges, delta.old_labels),
    ):
        for source, target, label in edges:
            for (source_label, source_path, target_label, target_path), keys in edge_walks.get(label, {}).items():
                if labels.get(source) == source_label and labels.get(target) == target_label:
                    reach = back(source, source_path) & back(target, target_path)
                    for key in keys if reach else ():
                        found[key] |= reach
        for node, label in nodes:
            for path, keys in node_walks.get(label, {}).items():
                reach = back(node, path)
                for key in keys if reach else ():
                    found[key] |= reach
    lcwa = {edge[0] for edge in delta.added_edges | delta.removed_edges if edge[2] == q_label}
    for node in delta.relabeled_nodes | delta.removed_nodes:
        lcwa.update(step(node, q_label, True))
    return gained, lost, lcwa


# ----------------------------------------------------------------------
# checkpoint files
# ----------------------------------------------------------------------
#: Keys every stream-state checkpoint carries; a shared core's checkpoint
#: (:meth:`repro.api.SharedSessionCore.save_state`) is a superset.  Files
#: written while sessions were partitioned also carry a ``manager`` (the
#: fragments' residency), which restore ignores.
CHECKPOINT_KEYS = frozenset(
    {
        "graph",
        "rules",
        "config",
        "reports",
        "batches_applied",
    }
)


class _CanonicalPickler(pickle._Pickler):
    """Pickles every set in ``str`` order, so no hash seed reaches the bytes.

    The pure-Python pickler: the C one writes sets without consulting
    ``reducer_override``.
    """

    def reducer_override(self, obj):
        if type(obj) in (set, frozenset):
            return type(obj), (sorted(obj, key=str),)
        return NotImplemented


def write_checkpoint(path: Path, state: dict) -> Path:
    """Pickle *state* to *path* so a crash never leaves a torn file there.

    The bytes go to a sibling temp file, are flushed and fsynced, and only
    then renamed over *path*: a reader sees the previous checkpoint or the
    complete new one, and a failed dump leaves the previous one untouched.
    Sets are written in ``str`` order, so equal states write equal bytes
    under any ``PYTHONHASHSEED``.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = path.with_name(path.name + ".tmp")
    try:
        with open(scratch, "wb") as handle:
            _CanonicalPickler(handle).dump(state)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(scratch, path)
    except BaseException:
        scratch.unlink(missing_ok=True)
        raise
    return path


class _Retired:
    """What a retired class pickled in older checkpoints loads as.

    The ``StreamConfig`` thresholds are module constants now, and the
    fragment lifecycle's slices and snapshots (``manager``) describe
    fragments sessions no longer keep: restore ignores both.
    """


_RETIRED = {
    ("repro.stream.config", "StreamConfig"),
    ("repro.partition.lifecycle", "FragmentUpdate"),
    ("repro.partition.lifecycle", "FragmentCheckpoint"),
}

#: Renamed classes: older checkpoints pickled the verdict record under the
#: batch solver's private name, with counts beside its sets that
#: :meth:`StreamingIdentifier.from_state` never reads.
_RENAMED = {("repro.identification.matchc", "_FragmentReport"): Verdicts}


class _CheckpointUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str):
        if (module, name) in _RETIRED:
            return _Retired
        return _RENAMED.get((module, name)) or super().find_class(module, name)


def read_checkpoint(path: Path | str) -> dict:
    """Load a checkpoint dict; anything but a complete one is a :class:`StreamError`.

    Unpickling a truncated or foreign file can raise nearly anything
    (``EOFError``, ``UnpicklingError``, ``AttributeError``, ...); all of it
    — and a well-formed pickle of the wrong shape or ``format`` — surfaces as
    one error naming the path, before any state is built from it.
    """
    try:
        with open(path, "rb") as handle:
            state = _CheckpointUnpickler(handle).load()
    except OSError:
        raise
    except Exception as exc:
        raise StreamError(
            f"stream-state checkpoint {path} is truncated or not a checkpoint "
            f"({type(exc).__name__}: {exc})"
        ) from exc
    if (
        not isinstance(state, dict)
        or state.get("format") != 1
        or not CHECKPOINT_KEYS <= state.keys()
    ):
        raise StreamError(f"unsupported stream-state format in {path}")
    return state


class StreamingIdentifier:
    """Maintain ``Σ(x, G, η)`` across graph update batches.

    Parameters
    ----------
    graph:
        The live data graph.  The identifier takes over mutation: apply
        updates through :meth:`apply` (arbitrary direct mutations between
        batches are detected and rejected, not silently mis-served).
    rules:
        The rule set Σ.  Connected antecedents are maintained ball-locally;
        antecedents whose only disconnection is isolated free nodes (the
        mined free-``y`` shape) are maintained via the global label census;
        disconnected components that carry edges are maintained via the
        component census (exact, whole-graph semantics —
        see :mod:`repro.identification.census`).
    config:
        Standard :class:`~repro.identification.eip.EIPConfig`.  Verification
        runs ``Match`` in this process; ``num_workers``, ``backend`` and
        ``executor_workers`` steer only :meth:`recompute`, the batch
        baseline.  ``Matchc`` and disVF2 are batch-only baselines.

    Use as a context manager, or call :meth:`close` to stop accepting writes.
    """

    def __init__(
        self,
        graph: Graph,
        rules: Sequence[GPAR],
        config: EIPConfig | None = None,
        radius_floor: int = 0,
    ) -> None:
        self.graph = graph
        self.rules = tuple(rules)
        self.config = config if config is not None else EIPConfig()
        # Floor on the verification radius, so a later admit_rules() can
        # bring rules up to it.  admit/retire raise the floor to the pinned
        # radius: the d-hop recheck region never shrinks under live verdicts.
        self.radius_floor = radius_floor
        self._prepare_rules()
        self.batches_applied = 0
        self._open()
        with span("stream.initial_verify"):
            self._report = self._verify(self.rules, None)
        self._graph_version = graph.version

    # ------------------------------------------------------------------
    # construction helpers (shared with restore())
    # ------------------------------------------------------------------
    def _prepare_rules(self) -> None:
        """Validate Σ; derive solver, predicate, radius and census plans."""
        self._solver = Match(self.config)
        representative = _shared_predicate(list(self.rules))
        self.predicate = representative.q_pattern()
        self.x_label = representative.x_label
        # One census plan shared (by construction) with the static solvers:
        # the verify checks x-components via CensusMatcher substitution, the
        # global half applies at assembly time.  PR = the
        # antecedent + the q(x, y) edge, so a free y reattaches in PR while
        # any other free part census-splits PR too; rule.verification_radius
        # — which needs a connected PR — is replaced by the x-reachable
        # depths of both x-components (RuleCensus.depth).
        self._census_plan = plan_census(self.rules)
        self._census_parts: dict[GPAR, Pattern] = {
            entry.rule: entry.part for entry in self._census_plan.entries
        }
        self._census_pairs = self._census_plan.substitutions
        self.max_radius = max(
            max_verification_radius(self.rules, self._census_plan),
            self.radius_floor,
        )
        # Rules with copies or a census-split part recheck the d-hop region.
        self._q_label = self.predicate.edges()[0].label
        walked = {
            (kind, index): pattern.expanded()
            for index, rule in enumerate(self.rules)
            if rule not in self._census_plan.rules and not rule.antecedent.copy_counts()
            for kind, pattern in enumerate((rule.antecedent, rule.pr_pattern()))
        }
        self._walked = frozenset(walked)
        self._walks = walk_index(walked)

    def _open(self) -> None:
        """Compile the graph's resident structure and a witness-keeping matcher."""
        self._view = columnar_view(self.graph)
        # Ticks re-verify the same (centre, pattern) pairs, so the matcher
        # keeps its witnesses (validated on use — a cold store only means
        # "search"); the store is only bounded, to live patterns x centres.
        self._matcher = GuidedMatcher()
        self._matcher.witnesses = WitnessStore()
        self._closed = False
        self._result: EIPResult | None = None  # assembled on read, see result
        # apply() is not re-entrant: it mutates the graph and the stored
        # report in sequence, so a second concurrent call would interleave
        # half-applied ticks.  The guard is non-blocking — concurrent writers
        # are a caller bug (serialize through repro.api.Session.apply), not
        # something to silently queue.
        self._apply_guard = threading.Lock()

    def _verify(
        self, rules: tuple[GPAR, ...], recheck: tuple | None, census: tuple | None = None
    ) -> Verdicts:
        """One ``Match`` verification of *rules* over the graph: every centre
        when *recheck* is ``None``, else the pairs it names —
        ``({rule index: centres}, {rule index: centres}, centres)`` for the
        antecedents and the PRs of ``rules``, and the centres whose LCWA
        class alone is recomputed.  *census* (census substitutions covering
        *rules*) defaults to Σ's."""
        if self._view.is_stale:
            with span("stream.worker.index_refresh"):
                self._view.refresh()
        matcher = self._matcher
        census = self._census_pairs if census is None else census
        if census:
            matcher = CensusMatcher(matcher, dict(census))
        if recheck is None:
            centres, pools = self.graph.nodes_with_label(self.x_label), None
        else:
            centres, pools = _centres(*recheck), recheck[:2]
        with span("stream.worker.verify", centers=len(centres)):
            return self._solver._verify_fragment(self.graph, centres, rules, matcher, self.predicate, pools)

    def _assemble(self) -> EIPResult:
        # The maintained report holds x-part verdicts; the census rewrites
        # them to whole-graph verdicts on a *copy*, so a census that becomes
        # satisfiable again on a later tick re-reads the intact x-part sets.
        reports = apply_census(self.graph, self.rules, [self._report], self._census_plan)
        return assemble(self.rules, reports, self.config.eta)

    def check_current(self) -> None:
        """Raise unless the stored verdicts describe the graph's current state."""
        if self._report is None:
            raise StreamError(
                "this StreamingIdentifier closed after a tick it could not "
                "recover; build a fresh one"
            )
        if self.graph.version != self._graph_version:
            raise StreamError(
                "the graph was mutated outside StreamingIdentifier.apply(); "
                "the maintained state no longer describes it — close this "
                "identifier and build a fresh one"
            )

    @contextmanager
    def _writing(self):
        """Hold the (non-blocking) write guard; check what every write needs."""
        if not self._apply_guard.acquire(blocking=False):
            raise StreamError(
                "another apply()/admit_rules()/retire_rules() is already in "
                "progress on this StreamingIdentifier; writes must be "
                "serialized (use repro.api, which queues them)"
            )
        try:
            if self._closed:
                raise StreamError("this StreamingIdentifier is closed")
            self.check_current()
            yield
        finally:
            self._apply_guard.release()

    @property
    def result(self) -> EIPResult:
        """The maintained EIP answer for the graph's current state.

        Assembled from the stored verdicts on first read and
        memoised until the next write (``apply`` / ``admit_rules`` /
        ``retire_rules`` drop the memo), so a tick whose union answer nobody
        reads — every session reads its own projection — never pays for it.
        """
        self.check_current()
        if self._result is None:
            self._result = self._assemble()
        return self._result

    # ------------------------------------------------------------------
    def apply(self, batch: UpdateBatch) -> StreamUpdateReport:
        """Apply *batch* to the graph and repair the maintained answer.

        Not re-entrant: a second concurrent call (another thread driving the
        same identifier) raises :class:`StreamError` instead of interleaving
        ticks.  Serialize writers through :class:`repro.api.Session`.  A tick
        whose verify or merge raises re-verifies every centre instead
        (counted in ``repro_stream_recovered_ticks_total``); if that raises
        too, the identifier closes and this call, and every later read and
        write, raises :class:`StreamError`.
        """
        with self._writing(), span("stream.tick", tick=self.batches_applied + 1):
            return self._apply_locked(batch)

    def _apply_locked(self, batch: UpdateBatch) -> StreamUpdateReport:
        started = time.perf_counter()
        with span("stream.apply_batch") as batch_span:
            delta = batch.apply(self.graph)
            batch_span.set(touched=len(delta.touched))
        report = StreamUpdateReport(delta=delta)
        self._graph_version = self.graph.version
        self.batches_applied += 1

        # Verification follows the (pattern, centre) pairs a change reaches
        # along that pattern's paths, and the centres within d hops of a
        # touched node for a rule that is not walked (both exact — see
        # docs/streaming.md).
        with span("stream.slice_build") as slice_span:
            region = None
            if len(self._walked) < 2 * len(self.rules):
                region = multi_source_ball(self.graph, delta.touched, self.max_radius)
            recheck = self._recheck_pairs(delta, region)
            antecedents, prs, _classify = recheck
            report.rechecked_centers = len(_centres(antecedents, prs))
            report.verifications = sum(map(len, (*antecedents.values(), *prs.values())))
            slice_span.set(region=0 if region is None else len(region), rechecked=report.rechecked_centers)
        # Centres the batch removed or relabelled away: their verdicts go.
        removed = {node for node, label in delta.old_labels if label == self.x_label}
        try:
            with span("stream.verify"):
                self._matcher.witnesses.forget_anchors(removed)
                partial = self._verify(self.rules, recheck)
            with span("stream.assemble"):
                self._merge(partial, recheck, removed)
        except Exception as failure:
            self._rebuild(failure)
        self._result = None
        report.wall_time = time.perf_counter() - started
        self._record_tick_metrics(report)
        return report

    def _rebuild(self, failure: Exception) -> None:
        """Recover a tick whose verify or merge raised: recompile the resident
        structure, start a new matcher and re-verify every centre from the
        current graph, as opening does.  If that raises too, close."""
        with span("stream.recover"):
            try:
                self._view._build()
                self._matcher = GuidedMatcher()
                self._matcher.witnesses = WitnessStore()
                self._report = self._verify(self.rules, None)
            except Exception as exc:
                self._report = None
                self.close()
                raise StreamError(
                    f"a tick failed ({type(failure).__name__}: {failure}) and "
                    f"re-verifying every centre failed too ({type(exc).__name__}: "
                    f"{exc}); this StreamingIdentifier is closed"
                ) from exc
        registry().inc(
            "repro_stream_recovered_ticks_total",
            help="Ticks whose verify or merge raised, recovered by re-verifying every centre",
        )

    def _record_tick_metrics(self, report: StreamUpdateReport) -> None:
        """Fold one tick's outcome into the process-global metrics registry."""
        metrics = registry()
        for name, amount, help_text in (
            ("ticks", 1, "Update batches applied"),
            ("rechecked_centers", report.rechecked_centers, "Centres re-verified for at least one pattern by streaming repair"),
            ("verifications", report.verifications, "(pattern, centre) pairs re-verified by streaming repair"),
        ):
            metrics.inc(f"repro_stream_{name}_total", amount, help=help_text)
        metrics.observe(
            "repro_stream_tick_seconds",
            report.wall_time,
            help="End-to-end latency of one apply() tick",
        )

    # ------------------------------------------------------------------
    def _recheck_pairs(self, delta: GraphDelta, region: set | None) -> tuple:
        """The ``recheck`` of one tick's verification (see :meth:`_verify`):
        a walked pattern's centres whose stored verdict a change reaches
        that way (a negative from an added element, a positive from a
        removed one) and the centres the batch added or relabelled to x;
        else the centres of the d-hop *region*, built only while some
        pattern is not walked."""
        gained, lost, lcwa = reachable_centres(self.graph, delta, self._walks, self._q_label)
        labels, x_label = self.graph._labels, self.x_label
        reached = lcwa.union(*gained.values(), *lost.values())
        mine = {center for center in reached if labels.get(center) == x_label}
        fresh = {node for node in delta.added_nodes | delta.relabeled_nodes if labels[node] == x_label}
        stored = self._report
        # A PR match implies an LCWA positive, so PR pairs need one.
        positive = mine & (stored.positives | lcwa)
        regional = () if region is None else sorted((node for node in region if labels.get(node) == x_label), key=str)
        nothing: set = set()
        sides: tuple[dict, dict] = ({}, {})
        for rule_index, rule in enumerate(self.rules):
            kept = (stored.antecedent_sets.get(rule, nothing), stored.rule_matches.get(rule, nothing))
            for kind, side in enumerate(sides):
                key = (kind, rule_index)
                if key in self._walked:
                    flips = (gained.get(key, nothing) - kept[kind]) | (lost.get(key, nothing) & kept[kind])
                    centres = (flips & (positive if kind else mine)) | fresh
                else:
                    centres = regional
                if centres:
                    side[rule_index] = tuple(centres)
        return (*sides, tuple(lcwa & mine))

    def _merge(self, partial: Verdicts, recheck: tuple, removed) -> None:
        """Splice a partial re-verification into the stored report: each
        verdict of a rechecked pair is replaced, those of *removed* (centres
        that are centres no more) dropped."""
        stored = self._report
        antecedents, prs, _classify = recheck
        invalidated = _centres(*recheck).union(removed)
        stored.positives = (stored.positives - invalidated) | partial.positives
        stored.negatives = (stored.negatives - invalidated) | partial.negatives
        stored.candidates_examined += partial.candidates_examined
        stored.prefix_pool_hits += partial.prefix_pool_hits
        for index, rule in enumerate(self.rules):
            for kept, fresh, verified in (
                (stored.antecedent_sets, partial.antecedent_sets, antecedents),
                (stored.rule_matches, partial.rule_matches, prs),
            ):
                still = kept.get(rule, set()).difference(removed, verified.get(index, ()))
                kept[rule] = still | fresh.get(rule, set())

    # ------------------------------------------------------------------
    # dynamic Σ: warm rule admission / retirement (multi-tenant serving)
    # ------------------------------------------------------------------
    def admit_rules(self, new_rules: Sequence[GPAR]) -> RuleAdmissionReport:
        """Extend Σ in place; backfill **only** the new rules' verdicts.

        Every existing rule's verdict survives untouched: one verification
        runs with the additions alone over all centres, and its per-rule
        sets merge into the stored report.  Rules already in Σ
        (structural :class:`~repro.pattern.gpar.GPAR` equality) are skipped
        — that is the warm-admission fast path of docs/multitenant.md.

        The verification radius is pinned: a new rule needing a larger
        radius than the identifier was opened with is rejected (build a
        core with a bigger ``radius_floor`` instead).

        Not re-entrant with :meth:`apply`; serialize through the session
        layer like any other write.
        """
        with self._writing():
            return self._admit_locked(new_rules)

    def _admit_locked(self, new_rules: Sequence[GPAR]) -> RuleAdmissionReport:
        started = time.perf_counter()
        seen = set(self.rules)
        additions: list[GPAR] = []
        for rule in new_rules:
            if rule not in seen:
                additions.append(rule)
                seen.add(rule)
        if not additions:
            return RuleAdmissionReport(admitted=())
        pinned = self.max_radius
        union = self.rules + tuple(additions)
        _shared_predicate(list(union))
        census = plan_census(union)
        needed = max_verification_radius(union, census)
        if needed > pinned:
            raise StreamError(
                f"cannot admit rules needing verification radius {needed}: "
                f"this identifier's radius is pinned at d={pinned}; "
                f"open a separate core (or rebuild with radius_floor={needed})"
            )
        # Σ, the floor and the plans change only once the backfill returned:
        # one that raises leaves the identifier as it was, and a retried
        # admission backfills the same rules again.
        with span("stream.admit_rules", rules=len(additions)):
            partial = self._verify(tuple(additions), None, census.substitutions)
        self.radius_floor = max(self.radius_floor, pinned)
        self.rules = union
        self._prepare_rules()
        stored = self._report
        stored.candidates_examined += partial.candidates_examined
        stored.prefix_pool_hits += partial.prefix_pool_hits
        # positives/negatives are Σ-independent predicate verdicts over the
        # same centres — already held by the stored report.
        for rule in additions:
            stored.antecedent_sets[rule] = partial.antecedent_sets.get(rule, set())
            stored.rule_matches[rule] = partial.rule_matches.get(rule, set())
        self._result = None
        return RuleAdmissionReport(
            admitted=tuple(additions),
            backfill_centers=len(self.graph.nodes_with_label(self.x_label)),
            wall_time=time.perf_counter() - started,
        )

    def retire_rules(self, rules: Sequence[GPAR]) -> tuple[GPAR, ...]:
        """Shrink Σ in place, dropping the retired rules' stored verdicts.

        No verification runs and the radius stays pinned (the d-hop
        recheck region may be larger than the remaining Σ needs — correct,
        just roomy).  Retiring every rule is rejected: :meth:`close` the
        identifier instead.  Returns the rules actually removed.
        """
        with self._writing():
            removal = set(rules)
            removed = tuple(rule for rule in self.rules if rule in removal)
            if not removed:
                return ()
            remaining = tuple(rule for rule in self.rules if rule not in removal)
            if not remaining:
                raise StreamError(
                    "cannot retire every rule of a StreamingIdentifier; "
                    "close() it instead"
                )
            self.radius_floor = max(self.radius_floor, self.max_radius)
            self.rules = remaining
            self._prepare_rules()
            self._matcher.witnesses.keep_patterns(trie_patterns(self.rules, self._census_pairs))
            stored = self._report
            for rule in removed:
                stored.antecedent_sets.pop(rule, None)
                stored.rule_matches.pop(rule, None)
            self._result = None
            return removed

    # ------------------------------------------------------------------
    # durable state: checkpoint → restart
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """The picklable checkpoint of this computation (see :meth:`save_state`)."""
        self.check_current()
        return {
            "format": 1,
            "graph": self.graph,
            "rules": self.rules,
            "config": self.config,
            "radius_floor": self.radius_floor,
            "reports": {0: self._report},
            "batches_applied": self.batches_applied,
        }

    def save_state(self, path: Path | str) -> Path:
        """Write a durable, self-contained checkpoint of the computation.

        The pickle holds the graph, Σ, the config and the maintained
        verdicts.  :meth:`restore` resumes from it with byte-identical
        answers.  The file is replaced atomically (:func:`write_checkpoint`).
        """
        return write_checkpoint(Path(path), self.state_dict())

    @classmethod
    def restore(
        cls,
        path: Path | str,
        backend: str | None = None,
        executor_workers: int | None = None,
    ) -> "StreamingIdentifier":
        """Resume a checkpointed identifier (optionally naming another backend
        for :meth:`recompute`).

        No re-verification runs; the restored :attr:`result` is
        byte-identical to the one checkpointed, and later :meth:`apply`
        calls continue exactly as the original would have.  A torn or
        foreign file raises :class:`StreamError` before any state is built.
        """
        return cls.from_state(read_checkpoint(path), backend, executor_workers)

    @classmethod
    def from_state(
        cls,
        state: dict,
        backend: str | None = None,
        executor_workers: int | None = None,
    ) -> "StreamingIdentifier":
        """Build an identifier from a :func:`read_checkpoint` dict.

        The saved config is validated again (``replace`` re-runs
        ``EIPConfig``'s checks), so one naming a backend this version no
        longer has is refused before anything acts on it unless *backend*
        overrides it.  A file written while sessions were partitioned holds
        one report per fragment; ownership was disjoint, so they merge by
        set union.
        """
        overrides = {"backend": backend, "executor_workers": executor_workers}
        config = replace(
            state["config"], **{name: value for name, value in overrides.items() if value is not None}
        )
        identifier = cls.__new__(cls)
        identifier.graph = state["graph"]
        identifier.rules = state["rules"]
        identifier.config = config
        identifier.radius_floor = state.get("radius_floor", 0)
        identifier._prepare_rules()
        identifier.batches_applied = state["batches_applied"]
        merged = Verdicts()
        for report in state["reports"].values():
            merged.positives |= report.positives
            merged.negatives |= report.negatives
            merged.candidates_examined += report.candidates_examined
            merged.prefix_pool_hits += report.prefix_pool_hits
            for rule in identifier.rules:
                for kept, saved in (
                    (merged.antecedent_sets, report.antecedent_sets),
                    (merged.rule_matches, report.rule_matches),
                ):
                    kept[rule] = kept.get(rule, set()) | saved.get(rule, set())
        identifier._report = merged
        identifier._graph_version = identifier.graph.version
        identifier._open()
        return identifier

    # ------------------------------------------------------------------
    def recompute(self, rules: Sequence[GPAR] | None = None) -> EIPResult:
        """From-scratch answer on the current graph (the repair-vs-recompute
        baseline used by the equivalence gate and the ``stream`` benchmark),
        for Σ or for *rules* (a tenant's projection of it).

        This is the batch ``identify_entities``, partitioned into
        ``config.num_workers`` fragments on ``config.backend``.  The batch
        solvers route disconnected rules through the same global census as
        the maintained path (:mod:`repro.identification.census`), so this
        baseline is byte-comparable to :attr:`result` for every Σ,
        free-pattern rules included.
        """
        from repro.identification.eip import identify_entities

        return identify_entities(
            self.graph,
            list(self.rules if rules is None else rules),
            eta=self.config.eta,
            num_workers=self.config.num_workers,
            seed=self.config.seed,
            backend=self.config.backend,
            executor_workers=self.config.executor_workers,
        )

    def close(self) -> None:
        """Stop accepting writes; the maintained result stays readable."""
        self._closed = True

    def __enter__(self) -> "StreamingIdentifier":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
