"""Streaming entity identification: keep an EIP answer correct under updates.

A :class:`StreamingIdentifier` runs one full ``Match`` verification when
constructed and then maintains the resulting
:class:`~repro.identification.eip.EIPResult` across
:class:`~repro.stream.updates.UpdateBatch` applications by repairing, not
recomputing:

* the coordinator applies the batch to the authoritative graph (one version
  tick) and hands the recorded delta to its
  :class:`~repro.partition.lifecycle.FragmentManager`, which derives one
  :class:`~repro.partition.lifecycle.FragmentUpdate` slice per fragment —
  the fragment-local mutations, the *ball augmentation* (nodes newly within
  ``d`` hops of an owned centre), deletion-driven *shedding* (nodes no
  longer within ``d`` hops of any owned centre) and centre-ownership changes;
* each worker catches its resident copy up through
  :func:`~repro.partition.lifecycle.catch_up` — installing the newest
  compaction checkpoint if it is behind it, replaying the slice tail —
  lets the resident :class:`~repro.graph.columnar.ColumnarFragment` patch
  itself forward from the graph's recorded deltas, and re-verifies **only** the
  (pattern, owned centre) pairs a change can reach — every other stored
  verdict is provably unchanged (see ``docs/streaming.md``);
* the coordinator splices the partial reports into its per-fragment state
  and re-assembles confidences, so :attr:`result` is at all times exactly
  what a from-scratch run on the current graph would return.

Rules whose antecedent is disconnected — the usual shape of DMine-mined
rules — are maintained too: the connected x-component is verified
ball-locally as usual, and the free part is checked by the coordinator
against the authoritative graph.  Isolated free nodes (the mined free-``y``
shape) use the **global label census** (the feasibility condition
``count(L) >= #antecedent nodes labelled L`` for each free label, exact for
injective label-equality matching); free components that carry edges use
the **component census** — per-shape embedding enumeration with an exact
per-centre fallback (see :mod:`repro.identification.census`).  The
maintained answer for such rules follows whole-graph matching semantics and
agrees with :func:`repro.identification.eip.identify_entities`, which
routes through the same census; see ``docs/lifecycle.md`` and
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
from repro.graph.columnar import registered_columnar
from repro.graph.graph import Graph, GraphDelta
from repro.graph.neighborhood import multi_source_ball
from repro.identification.census import (
    CensusMatcher,
    apply_census,
    max_verification_radius,
    plan_census,
)
from repro.identification.eip import EIPConfig, EIPResult, _shared_predicate
from repro.identification.match import Match
from repro.identification.matchc import _FragmentReport
from repro.matching.base import WitnessStore
from repro.matching.guided import GuidedMatcher
from repro.matching.multi import trie_patterns
from repro.obs.registry import registry
from repro.obs.tracing import (
    Tracer,
    active,
    override_tracer,
    span,
    tracing_enabled,
)
from repro.parallel.executor import make_executor
from repro.parallel.runtime import BSPRuntime
from repro.parallel.worker import WorkerContext
from repro.partition.fragment import Fragment
from repro.partition.lifecycle import (
    FragmentLease,
    FragmentManager,
    FragmentUpdate,
    catch_up,
)
from repro.partition.partitioner import partition_graph
from repro.pattern.gpar import GPAR
from repro.pattern.pattern import Pattern, PatternEdge
from repro.stream.updates import UpdateBatch

__all__ = [
    "CensusMatcher",
    "FragmentUpdate",
    "RuleAdmissionReport",
    "StreamUpdateReport",
    "StreamVerifyPayload",
    "StreamingIdentifier",
    "stream_update_worker",
]

NodeId = Hashable


# ----------------------------------------------------------------------
# round payloads and the worker function
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StreamVerifyPayload:
    """Round payload of one streaming verification (coordinator → worker).

    ``lease`` carries the fragment's base checkpoint reference plus the
    update-slice tail, so any worker process — however stale its resident
    copy, including one that never served this fragment before — catches up
    deterministically.  ``recheck`` restricts re-verification to the
    (pattern, centre) pairs whose verdict may have changed:
    ``({rule index: centres}, {rule index: centres}, centres)`` for the
    antecedents and the PRs of ``rules``, and the centres whose LCWA class
    alone is recomputed; ``None`` verifies every owned centre against every
    rule (the initial full round).  ``census`` maps census-split
    antecedents to their x-components (see :class:`CensusMatcher`).
    """

    lease: FragmentLease
    config: EIPConfig
    rules: tuple[GPAR, ...]
    max_radius: int
    predicate: object
    recheck: tuple | None = None
    census: tuple = ()  # ((antecedent, x_part), ...)
    #: Whether the coordinator had an active tracer when it built the
    #: payload: workers then record their phases into a fragment-local
    #: :class:`~repro.obs.tracing.Tracer` and ship the records back on
    #: ``_FragmentReport.spans`` for adoption under the coordinator's tree.
    traced: bool = False


@dataclass
class StreamUpdateReport:
    """What one :meth:`StreamingIdentifier.apply` did (measurement surface)."""

    delta: GraphDelta
    #: Centres re-verified for at least one pattern.
    rechecked_centers: int = 0
    #: (pattern, centre) pairs re-verified: antecedents and PRs.
    verifications: int = 0
    owned_added: int = 0
    owned_removed: int = 0
    entered_nodes: int = 0
    shed_nodes: int = 0
    compacted_fragments: int = 0
    shipped_edges: int = 0
    resident_nodes: int = 0
    log_ops: int = 0
    wall_time: float = 0.0

    def as_row(self) -> str:
        """One-line human-readable summary used by the CLI."""
        return (
            f"touched={len(self.delta.touched)} rechecked={self.rechecked_centers} "
            f"verifications={self.verifications} "
            f"owned(+{self.owned_added}/-{self.owned_removed}) "
            f"entered={self.entered_nodes} shed={self.shed_nodes} "
            f"compacted={self.compacted_fragments} "
            f"resident={self.resident_nodes} wall={self.wall_time:.3f}s"
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


def stream_update_worker(
    context: WorkerContext, payload: StreamVerifyPayload
) -> _FragmentReport:
    """BSP worker function: catch up on fragment state, verify the recheck set.

    Catch-up runs through :func:`repro.partition.lifecycle.catch_up`: a
    resident copy behind the lease's base checkpoint installs it, then the
    missed slice tail replays (the applied-sequence counter lives in the
    pool-lifetime :class:`~repro.parallel.worker.WorkerContext`).  The
    resident structure is patched forward from the graph's recorded deltas
    rather than rebuilt.

    When the payload asks for tracing, the worker records its phases into a
    fragment-local :class:`~repro.obs.tracing.Tracer` (installed as the
    thread-local override, so nested module-level spans — the resident
    structure's refresh — land in it too, on every backend) and ships the records back
    on ``report.spans`` for the coordinator to adopt.
    """
    if not payload.traced:
        return _stream_verify(context, payload)
    tracer = Tracer()
    with override_tracer(tracer):
        report = _stream_verify(context, payload)
    report.spans = tracer.records()
    return report


def _stream_verify(
    context: WorkerContext, payload: StreamVerifyPayload
) -> _FragmentReport:
    """The actual worker body (phases traced via the ambient tracer)."""
    owned_before = set(context.fragment.owned_centers)
    with span("stream.worker.catch_up", fragment=context.fragment.index):
        fragment = catch_up(context, payload.lease)

    resident = registered_columnar(fragment.graph)
    if resident is not None and resident.is_stale:
        with span("stream.worker.index_refresh"):
            resident.refresh()

    matcher = context.cached(
        ("eip-matcher", payload.config, payload.max_radius), GuidedMatcher
    )
    # Ticks re-verify the same (centre, pattern) pairs, so this matcher keeps
    # its witnesses (validated on use — a cold store only means "search").
    # The store lives with the matcher in the pool-lifetime context; here it
    # is only bounded: centres the fragment stopped owning go, and the first
    # tick (which carries all of Σ) after Σ changed — a new ``rules`` tuple —
    # drops the patterns no live rule's trie contains.
    if matcher.witnesses is None:
        matcher.witnesses = WitnessStore()
    matcher.witnesses.forget_anchors(owned_before - fragment.owned_centers)
    if payload.recheck is not None and context.state.get("witness-sigma") is not payload.rules:
        context.state["witness-sigma"] = payload.rules
        matcher.witnesses.keep_patterns(trie_patterns(payload.rules, payload.census))
    if payload.census:
        matcher = CensusMatcher(matcher, dict(payload.census))
    if payload.recheck is None:
        target, pools = fragment, None
    else:
        target = Fragment(
            index=fragment.index,
            graph=fragment.graph,
            owned_centers=_centres(*payload.recheck),
        )
        pools = payload.recheck[:2]
    with span(
        "stream.worker.verify",
        fragment=fragment.index,
        centers=len(target.owned_centers),
    ):
        return Match(payload.config)._verify_fragment(
            target, payload.rules, matcher, payload.predicate, pools
        )


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
#: (:meth:`repro.api.SharedSessionCore.save_state`) is a superset.
CHECKPOINT_KEYS = frozenset(
    {
        "graph",
        "rules",
        "config",
        "manager",
        "reports",
        "batches_applied",
    }
)


def write_checkpoint(path: Path, state: dict) -> Path:
    """Pickle *state* to *path* so a crash never leaves a torn file there.

    The bytes go to a sibling temp file, are flushed and fsynced, and only
    then renamed over *path*: a reader sees the previous checkpoint or the
    complete new one, and a failed dump leaves the previous one untouched.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = path.with_name(path.name + ".tmp")
    try:
        with open(scratch, "wb") as handle:
            pickle.dump(state, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(scratch, path)
    except BaseException:
        scratch.unlink(missing_ok=True)
        raise
    return path


class _RetiredStreamConfig:
    """What the retired ``StreamConfig`` pickled in older checkpoints loads as.

    The thresholds it carried are module constants now, so restore ignores
    it, as it ignores the lifecycle state's ``base_paths`` map of such a
    checkpoint (its ``bases`` hold every base inline).
    """


class _CheckpointUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str):
        if (module, name) == ("repro.stream.config", "StreamConfig"):
            return _RetiredStreamConfig
        return super().find_class(module, name)


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
        coordinator-held component census (exact, whole-graph semantics —
        see :mod:`repro.identification.census`).
    config:
        Standard :class:`~repro.identification.eip.EIPConfig`; the backend
        and its worker pool stay up between batches.  Verification runs
        ``Match``; ``Matchc`` and disVF2 are batch-only baselines.

    Use as a context manager, or call :meth:`close` to release the pool.
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
        # Floor on the verification radius: fragments are partitioned (and
        # their balls materialized) at max(radius(Σ), radius_floor), so a
        # later admit_rules() can bring rules up to the floor without
        # repartitioning.  admit/retire raise the floor to the pinned radius
        # so the resident balls never shrink under live verdicts.
        self.radius_floor = radius_floor
        self._prepare_rules()

        centers = graph.nodes_with_label(self.x_label)
        fragments = partition_graph(
            graph,
            self.config.num_workers,
            centers=centers,
            d=self.max_radius,
            seed=self.config.seed,
        )
        # All residency/ownership/log truth lives in the manager, next to
        # the authoritative graph; fragment *objects* may live (and mutate)
        # in worker processes.
        self.manager = FragmentManager(graph, fragments, self.max_radius, self.x_label)
        self.fragments = self.manager.fragments
        self.batches_applied = 0
        self._start_runtime()

        payloads = [
            self._payload(fragment.index, recheck=None) for fragment in self.fragments
        ]
        reports = self._run_round(
            "stream.initial_verify", payloads, "t0", fragments=len(payloads)
        )
        self._reports: dict[int, _FragmentReport] = {
            report.fragment_index: report for report in reports
        }
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
        # workers verify x-components via CensusMatcher substitution, the
        # coordinator applies the global half at assembly time.  PR = the
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

    def _start_runtime(self) -> None:
        executor = make_executor(self.config.backend, self.config.executor_workers)
        self.runtime = BSPRuntime(self.fragments, executor)
        self.runtime.start_run()
        self._closed = False
        self._result: EIPResult | None = None  # assembled on read, see result
        # apply() is not re-entrant: it mutates the authoritative graph, the
        # lifecycle manager and the stored reports in sequence, so a second
        # concurrent call would interleave half-applied ticks.  The guard is
        # non-blocking — concurrent writers are a caller bug (serialize
        # through repro.api.Session.apply), not something to silently queue.
        self._apply_guard = threading.Lock()

    def _payload(
        self,
        index: int,
        recheck: tuple | None,
        rules: tuple[GPAR, ...] | None = None,
    ) -> StreamVerifyPayload:
        return StreamVerifyPayload(
            lease=self.manager.lease(index),
            config=self.config,
            rules=self.rules if rules is None else rules,
            max_radius=self.max_radius,
            predicate=self.predicate,
            recheck=recheck,
            census=self._census_pairs,
            traced=tracing_enabled(),
        )

    def _assemble(self) -> EIPResult:
        reports = [self._reports[fragment.index] for fragment in self.fragments]
        # The maintained reports hold x-part verdicts; the census rewrites
        # them to whole-graph verdicts on *copies*, so a census that becomes
        # satisfiable again on a later tick re-reads the intact x-part sets.
        reports = apply_census(self.graph, self.rules, reports, self._census_plan)
        result = self._solver._assemble(list(self.rules), reports)
        result.timings = self.runtime.timings
        return result

    def check_current(self) -> None:
        """Raise unless the stored verdicts describe the graph's current state."""
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

    def _run_round(self, name: str, payloads: list, prefix: str, **attrs) -> list:
        """One BSP round under span *name*; shipped worker spans are adopted
        beneath it (the prefix keeps ids unique across ticks and fragments)."""
        tracer = active()
        with span(name, **attrs) as round_span:
            reports = self.runtime.run_round(stream_update_worker, payloads)
            # A resident session runs a round per tick for as long as it lives
            # and reads only the newest RoundTiming: keep that one.
            del self.runtime.timings.rounds[:-1]
            if tracer is not None:
                for shipped in reports:
                    if shipped.spans:
                        tracer.adopt(
                            shipped.spans,
                            parent_id=round_span.span_id,
                            prefix=f"{prefix}.w{shipped.fragment_index}.",
                        )
                        shipped.spans = []
        return reports

    @property
    def result(self) -> EIPResult:
        """The maintained EIP answer for the graph's current state.

        Assembled from the stored per-fragment verdicts on first read and
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
        ticks.  Serialize writers through :class:`repro.api.Session`.
        """
        with self._writing(), span("stream.tick", tick=self.batches_applied + 1):
            return self._apply_locked(batch)

    def _apply_locked(self, batch: UpdateBatch) -> StreamUpdateReport:
        started = time.perf_counter()
        with span("stream.apply_batch") as batch_span:
            delta = batch.apply(self.graph)
            batch_span.set(touched=len(delta.touched))
        report = StreamUpdateReport(delta=delta)
        graph = self.graph
        self._graph_version = graph.version
        self.batches_applied += 1

        # Residency moves only within d hops of a changed element, on the
        # post-update graph (docs/lifecycle.md); verification follows the
        # (pattern, centre) pairs a change reaches along that pattern's paths,
        # and the owned centres within d hops of a touched node for a rule
        # that is not walked (both exact — see docs/streaming.md).
        with span("stream.slice_build") as slice_span:
            plan = self.manager.derive_batch(delta)
            recheck = self._recheck_pairs(delta, plan)
            for antecedents, prs, _classify in recheck.values():
                report.rechecked_centers += len(_centres(antecedents, prs))
                report.verifications += sum(map(len, (*antecedents.values(), *prs.values())))
            slice_span.set(region=plan.area, rechecked=report.rechecked_centers)
        report.owned_added = plan.owned_added
        report.owned_removed = plan.owned_removed
        report.entered_nodes = plan.entered_nodes
        report.shed_nodes = plan.shed_nodes
        report.shipped_edges = plan.shipped_edges

        payloads = [self._payload(fragment.index, recheck=recheck[fragment.index]) for fragment in self.fragments]
        partials = self._run_round(
            "stream.verify",
            payloads,
            f"t{self.batches_applied}",
            fragments=len(payloads),
        )
        with span("stream.assemble"):
            for partial in partials:
                index = partial.fragment_index
                self._merge(partial, recheck[index], plan.updates[index].own_remove)
            report.compacted_fragments = len(self.manager.maybe_compact())
            summary = self.manager.resident_summary()
            report.resident_nodes = summary["resident_nodes"]
            report.log_ops = summary["log_ops"]
            self._result = None
        report.wall_time = time.perf_counter() - started
        self._record_tick_metrics(report)
        return report

    def _record_tick_metrics(self, report: StreamUpdateReport) -> None:
        """Fold one tick's outcome into the process-global metrics registry."""
        metrics = registry()
        for name, amount, help_text in (
            ("ticks", 1, "Update batches applied"),
            ("rechecked_centers", report.rechecked_centers, "Centres re-verified for at least one pattern by streaming repair"),
            ("verifications", report.verifications, "(pattern, centre) pairs re-verified by streaming repair"),
            ("shed_nodes", report.shed_nodes, "Resident nodes shed after deletions"),
            ("compacted_fragments", report.compacted_fragments, "Fragment logs compacted into checkpoints"),
        ):
            metrics.inc(f"repro_stream_{name}_total", amount, help=help_text)
        metrics.observe(
            "repro_stream_tick_seconds",
            report.wall_time,
            help="End-to-end latency of one apply() tick",
        )

    # ------------------------------------------------------------------
    def _recheck_pairs(self, delta: GraphDelta, plan) -> dict[int, tuple]:
        """Per fragment, the ``recheck`` of its :class:`StreamVerifyPayload`:
        a walked pattern's owned centres whose stored verdict a change
        reaches that way (a negative from an added element, a positive from
        a removed one) and the newly owned ones; else the owned centres of
        the d-hop region, built only while some pattern is not walked."""
        region = None
        if len(self._walked) < 2 * len(self.rules):
            region = multi_source_ball(self.graph, delta.touched, self.max_radius)
        gained, lost, lcwa = reachable_centres(self.graph, delta, self._walks, self._q_label)
        reached = lcwa.union(*gained.values(), *lost.values())
        owners = {center: self.manager.owner_of(center) for center in reached}
        nothing: set = set()
        pairs: dict[int, tuple] = {}
        for fragment in self.fragments:
            index = fragment.index
            update = plan.updates[index]
            stored = self._reports[index]
            mine = {center for center in reached if owners[center] == index}
            # A PR match implies an LCWA positive, so PR pairs need one.
            positive = mine & (stored.positives | lcwa)
            regional = () if region is None else sorted(self.manager.owned_centers(index) & region, key=str)
            sides: tuple[dict, dict] = ({}, {})
            for rule_index, rule in enumerate(self.rules):
                kept = (stored.antecedent_sets.get(rule, nothing), stored.rule_matches.get(rule, nothing))
                for kind, side in enumerate(sides):
                    key = (kind, rule_index)
                    if key in self._walked:
                        flips = (gained.get(key, nothing) - kept[kind]) | (lost.get(key, nothing) & kept[kind])
                        centres = (flips & (positive if kind else mine)).union(update.own_add)
                    else:
                        centres = regional
                    if centres:
                        side[rule_index] = tuple(centres)
            pairs[index] = (*sides, tuple(lcwa & mine))
        return pairs

    def _merge(self, partial: _FragmentReport, recheck: tuple, removed) -> None:
        """Splice a partial re-verification into the fragment's stored report:
        each verdict of a rechecked pair is replaced, those of *removed*
        (centres the fragment stopped owning) dropped."""
        stored = self._reports[partial.fragment_index]
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
        self._recount(stored)

    def _recount(self, stored: _FragmentReport) -> None:
        """Recompute every derived count of a stored report from its sets."""
        stored.supp_q = len(stored.positives)
        stored.supp_q_bar = len(stored.negatives)
        for rule in self.rules:
            antecedent = stored.antecedent_sets.get(rule, set())
            stored.antecedent_counts[rule] = len(antecedent)
            stored.qbar_counts[rule] = len(antecedent & stored.negatives)

    # ------------------------------------------------------------------
    # dynamic Σ: warm rule admission / retirement (multi-tenant serving)
    # ------------------------------------------------------------------
    def admit_rules(self, new_rules: Sequence[GPAR]) -> RuleAdmissionReport:
        """Extend Σ in place; backfill **only** the new rules' verdicts.

        The resident fragments, their materialized d-balls and every
        existing rule's verdict survive untouched: one verification round
        runs with the additions alone over all owned centres, and its
        per-rule sets merge into the stored reports.  Rules already in Σ
        (structural :class:`~repro.pattern.gpar.GPAR` equality) are skipped
        — that is the warm-admission fast path of docs/multitenant.md.

        The verification radius is pinned: a new rule needing a larger
        radius than the balls were materialized with is rejected (build a
        core with a bigger ``radius_floor`` instead of silently serving it
        from truncated neighbourhoods).

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
        needed = max_verification_radius(union, plan_census(union))
        if needed > pinned:
            raise StreamError(
                f"cannot admit rules needing verification radius {needed}: "
                f"the resident fragment balls were materialized at d={pinned}; "
                f"open a separate core (or rebuild with radius_floor={needed})"
            )
        self.radius_floor = max(self.radius_floor, pinned)
        self.rules = union
        self._prepare_rules()
        payloads = [
            self._payload(fragment.index, recheck=None, rules=tuple(additions))
            for fragment in self.fragments
        ]
        partials = self._run_round(
            "stream.admit_rules", payloads, "adm", rules=len(additions)
        )
        for partial in partials:
            stored = self._reports[partial.fragment_index]
            stored.candidates_examined += partial.candidates_examined
            stored.prefix_pool_hits += partial.prefix_pool_hits
            # positives/negatives are Σ-independent predicate verdicts over
            # the same owned centres — already held by the stored report.
            for rule in additions:
                stored.antecedent_sets[rule] = partial.antecedent_sets.get(rule, set())
                stored.rule_matches[rule] = partial.rule_matches.get(rule, set())
            self._recount(stored)
        self._result = None
        return RuleAdmissionReport(
            admitted=tuple(additions),
            backfill_centers=sum(
                len(fragment.owned_centers) for fragment in self.fragments
            ),
            wall_time=time.perf_counter() - started,
        )

    def retire_rules(self, rules: Sequence[GPAR]) -> tuple[GPAR, ...]:
        """Shrink Σ in place, dropping the retired rules' stored verdicts.

        No verification runs and the radius stays pinned (the resident
        balls may be larger than the remaining Σ needs — correct, just
        roomy).  Retiring every rule is rejected: :meth:`close` the
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
            for stored in self._reports.values():
                for rule in removed:
                    stored.antecedent_sets.pop(rule, None)
                    stored.rule_matches.pop(rule, None)
                    stored.antecedent_counts.pop(rule, None)
                    stored.qbar_counts.pop(rule, None)
                self._recount(stored)
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
            "manager": self.manager.state_dict(),
            "reports": self._reports,
            "batches_applied": self.batches_applied,
        }

    def save_state(self, path: Path | str) -> Path:
        """Write a durable, self-contained checkpoint of the computation.

        The pickle holds the authoritative graph, Σ, the config, the
        manager's full lifecycle state (ownership, node sets, slice
        logs, compaction bases) and the
        maintained per-fragment reports.  :meth:`restore` resumes from it
        with byte-identical answers, on any backend.  The file is replaced
        atomically (:func:`write_checkpoint`).
        """
        return write_checkpoint(Path(path), self.state_dict())

    @classmethod
    def restore(
        cls,
        path: Path | str,
        backend: str | None = None,
        executor_workers: int | None = None,
    ) -> "StreamingIdentifier":
        """Resume a checkpointed identifier (optionally on another backend).

        Fragments are re-materialised from the saved lifecycle state at the
        saved sequence — no re-verification runs; the restored
        :attr:`result` is byte-identical to the one checkpointed, and later
        :meth:`apply` calls continue exactly as the original would have.
        A torn or foreign file raises :class:`StreamError` before any worker
        pool starts.
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
        longer has is refused before any pool starts unless *backend*
        overrides it.
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
        identifier.manager = FragmentManager.from_state(identifier.graph, state["manager"])
        identifier.fragments = identifier.manager.fragments
        identifier.batches_applied = state["batches_applied"]
        identifier._reports = state["reports"]
        identifier._graph_version = identifier.graph.version
        identifier._start_runtime()
        return identifier

    # ------------------------------------------------------------------
    def recompute(self, rules: Sequence[GPAR] | None = None) -> EIPResult:
        """From-scratch answer on the current graph (the repair-vs-recompute
        baseline used by the equivalence gate and the ``stream`` benchmark),
        for Σ or for *rules* (a tenant's projection of it).

        The batch solvers route disconnected rules through the same global
        census as the maintained path (:mod:`repro.identification.census`),
        so this baseline is partition-independent and byte-comparable to
        :attr:`result` for every Σ, free-pattern rules included.
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
        """Release the worker pool; the maintained result stays readable."""
        if not self._closed:
            self.runtime.finish_run()
            self._closed = True

    def __enter__(self) -> "StreamingIdentifier":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
