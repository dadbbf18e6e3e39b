"""The paper's batch pipeline, in process: mine small, identify large.

``api.mine`` discovers the top-k diversified GPARs for the planted
predicate on a small sample graph, then ``api.identify`` applies them to a
different, larger graph — the customer-identification use of the paper.
Both run on the ``processes`` backend over two fragments, so this is the
one workload where ``mining``, static ``identification`` and the
``parallel`` transport (pickled round payloads to a process pool) do the
work and ``serve`` / ``stream`` do none.

The pool holds ONE worker process: with two busy workers on the reference
box's two shared vCPUs, identical ``api.mine`` calls ranged 7.6 s .. 16.3 s
within five minutes (a neighbour taking a core halves a two-process job and
barely touches a one-process one), which no bound survives.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import statistics
import time
from dataclasses import dataclass, field

from loadgen import SpeedProbe
from workloads import PREDICATE, STRUCTURE_SEED, Scale, fingerprint, with_rules

from repro import api
from repro.datasets import pokec_like
from repro.graph.graph import Graph
from repro.graph.io import graph_to_dict
from repro.identification.eip import EIPConfig
from repro.mining.config import DMineConfig

SETUP_REPEATS = 15
PAGE_LIMIT = 200
#: Page reads after every identify call, so the read samples span the run.
PAGE_READS = 20
#: Mined rules score conf ≈ 0.8–1.4 on the large graphs; at the paper's η = 1
#: the accepted set (and with it the answer size and every read cost) flips
#: with the seed, so the bound sits just below the lowest confidence seen.
IDENTIFY_ETA = 0.7

clock = time.monotonic  # shared with the speed probe's samples


@dataclass
class BatchRun:
    """Raw observations of one batch run."""

    #: ``(start, end)`` windows of the timed operations.
    setup: list[tuple[float, float]] = field(default_factory=list)
    mine: tuple[float, float] = (0.0, 0.0)
    identify: list[tuple[float, float]] = field(default_factory=list)
    page_ms: list[float] = field(default_factory=list)
    rss_peak_mb: float = 0.0
    mined: object = None
    #: (sample graph, large graph, predicate, mined rules) for the output checks
    inputs: tuple = ()
    identify_results: list = field(default_factory=list)
    mine_fingerprint: str = ""
    identify_fingerprint: str = ""
    load_fingerprint: str = ""
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def identified(self):
        """The answer of the last identify call."""
        return self.identify_results[-1]

    @property
    def mine_s(self) -> float:
        return self.mine[1] - self.mine[0]

    @property
    def identify_s(self) -> list[float]:
        return [end - start for start, end in self.identify]


def mine_config(backend: str) -> DMineConfig:
    return DMineConfig(k=8, d=2, sigma=5, num_workers=2, max_edges=3, backend=backend, executor_workers=1)


def identify_config(backend: str) -> EIPConfig:
    return EIPConfig(eta=IDENTIFY_ETA, num_workers=2, backend=backend, executor_workers=1)


def build_inputs(seed: int, scale: Scale):
    """The sample graph, the large graph (users renamed and reordered by *seed*), the predicate.

    Both structures are fixed.  A large graph generated from the seed has
    another answer size on every seed (page reads ranged 1.8 .. 3.7 ms over
    ten seeds), which reads as noise in every timing; a seeded renaming is a
    different input with the same amount of work in it.
    """
    sample = pokec_like(scale.mine_users, scale.mine_communities, seed=STRUCTURE_SEED, name="sample")
    base = pokec_like(scale.identify_users, scale.identify_communities, seed=STRUCTURE_SEED + 1)
    rng = random.Random(seed * 6_151 + 29)
    users = sorted((node for node, label in base.node_items() if label == "user"), key=str)
    renamed = dict(zip(users, rng.sample(users, len(users))))
    nodes = sorted(base.node_items(), key=lambda item: str(item[0]))
    rng.shuffle(nodes)
    large = Graph(name=f"large-{seed}")
    for node, label in nodes:
        large.add_node(renamed.get(node, node), label)
    for edge in base.edges():
        large.add_edge(renamed.get(edge.source, edge.source), renamed.get(edge.target, edge.target), edge.label)
    return sample, large, api.parse_predicate(PREDICATE)


def mined_fingerprint(result) -> str:
    """Hash of the mined top-k: rule names, supports and confidences."""
    rows = sorted((mined.rule.name, mined.support, repr(round(mined.confidence, 9))) for mined in result.top_k)
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()[:16]


def identified_fingerprint(result) -> str:
    """Hash of the identified set and every rule's match-set size."""
    rows = {
        "identified": sorted(map(str, result.identified)),
        "rules": sorted((rule.name, len(matches)) for rule, matches in result.rule_matches.items()),
    }
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode("utf-8")).hexdigest()[:16]


def run_batch(seed: int, seconds: float, scale: Scale, probe: SpeedProbe) -> BatchRun:
    """Mine, identify ``scale.identify_repeats``+ times, page each answer.

    ``--seconds`` buys identify repetitions beyond that floor; the mining
    run is one fixed operation.  Output checks are a separate,
    untimed and untraced step: :func:`check_outputs`.  *probe* is running
    and is stopped when the timed phases end.
    """
    run = BatchRun()
    for _ in range(SETUP_REPEATS):
        started = clock()
        sample, large, predicate = build_inputs(seed, scale)
        run.setup.append((started, clock()))

    run.attempted += 1
    started = clock()
    mined = api.mine(sample, predicate, mine_config("processes"))
    run.mine = (started, clock())
    run.mined = mined
    rules = [entry.rule for entry in mined.top_k]
    if not rules:
        run.problems.append("vacuous workload: DMine returned no rule")
        run.failed += 1
        return run

    repeats = max(scale.identify_repeats, round(seconds * 0.8))
    for _ in range(repeats):
        run.attempted += 1
        started = clock()
        identified = api.identify(large, rules, identify_config("processes"), algorithm="match")
        run.identify.append((started, clock()))
        run.identify_results.append(identified)
        # The batch caller's read path: page through the answer it just computed.
        cursor = None
        for _ in range(PAGE_READS):
            run.attempted += 1
            started = clock()
            page = identified.pages(cursor=cursor, limit=PAGE_LIMIT)
            run.page_ms.append((clock() - started) * 1000.0)
            cursor = page.next_cursor

    probe.stop()

    run.load_fingerprint = with_rules(
        fingerprint({"sample": graph_to_dict(sample), "large": graph_to_dict(large)}, []),
        [rule.name for rule in rules],
    )
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    run.rss_peak_mb = (usage_self + usage_children) / 1024.0
    run.inputs = (sample, large, predicate, rules)
    return run


def check_outputs(run: BatchRun, seed: int, pins: dict) -> None:
    """Fingerprints against the pins, or a sequential-backend reference.

    The sample graph does not depend on the seed, so one pin covers the
    mined top-k; the identified set is pinned for the default seeds only.
    """
    if not run.inputs:
        return
    sample, large, predicate, rules = run.inputs
    run.mine_fingerprint = mined_fingerprint(run.mined)
    run.identify_fingerprint = identified_fingerprint(run.identified)
    expected_mine = pins.get("mined") or mined_fingerprint(
        api.mine(sample, predicate, mine_config("sequential"))
    )
    expected_identify = pins.get("identified", {}).get(str(seed)) or identified_fingerprint(
        api.identify(large, rules, identify_config("sequential"), algorithm="match")
    )
    if run.mine_fingerprint != expected_mine:
        run.problems.append(f"mined top-k {run.mine_fingerprint} differs from the reference {expected_mine}")
    if run.identify_fingerprint != expected_identify:
        run.problems.append(
            f"identified set {run.identify_fingerprint} differs from the reference {expected_identify}"
        )
    if not run.identified.identified:
        run.problems.append("vacuous workload: the identified set is empty")
    run.failed += len(run.problems)


def metrics_of(run: BatchRun, probe: SpeedProbe) -> dict[str, float]:
    """The end-to-end metrics of one batch run, speed-corrected (see README for the mapping)."""
    identify = probe.corrected(run.identify)
    phase = probe.factor(run.identify[0][0], run.identify[-1][1])
    return {
        "setup_s": statistics.median(probe.corrected(run.setup)),
        "rules_ready_s": probe.corrected([run.mine])[0],
        "refresh_p50_ms": statistics.median(identify) * 1000.0,
        "refresh_per_s": len(identify) / sum(identify),
        "observe_p50_ms": statistics.median(run.page_ms) * phase,
        "rss_peak_mb": run.rss_peak_mb,
    }
