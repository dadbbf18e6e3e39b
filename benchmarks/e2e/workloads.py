"""Seeded workload generation for the end-to-end benchmark.

Every input the system under test receives is produced here from
``--seed``: graphs come from :func:`repro.datasets.pokec_like`, update
streams from the two stationary churn generators below, and the served rule sets from the server's own
``generate_gpars`` call, whose seed stays :data:`SIGMA_SEED` so that one
graph always yields one Σ.  Sizes are op-count bound — ``--seconds`` picks
the tick count through each workload's nominal rate, so two commits always
run identical batches and count-type metrics compare exactly.

Sizing note (measured on the 2-core reference box, see README): the issue's
prototype sizes (300-user hub graph, 60 + 400 + 180 ticks, 300-user mine)
need ≈ 3.5 min per pass; the driver's budget allows ≈ 27 s per run, so
graphs and tick counts are cut proportionally while every reported median
keeps ≥ 50 timed samples.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

from repro.datasets import pokec_like
from repro.graph.graph import Graph
from repro.graph.io import graph_to_dict
from repro.stream import UpdateBatch, UpdateOp

PREDICATE = "user:like_book:personal development"
PLANTED_BOOK = "book:personal development"
#: Seed of every graph *structure*.  ``--seed`` drives the update streams
#: (and the large identification graph), not the graphs Σ is drawn from: a Σ
#: sampled from a different graph costs up to 2x as much to verify, which
#: would spread every timing by ~30 % across seeds (measured, see README).
STRUCTURE_SEED = 7
#: Seed of every server-side ``generate_gpars`` call and EIPConfig tie-break.
SIGMA_SEED = 5
#: Ticks at the head of every serving run that are applied but not timed.
WARMUP_TICKS = 5
#: Lowest sample count any reported median may rest on.
MIN_TIMED = 50

WORKLOADS = ("batch-mine-identify", "serve-hub", "serve-local", "serve-tenants")


@dataclass(frozen=True)
class ServeSpec:
    """Everything that shapes one serving workload besides the seed."""

    name: str
    #: Timed ticks per second of ``--seconds`` on the reference box.
    nominal_tick_rate: float
    batch_ops: int
    eta: float
    #: ``(rules, max_edges)`` per session; the first opens cold.
    tenants: tuple[tuple[int, int], ...]
    shared_core: bool
    #: ``"subscriber"`` (long-poll delta feed) or ``"reader"`` (paced pages).
    companion: str
    #: (rules, max_edges) of the extra rule set timed as ``rules_ready_s``
    #: on the solo workloads (the tenant workload times its warm admissions).
    extra_sigma: tuple[int, int] | None = None


SERVE_SPECS = {
    "serve-hub": ServeSpec(
        name="serve-hub",
        nominal_tick_rate=8.0,
        batch_ops=8,
        eta=0.5,
        tenants=((8, 3),),
        shared_core=False,
        companion="subscriber",
        extra_sigma=(6, 3),
    ),
    "serve-local": ServeSpec(
        name="serve-local",
        nominal_tick_rate=12.0,
        batch_ops=6,
        eta=0.5,
        tenants=((8, 3),),
        shared_core=False,
        companion="reader",
        extra_sigma=(6, 3),
    ),
    "serve-tenants": ServeSpec(
        name="serve-tenants",
        nominal_tick_rate=5.0,
        batch_ops=6,
        eta=0.5,
        tenants=((8, 3), (6, 3), (8, 4), (8, 2), (5, 4), (12, 3)),
        shared_core=True,
        companion="subscriber",
    ),
}


@dataclass(frozen=True)
class Scale:
    """Graph sizes; ``--smoke`` shrinks them, ``--seconds`` never does."""

    hub_users: int = 80
    hub_communities: int = 3
    shards: int = 16
    shard_users: int = 30
    shard_communities: int = 4
    mine_users: int = 100
    mine_communities: int = 4
    identify_users: int = 600
    identify_communities: int = 15
    #: Lowest count of timed ``api.identify`` calls of the batch run.
    identify_repeats: int = 8
    #: Lowest timed-tick count of a serving run, whatever ``--seconds`` says.
    min_timed: int = MIN_TIMED

    @classmethod
    def smoke(cls) -> "Scale":
        return cls(
            hub_users=60,
            hub_communities=3,
            shards=8,  # the smallest count at which no warm tenant needs a wider radius than the cold one
            mine_users=100,
            identify_users=300,
            identify_communities=8,
            identify_repeats=2,
            min_timed=8,
        )


def timed_ticks(spec: ServeSpec, seconds: float, scale: Scale) -> int:
    """How many timed ticks ``--seconds`` buys on *spec* (never < ``scale.min_timed``)."""
    return max(scale.min_timed, round(seconds * spec.nominal_tick_rate))


# ----------------------------------------------------------------------
# graphs
# ----------------------------------------------------------------------
def hub_graph(scale: Scale) -> Graph:
    """One community graph whose attribute hubs make every region global."""
    return pokec_like(scale.hub_users, scale.hub_communities, seed=STRUCTURE_SEED, name="hub")


def sharded_social(scale: Scale) -> Graph:
    """Disjoint ``pokec_like`` copies, ids prefixed ``s{k}:``.

    Hubs exist only inside a shard, so an update's d-hop region stays
    within one shard and the per-tick fixed costs become visible.
    """
    graph = Graph(name="sharded-social")
    for k in range(scale.shards):
        shard = pokec_like(scale.shard_users, scale.shard_communities, seed=STRUCTURE_SEED * 100 + k)
        for node, label in shard.node_items():
            graph.add_node(f"s{k}:{node}", label)
        for edge in shard.edges():
            graph.add_edge(f"s{k}:{edge.source}", f"s{k}:{edge.target}", edge.label)
    return graph


# ----------------------------------------------------------------------
# update streams (generated against a mirror that ends in the final state)
# ----------------------------------------------------------------------
def hub_batches(mirror: Graph, count: int, size: int, seed: int) -> list[UpdateBatch]:
    """Perturb-and-revert churn on the hub graph: *size* ops a batch (or one less), 2 node-level.

    Batch *i* undoes what batch *i-1* did and then applies a fresh
    perturbation of its own, so the graph is always the base graph plus ONE
    perturbation: tick cost has the same distribution on every tick and for
    every seed.  (A free-running random walk does not: toggles that pile up
    on one hub tripled the tick cost within 50 ticks on one seed and halved
    it on another, and ``repro.stream.random_update_batch`` relabels half of
    this small graph's users away in as many batches.)

    A perturbation is one node-level change — a user goes ``dormant``, or a
    guest user arrives liking one book — and ``follow`` / ``like_book`` /
    ``like_music`` / ``hobby`` edge toggles up to ``size // 2`` ops.  Attribute nodes
    are never removed or relabelled: losing the one ``personal development``
    node would empty the answer for the rest of the run.  Mutates *mirror*.
    """
    rng = random.Random(seed * 10_007 + 3)
    users = sorted(node for node, label in mirror.node_items() if label == "user")
    targets = {
        "follow": users,
        # the two books the planted predicate and its sibling hang on: a toggle
        # here moves some rule's match set, which keeps the answer changing
        "like_book": [PLANTED_BOOK, "book:profession development"],
        "like_music": sorted(n for n in mirror.nodes() if str(n).startswith("music:")),
        "hobby": sorted(n for n in mirror.nodes() if str(n).startswith("hobby:")),
    }
    edge_labels = sorted(targets)
    undo: list[UpdateOp] = []
    in_flight: set[tuple] = set()  # edges and nodes the perturbation being undone touched
    batches = []
    for index in range(count):
        ops = list(undo)
        for op in undo:
            op.apply(mirror)
        undo, touched = [], set()
        if index % 2:
            guest = f"guest{index}"
            book = rng.choice(targets["like_book"])
            fresh = [UpdateOp.add_node(guest, "user"), UpdateOp.add_edge(guest, book, "like_book")]
            undo.append(UpdateOp.remove_node(guest))
        else:
            # every other time it is a user the planted predicate holds for
            fans = sorted(mirror.in_neighbors(PLANTED_BOOK, "like_book"), key=str) if index % 4 else []
            free = [user for user in users if ("node", user) not in in_flight]
            user = rng.choice([user for user in fans if user in free] or free)
            fresh = [UpdateOp.relabel_node(user, "dormant")]
            undo.append(UpdateOp.relabel_node(user, "user"))
            touched.add(("node", user))
        while len(fresh) < size // 2:
            label = rng.choice(edge_labels)
            edge = (rng.choice(users), rng.choice(targets[label]), label)
            if edge[0] == edge[1] or edge in in_flight or edge in touched:
                continue
            touched.add(edge)
            if mirror.has_edge(*edge):
                fresh.append(UpdateOp.remove_edge(*edge))
                undo.append(UpdateOp.add_edge(*edge))
            else:
                fresh.append(UpdateOp.add_edge(*edge))
                undo.append(UpdateOp.remove_edge(*edge))
        for op in fresh:
            op.apply(mirror)
        in_flight = touched
        batches.append(UpdateBatch(ops=tuple(ops + fresh)))
    return batches


def shard_local_batches(
    mirror: Graph, count: int, size: int, seed: int, scale: Scale
) -> list[UpdateBatch]:
    """Batches toggling ``follow`` / ``like_book`` edges inside ONE shard each.

    A toggle removes the edge when the mirror has it and adds it otherwise,
    so every op is valid when applied in order; mutates *mirror*.
    """
    rng = random.Random(seed * 7919 + 11)
    users = [f"u{i}" for i in range(scale.shard_users)]
    books = ("book:personal development", "book:profession development")
    batches = []
    for _ in range(count):
        k = rng.randrange(scale.shards)
        ops: list[UpdateOp] = []
        chosen: set[tuple[str, str, str]] = set()
        while len(ops) < size:
            source = f"s{k}:{rng.choice(users)}"
            if rng.random() < 0.5:
                edge = (source, f"s{k}:{rng.choice(books)}", "like_book")
            else:
                edge = (source, f"s{k}:{rng.choice(users)}", "follow")
            if edge[0] == edge[1] or edge in chosen:
                continue
            chosen.add(edge)
            if mirror.has_edge(*edge):
                ops.append(UpdateOp.remove_edge(*edge))
            else:
                ops.append(UpdateOp.add_edge(*edge))
        batch = UpdateBatch(ops=tuple(ops))
        batch.apply(mirror)
        batches.append(batch)
    return batches


# ----------------------------------------------------------------------
# generated inputs + fingerprint
# ----------------------------------------------------------------------
@dataclass
class ServeInputs:
    """One serving workload's generated inputs."""

    spec: ServeSpec
    graph_doc: dict
    batches: list[UpdateBatch]
    #: The generator-side mirror with every batch applied (final state).
    mirror: Graph
    generate_s: float = 0.0
    fingerprint: str = field(default="")

    def session_request(self, rules: int, max_edges: int, history: int) -> dict:
        """``POST /sessions`` body minus the graph (inline doc or path)."""
        return {
            "predicate": PREDICATE,
            "rules": rules,
            "max_edges": max_edges,
            "d": 2,
            "seed": SIGMA_SEED,
            "eta": self.spec.eta,
            "workers": 2,
            "backend": "sequential",
            "history_limit": history,
        }


def fingerprint(graph_doc: dict, batches: list[UpdateBatch]) -> str:
    """Hash of the generated load: graph document + every update op.

    Σ is a deterministic function of the graph document and
    :data:`SIGMA_SEED`; the served rule names are folded in by
    :func:`with_rules` once the server has generated them.
    """
    digest = hashlib.sha256()
    digest.update(json.dumps(graph_doc, sort_keys=True, default=str).encode("utf-8"))
    for batch in batches:
        digest.update(json.dumps([op.as_dict() for op in batch.ops], sort_keys=True).encode("utf-8"))
    return digest.hexdigest()[:16]


def with_rules(load_fingerprint: str, rule_names: list[str]) -> str:
    """Fold the served (or mined) rule names into a load fingerprint."""
    digest = hashlib.sha256(load_fingerprint.encode("ascii"))
    digest.update(json.dumps(sorted(rule_names)).encode("utf-8"))
    return digest.hexdigest()[:16]


def build_serve_inputs(name: str, seed: int, seconds: float, scale: Scale, clock) -> ServeInputs:
    """Generate graph + update stream for serving workload *name*."""
    spec = SERVE_SPECS[name]
    ticks = WARMUP_TICKS + timed_ticks(spec, seconds, scale)
    started = clock()
    if name == "serve-hub":
        graph = hub_graph(scale)
        graph_doc = graph_to_dict(graph)
        batches = hub_batches(graph, ticks, spec.batch_ops, seed)
    else:
        graph = sharded_social(scale)
        graph_doc = graph_to_dict(graph)
        batches = shard_local_batches(graph, ticks, spec.batch_ops, seed, scale)
    return ServeInputs(
        spec=spec,
        graph_doc=graph_doc,
        batches=batches,
        mirror=graph,
        generate_s=clock() - started,
        fingerprint=fingerprint(graph_doc, batches),
    )
