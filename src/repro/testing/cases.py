"""Regression cases: distilled counterexamples as replayable JSON.

A case file (format 1) is fully self-contained:

.. code-block:: json

    {
      "format": 1,
      "name": "census-component-edges",
      "description": "why this case exists / what bug it pinned",
      "config": {"eta": 0.5, "num_workers": 2, "seed": 0,
                 "backend": "sequential"},
      "graph": {"name": ..., "nodes": [...], "edges": [...]},
      "rules": [{"name": ..., "consequent_label": ...,
                 "antecedent": {"nodes": {...}, "edges": [[s, t, l], ...],
                                "x": ..., "y": ...}}],
      "batches": [[{"kind": ...}, ...], ...],
      "signature": [minhash ints],
      "divergence": {"batch_index": ..., "component": ..., "detail": ...}
    }

``graph`` uses :func:`repro.graph.io.graph_to_dict`; ops use
:meth:`UpdateOp.as_dict` (the serve-layer wire form).  The recorded
``divergence`` documents what the case *used to* fail with — replay runs
the differential oracle from scratch and must come back clean.

The pytest collector ``tests/test_regressions.py`` replays every
``tests/regressions/*.json`` forever; :func:`write_case` is how the storm
harness adds new ones (deduplicated by MinHash signature against the cases
already present).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from repro.graph.graph import Graph
from repro.graph.io import graph_from_dict, graph_to_dict
from repro.pattern.gpar import GPAR
from repro.pattern.pattern import Pattern
from repro.stream.updates import UpdateBatch, UpdateOp
from repro.testing.distill import DistilledCase, is_duplicate, minhash_signature
from repro.testing.oracle import DifferentialOracle, Divergence

FORMAT = 1

#: Default on-repo location of the replayed-forever corpus.
CASES_DIR = Path(__file__).resolve().parents[3] / "tests" / "regressions"


# ----------------------------------------------------------------------
# rule (de)serialization
# ----------------------------------------------------------------------
def pattern_to_dict(pattern: Pattern) -> dict:
    return {
        "nodes": {str(node): pattern.label(node) for node in sorted(pattern.nodes(), key=str)},
        "edges": [
            [edge.source, edge.target, edge.label]
            for edge in pattern.edges()
        ],
        "x": pattern.x,
        "y": pattern.y,
    }


def pattern_from_dict(document: dict) -> Pattern:
    return Pattern(
        nodes=dict(document["nodes"]),
        edges=[tuple(edge) for edge in document["edges"]],
        x=document["x"],
        y=document.get("y"),
    )


def rule_to_dict(rule: GPAR) -> dict:
    return {
        "name": rule.name,
        "consequent_label": rule.consequent_label,
        "antecedent": pattern_to_dict(rule.antecedent),
    }


def rule_from_dict(document: dict) -> GPAR:
    # validate=False: regression rules deliberately include the shapes the
    # strict constructor rejects (free nodes, disconnected components).
    return GPAR(
        pattern_from_dict(document["antecedent"]),
        consequent_label=document["consequent_label"],
        name=document.get("name"),
        validate=False,
    )


def ops_to_dicts(batch: UpdateBatch) -> list[dict]:
    return [op.as_dict() for op in batch]


def op_from_dict(document: dict) -> UpdateOp:
    kind = document["kind"]
    if kind == "add_node":
        return UpdateOp.add_node(document["node"], document["label"], document.get("attrs"))
    if kind == "remove_node":
        return UpdateOp.remove_node(document["node"])
    if kind == "relabel_node":
        return UpdateOp.relabel_node(document["node"], document["label"])
    if kind == "add_edge":
        return UpdateOp.add_edge(document["source"], document["target"], document["label"])
    if kind == "remove_edge":
        return UpdateOp.remove_edge(document["source"], document["target"], document["label"])
    raise ValueError(f"unknown op kind {kind!r}")


# ----------------------------------------------------------------------
# the case object
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RegressionCase:
    """One replayable counterexample."""

    name: str
    description: str
    graph: Graph
    rules: tuple[GPAR, ...]
    batches: tuple[UpdateBatch, ...]
    config: dict = field(default_factory=dict)
    signature: tuple[int, ...] = ()
    divergence: dict = field(default_factory=dict)

    def replay(self) -> Divergence | None:
        """Re-run the differential oracle; ``None`` means the case passes.

        A config's ``algorithm`` (older cases carry ``"match"``) is ignored:
        streaming runs ``Match`` only, and every solver answers alike.
        """
        config = dict(self.config)
        oracle = DifferentialOracle(
            self.rules,
            eta=config.get("eta", 0.5),
            num_workers=config.get("num_workers", 2),
            seed=config.get("seed", 0),
            backends=(config.get("backend", "sequential"),),
        )
        return oracle.check(self.graph, list(self.batches))


def case_to_dict(case: RegressionCase) -> dict:
    return {
        "format": FORMAT,
        "name": case.name,
        "description": case.description,
        "config": dict(case.config),
        "graph": graph_to_dict(case.graph),
        "rules": [rule_to_dict(rule) for rule in case.rules],
        "batches": [ops_to_dicts(batch) for batch in case.batches],
        "signature": list(case.signature),
        "divergence": dict(case.divergence),
    }


def case_from_dict(document: dict) -> RegressionCase:
    if document.get("format") != FORMAT:
        raise ValueError(
            f"unsupported regression case format {document.get('format')!r}"
        )
    batches = tuple(
        UpdateBatch(ops=tuple(op_from_dict(op) for op in ops))
        for ops in document["batches"]
    )
    return RegressionCase(
        name=document["name"],
        description=document.get("description", ""),
        graph=graph_from_dict(document["graph"]),
        rules=tuple(rule_from_dict(rule) for rule in document["rules"]),
        batches=batches,
        config=dict(document.get("config", {})),
        signature=tuple(document.get("signature", ())),
        divergence=dict(document.get("divergence", {})),
    )


def load_case(path: Path | str) -> RegressionCase:
    with open(path, "r", encoding="utf-8") as handle:
        return case_from_dict(json.load(handle))


def iter_case_paths(directory: Path | str = CASES_DIR) -> Iterator[Path]:
    directory = Path(directory)
    if not directory.is_dir():
        return
    yield from sorted(directory.glob("*.json"))


def write_case(case: RegressionCase, directory: Path | str = CASES_DIR) -> Path:
    """Serialize *case* to ``<directory>/<name>.json`` (pretty, sorted)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{case.name}.json"
    path.write_text(
        json.dumps(case_to_dict(case), indent=2, sort_keys=True, default=str) + "\n",
        encoding="utf-8",
    )
    return path


def from_distilled(
    name: str,
    description: str,
    distilled: DistilledCase,
    rules: Sequence[GPAR],
    config: dict,
) -> RegressionCase:
    """Package a :class:`~repro.testing.distill.DistilledCase` for the corpus."""
    divergence = distilled.divergence
    recorded = (
        {
            "batch_index": divergence.batch_index,
            "component": divergence.component,
            "backend": divergence.backend,
            "detail": divergence.detail,
        }
        if isinstance(divergence, Divergence)
        else {"detail": str(divergence)}
    )
    signature = distilled.signature or minhash_signature(distilled.batches)
    return RegressionCase(
        name=name,
        description=description,
        graph=distilled.graph,
        rules=tuple(rules),
        batches=distilled.batches,
        config=dict(config),
        signature=signature,
        divergence=recorded,
    )


def known_signatures(directory: Path | str = CASES_DIR) -> list[tuple[int, ...]]:
    """MinHash signatures of every case already in the corpus."""
    return [tuple(load_case(path).signature) for path in iter_case_paths(directory)]


def is_known(
    signature: Sequence[int], directory: Path | str = CASES_DIR
) -> bool:
    """Whether an equivalent counterexample is already committed."""
    return is_duplicate(signature, known_signatures(directory))


__all__ = [
    "CASES_DIR",
    "FORMAT",
    "RegressionCase",
    "case_from_dict",
    "case_to_dict",
    "from_distilled",
    "is_known",
    "iter_case_paths",
    "known_signatures",
    "load_case",
    "op_from_dict",
    "pattern_from_dict",
    "pattern_to_dict",
    "rule_from_dict",
    "rule_to_dict",
    "write_case",
]
