"""Exception hierarchy for the GPAR reproduction library.

Every error raised deliberately by :mod:`repro` derives from
:class:`ReproError`, so downstream code can catch library errors without
swallowing programming mistakes such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Raised for invalid operations on a :class:`repro.graph.Graph`."""


class NodeNotFoundError(GraphError, KeyError):
    """Raised when a node id is not present in a graph."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.node_id = node_id

    def __str__(self) -> str:  # KeyError would quote the repr otherwise
        return f"node {self.node_id!r} is not in the graph"


class EdgeNotFoundError(GraphError, KeyError):
    """Raised when an edge (source, target, label) is not present."""

    def __init__(self, source, target, label=None):
        super().__init__((source, target, label))
        self.source = source
        self.target = target
        self.label = label

    def __str__(self) -> str:
        return (
            f"edge {self.source!r} -> {self.target!r}"
            f" (label={self.label!r}) is not in the graph"
        )


class PatternError(ReproError):
    """Raised for malformed patterns or GPARs."""


class InvalidGPARError(PatternError):
    """Raised when a GPAR violates the well-formedness rules of Section 2.2.

    A practical, nontrivial GPAR must (1) be connected as a pattern,
    (2) have a non-empty antecedent, and (3) not repeat the consequent edge
    inside the antecedent.
    """


class MatchingError(ReproError):
    """Raised for invalid matching requests (e.g. unknown designated node)."""


class PartitionError(ReproError):
    """Raised when a graph cannot be fragmented as requested."""


class MiningError(ReproError):
    """Raised for invalid mining configurations (e.g. k < 1, d < 1)."""


class ExecutorError(ReproError):
    """Raised for invalid execution-backend requests (e.g. unknown backend)."""


class WorkerError(ReproError):
    """Raised when a worker task fails on any execution backend.

    Carries the fragment id of the failing worker so coordinator-side code
    (and CI logs) can attribute the failure; the original exception is
    attached as ``__cause__`` when it was raised in the same process, or
    summarised in *detail* when it crossed a process boundary.
    """

    def __init__(self, fragment_id, detail: str = ""):
        super().__init__(fragment_id, detail)
        self.fragment_id = fragment_id
        self.detail = detail

    def __str__(self) -> str:
        suffix = f": {self.detail}" if self.detail else ""
        return f"worker for fragment {self.fragment_id} failed{suffix}"


class IdentificationError(ReproError):
    """Raised for invalid entity-identification requests."""


class DatasetError(ReproError):
    """Raised when a synthetic dataset cannot be generated as requested."""


class StreamError(ReproError):
    """Raised for invalid streaming-update requests (:mod:`repro.stream`).

    Covers malformed :class:`~repro.stream.UpdateBatch` operations and
    rule sets a :class:`~repro.stream.StreamingIdentifier` cannot maintain
    incrementally (e.g. a disconnected antecedent, whose matches are not a
    function of any bounded ball around the centre)."""
