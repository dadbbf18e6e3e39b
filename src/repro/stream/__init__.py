"""Streaming updates: keep derived state correct while the graph changes.

The paper's workloads (social recommendation, fake-account detection) live
on graphs that mutate continuously; this package turns the repository's
static pipeline into an online one:

* :mod:`repro.stream.updates` — :class:`UpdateOp` / :class:`UpdateBatch`
  value types and the ``random_update_batch`` workload sampler; a batch is
  applied as **one** ``Graph.batch_update`` version tick;
* :mod:`repro.stream.identifier` — :class:`StreamingIdentifier`, an
  :class:`~repro.identification.eip.EIPResult` kept continuously correct by
  re-verifying only the (pattern, centre) pairs a batch can reach, in
  process, over the graph itself and its one resident structure — the one
  mechanism that keeps the per-rule match sets current (the kept matcher
  re-validates a witness before it searches).

A session is one graph in one process: it partitions nothing and starts no
worker pool (fragments are the batch ``Match`` / ``DMine`` setting of
:mod:`repro.partition`).  See ``docs/streaming.md`` for the update model,
the recheck argument and checkpoints.
"""

from repro.stream.updates import (
    OP_KINDS,
    UpdateBatch,
    UpdateOp,
    random_update_batch,
)
from repro.stream.identifier import (
    CensusMatcher,
    RuleAdmissionReport,
    StreamUpdateReport,
    StreamingIdentifier,
)
from repro.stream.multitenant import TenantAdmission

__all__ = [
    "OP_KINDS",
    "UpdateOp",
    "UpdateBatch",
    "random_update_batch",
    "CensusMatcher",
    "RuleAdmissionReport",
    "TenantAdmission",
    "StreamUpdateReport",
    "StreamingIdentifier",
]
