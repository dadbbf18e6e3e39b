"""Streaming updates: keep derived state correct while the graph changes.

The paper's workloads (social recommendation, fake-account detection) live
on graphs that mutate continuously; this package turns the repository's
static pipeline into an online one:

* :mod:`repro.stream.updates` — :class:`UpdateOp` / :class:`UpdateBatch`
  value types and the ``random_update_batch`` workload sampler; a batch is
  applied as **one** ``Graph.batch_update`` version tick;
* :mod:`repro.stream.identifier` — :class:`StreamingIdentifier`, an
  :class:`~repro.identification.eip.EIPResult` kept continuously correct by
  re-verifying only candidate centres inside the d-hop balls of the nodes a
  batch touched, with update slices shipped to the persistent worker pool
  so fragment-resident graphs and indexes stay in sync without re-pickling
  graphs — the one mechanism that keeps the per-rule match sets current
  (workers re-validate a kept witness before they search).

Fragment residency itself — refcounted ball membership with
deletion-driven shedding, checkpointed log compaction, centre ownership
fixed at partition time — lives in :mod:`repro.partition.lifecycle` and is
driven from here.  See ``docs/streaming.md`` for the update model and the
ball-scoped invalidation argument, and ``docs/lifecycle.md`` for the
lifecycle layer.
"""

from repro.stream.updates import (
    OP_KINDS,
    UpdateBatch,
    UpdateOp,
    random_update_batch,
)
from repro.stream.identifier import (
    CensusMatcher,
    FragmentUpdate,
    RuleAdmissionReport,
    StreamUpdateReport,
    StreamVerifyPayload,
    StreamingIdentifier,
    stream_update_worker,
)
from repro.stream.multitenant import TenantAdmission

__all__ = [
    "OP_KINDS",
    "UpdateOp",
    "UpdateBatch",
    "random_update_batch",
    "CensusMatcher",
    "FragmentUpdate",
    "RuleAdmissionReport",
    "TenantAdmission",
    "StreamVerifyPayload",
    "StreamUpdateReport",
    "StreamingIdentifier",
    "stream_update_worker",
]
