"""Adversarial testing harness: storms, differential oracle, distillation.

The streaming subsystem's equivalence tests replay *uniform* random churn;
this package supplies the adversarial half (see ``docs/adversarial.md``):

* :mod:`repro.testing.storms` — correlated churn generators registered in
  :data:`STORM_FAMILIES`;
* :mod:`repro.testing.oracle` — :class:`DifferentialOracle`, which runs
  maintained streaming state against fresh recomputes after every batch
  and reports the first :class:`Divergence` per configuration, plus
  :func:`multi_tenant_check`, the cross-Σ oracle asserting shared-core
  tenant projections stay byte-identical to independent runs;
* :mod:`repro.testing.reference` — :class:`ReferenceMatcher` /
  :func:`reference_identify`: the one deliberately naive implementation
  every production matching path is held equal to,
  :func:`identify_sequential`, the unpartitioned EIP evaluation it wraps, and
  mining's naive twins :func:`reference_extension_keys` /
  :func:`reference_group_automorphic` (exact isomorphism by
  :func:`are_isomorphic` / :func:`gpars_automorphic`), and the
  partitioner's set-decoding greedy :func:`reference_balance`;
* :mod:`repro.testing.probes` — read-only probes of production objects
  (:func:`structure_equal`, registry reads, resident labels and sketches) and the
  resets between cases (:func:`reset_metrics`, :func:`discard_columnar`,
  :func:`disable_collection`);
* :mod:`repro.testing.distill` — greedy delta-debugging
  (:func:`distill`) plus MinHash dedup of counterexamples;
* :mod:`repro.testing.cases` — the ``tests/regressions/*.json`` corpus:
  distilled counterexamples replayed forever by the pytest collector.
"""

from repro.testing.cases import (
    CASES_DIR,
    RegressionCase,
    from_distilled,
    is_known,
    iter_case_paths,
    load_case,
    write_case,
)
from repro.testing.distill import (
    DistilledCase,
    distill,
    estimated_similarity,
    is_duplicate,
    minhash_signature,
)
from repro.testing.oracle import (
    DifferentialOracle,
    Divergence,
    OracleReport,
    TenantDivergence,
    apply_with_coverage,
    eip_fingerprint,
    multi_tenant_check,
    served_antecedent_sets,
)
from repro.testing.probes import (
    counter_value,
    counters,
    decoded_sketch,
    disable_collection,
    discard_columnar,
    reset_metrics,
    resident_label,
    resident_sketch,
    structure_equal,
)
from repro.testing.reference import (
    ReferenceMatcher,
    are_isomorphic,
    candidate_extensions,
    gpars_automorphic,
    identify_sequential,
    reference_balance,
    reference_extension_keys,
    reference_group_automorphic,
    reference_identify,
    reference_recheck,
    reference_recheck_pairs,
)
from repro.testing.storms import (
    STORM_FAMILIES,
    ball_burst_storm,
    correlated_deletion_storm,
    hub_churn_storm,
    label_flip_storm,
)

__all__ = [
    "CASES_DIR",
    "DifferentialOracle",
    "DistilledCase",
    "Divergence",
    "OracleReport",
    "ReferenceMatcher",
    "RegressionCase",
    "STORM_FAMILIES",
    "TenantDivergence",
    "apply_with_coverage",
    "are_isomorphic",
    "ball_burst_storm",
    "candidate_extensions",
    "correlated_deletion_storm",
    "counter_value",
    "counters",
    "decoded_sketch",
    "disable_collection",
    "discard_columnar",
    "distill",
    "eip_fingerprint",
    "estimated_similarity",
    "from_distilled",
    "gpars_automorphic",
    "hub_churn_storm",
    "identify_sequential",
    "is_duplicate",
    "is_known",
    "iter_case_paths",
    "label_flip_storm",
    "load_case",
    "minhash_signature",
    "multi_tenant_check",
    "reference_balance",
    "reference_extension_keys",
    "reference_group_automorphic",
    "reference_identify",
    "reference_recheck",
    "reference_recheck_pairs",
    "reset_metrics",
    "resident_label",
    "resident_sketch",
    "served_antecedent_sets",
    "structure_equal",
    "write_case",
]
