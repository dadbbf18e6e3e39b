"""Multi-tenant streaming: N rule sets Σ over one resident graph.

A :class:`MultiTenantIdentifier` wraps **one** :class:`StreamingIdentifier`
whose Σ is the union of *distinct canonical antecedents* across all
admitted tenants (deduplicated by the process-wide
:class:`repro.matching.SharedPatternPool`).  Each update tick therefore
verifies a touched centre once per distinct canonical antecedent — not once
per tenant — and the per-tenant answers are *projections* of the shared
per-fragment verdict state:

* admission (:meth:`admit`) registers the tenant's Σ in the pool; rules
  whose canonical key is already resident are served entirely from the
  shared verdicts (zero verification), and only the novel keys are
  backfilled through :meth:`StreamingIdentifier.admit_rules` — the *warm
  admission* of docs/multitenant.md.  The first tenant pays the cold full
  verify; the k-th pays only its novel suffix.
* reads (:meth:`result_for`) rebind each tenant rule to its representative's
  witness sets, re-run the tenant's own census plan over the projected
  reports and assemble with the tenant's rules — byte-identical to an
  independent :func:`repro.identification.eip.identify_entities` run on the
  same graph, because anchored match sets are invariant under antecedent
  isomorphism that preserves the x/y designation (exactly what canonical
  codes quotient by).
* eviction (:meth:`evict`) releases the tenant's pool references and
  retires representatives that lost their last owner from the shared core —
  without touching verdict state any remaining tenant still reads.

Writes are serialized internally; all tenants must share the consequent
predicate and the :class:`~repro.identification.eip.EIPConfig` (they
describe one physical core).  :meth:`save_state` checkpoints the union core
together with the tenant table; :meth:`restore` resumes every tenant's
projection without re-verifying (docs/lifecycle.md).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from repro.exceptions import StreamError
from repro.graph.graph import Graph
from repro.identification.census import apply_census, plan_census
from repro.identification.eip import EIPConfig, EIPResult
from repro.identification.matchc import _FragmentReport
from repro.matching.shared import SharedPatternPool
from repro.obs.registry import registry
from repro.pattern.gpar import GPAR
from repro.stream.identifier import (
    StreamingIdentifier,
    StreamUpdateReport,
    read_checkpoint,
    write_checkpoint,
)
from repro.stream.updates import UpdateBatch

__all__ = ["MultiTenantIdentifier", "TenantAdmission"]


@dataclass(frozen=True)
class TenantAdmission:
    """What admitting one tenant cost (the marginal-cost measurement surface)."""

    tenant: str
    rules: tuple[GPAR, ...]
    shared_rules: int
    novel_rules: int
    shared_prefix_hits: int
    backfill_centers: int
    cold_start: bool
    wall_time: float


class MultiTenantIdentifier:
    """Serve N tenant rule sets from one maintained streaming core.

    Parameters mirror :class:`StreamingIdentifier` minus the rules — Σ
    arrives per tenant through :meth:`admit`.  ``radius_floor`` gives the
    core headroom: tenants admitted later may need a verification radius up
    to the floor (or up to the radius the resident balls were materialized
    with) without repartitioning.
    """

    def __init__(
        self,
        graph: Graph,
        config: EIPConfig | None = None,
        radius_floor: int = 0,
        pool: SharedPatternPool | None = None,
    ) -> None:
        self.graph = graph
        self.config = config if config is not None else EIPConfig()
        self.radius_floor = radius_floor
        self.pool = pool if pool is not None else SharedPatternPool()
        self._core: StreamingIdentifier | None = None
        # The tenant table, in admission order: the admission record carries
        # each tenant's Σ; the other two are derived from it and the pool.
        self._admissions: dict[str, TenantAdmission] = {}
        self._representatives: dict[str, dict[GPAR, GPAR]] = {}
        self._census_plans: dict[str, object] = {}
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def identifier(self) -> StreamingIdentifier:
        """The shared streaming core (raises before the first admission)."""
        core = self._core
        if core is None:
            raise StreamError("no tenants admitted yet; the shared core is not built")
        return core

    @property
    def tenants(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._admissions)

    @property
    def union_rules(self) -> tuple[GPAR, ...]:
        """The distinct canonical representatives the core verifies."""
        return self.identifier.rules

    def admission_for(self, tenant: str) -> TenantAdmission:
        with self._lock:
            self._require(tenant)
            return self._admissions[tenant]

    def _require(self, tenant: str) -> tuple[GPAR, ...]:
        admission = self._admissions.get(tenant)
        if admission is None:
            raise StreamError(f"unknown tenant {tenant!r}")
        return admission.rules

    # ------------------------------------------------------------------
    def admit(self, tenant: str, rules: Sequence[GPAR]) -> TenantAdmission:
        """Admit *tenant* with its Σ; warm when the pool already covers it.

        The first admission builds the core (cold full verify).  Later
        admissions backfill **only** rules whose canonical antecedent key is
        novel across every resident Σ; fully-shared rules admit in O(1).
        """
        with self._lock:
            if self._closed:
                raise StreamError("this MultiTenantIdentifier is closed")
            started = time.perf_counter()
            registration = self.pool.register(tenant, tuple(rules))
            try:
                cold = self._core is None
                novel = registration.novel
                if cold:
                    representatives = tuple(
                        dict.fromkeys(
                            registration.representatives[rule] for rule in rules
                        )
                    )
                    self._core = StreamingIdentifier(
                        self.graph,
                        representatives,
                        config=self.config,
                        radius_floor=self.radius_floor,
                    )
                    backfill = sum(
                        len(fragment.owned_centers)
                        for fragment in self._core.fragments
                    )
                elif novel:
                    backfill = self._core.admit_rules(novel).backfill_centers
                else:
                    backfill = 0
            except BaseException:
                self.pool.release(tenant)
                raise
            admission = TenantAdmission(
                tenant=tenant,
                rules=tuple(rules),
                shared_rules=len(registration.shared),
                novel_rules=len(novel),
                shared_prefix_hits=registration.shared_prefix_hits,
                backfill_centers=backfill,
                cold_start=cold,
                wall_time=time.perf_counter() - started,
            )
            self._install(admission, registration.representatives)
            self._record_admission_metrics(admission)
            return admission

    def _install(
        self, admission: TenantAdmission, representatives: Mapping[GPAR, GPAR]
    ) -> None:
        """Enter one tenant into the tenant table (admission and restore)."""
        tenant = admission.tenant
        self._representatives[tenant] = dict(representatives)
        self._census_plans[tenant] = plan_census(admission.rules)
        self._admissions[tenant] = admission

    def evict(self, tenant: str) -> None:
        """Retire *tenant*; shared verdict state other tenants read survives.

        Representatives that lost their last owner leave the core (the last
        tenant's eviction closes it outright).
        """
        with self._lock:
            self._require(tenant)
            retired = self.pool.release(tenant)
            del self._representatives[tenant]
            del self._census_plans[tenant]
            del self._admissions[tenant]
            core = self._core
            if core is not None:
                if not self._admissions:
                    core.close()
                    self._core = None
                elif retired:
                    core.retire_rules(retired)
            registry().inc(
                "repro_tenant_evictions_total", help="Tenants evicted from shared cores"
            )

    # ------------------------------------------------------------------
    def apply(self, batch: UpdateBatch) -> StreamUpdateReport:
        """Apply *batch* once for every tenant: one verification per distinct
        canonical antecedent, verdicts fanned out at read time."""
        with self._lock:
            if self._closed:
                raise StreamError("this MultiTenantIdentifier is closed")
            core = self._core
            if core is None:
                raise StreamError("no tenants admitted; nothing maintains this graph")
            report = core.apply(batch)
            total_rules = sum(len(a.rules) for a in self._admissions.values())
            saved = report.rechecked_centers * max(0, total_rules - len(core.rules))
            metrics = registry()
            metrics.inc(
                "repro_tenant_overlay_verdicts_total",
                saved,
                help=(
                    "Per-tenant centre verdicts served from the shared "
                    "substrate instead of being re-verified"
                ),
            )
            return report

    def result_for(self, tenant: str) -> EIPResult:
        """The maintained answer for *tenant*'s Σ on the current graph.

        Byte-identical to an independent
        :func:`~repro.identification.eip.identify_entities` run with the
        tenant's rules: witness sets are rebound representative → tenant
        rule, then the tenant's own census plan and η-assembly run.
        """
        with self._lock:
            rules = self._require(tenant)
            core = self.identifier
            core.check_current()  # the union answer itself is never assembled
            representatives = self._representatives[tenant]
            plan = self._census_plans[tenant]
        projected = [
            self._project(core._reports[fragment.index], rules, representatives)
            for fragment in core.fragments
        ]
        reports = apply_census(self.graph, rules, projected, plan)
        return core._solver._assemble(list(rules), reports)

    @staticmethod
    def _project(
        stored: _FragmentReport,
        rules: tuple[GPAR, ...],
        representatives: Mapping[GPAR, GPAR],
    ) -> _FragmentReport:
        """Rebind one fragment's shared verdicts to a tenant's rule objects."""
        projected = _FragmentReport(
            fragment_index=stored.fragment_index,
            supp_q=stored.supp_q,
            supp_q_bar=stored.supp_q_bar,
            candidates_examined=stored.candidates_examined,
            prefix_pool_hits=stored.prefix_pool_hits,
            positives=stored.positives,
            negatives=stored.negatives,
        )
        for rule in rules:
            representative = representatives[rule]
            projected.rule_matches[rule] = stored.rule_matches.get(
                representative, set()
            )
            projected.antecedent_sets[rule] = stored.antecedent_sets.get(
                representative, set()
            )
            projected.antecedent_counts[rule] = stored.antecedent_counts.get(
                representative, 0
            )
            projected.qbar_counts[rule] = stored.qbar_counts.get(representative, 0)
        return projected

    def recompute_for(self, tenant: str) -> EIPResult:
        """From-scratch answer for *tenant* (the equivalence baseline)."""
        with self._lock:
            rules, core = self._require(tenant), self.identifier
        return core.recompute(rules)

    # ------------------------------------------------------------------
    # durable state: the union core's checkpoint plus the tenant table
    # ------------------------------------------------------------------
    def save_state(self, path: Path | str) -> Path:
        """Checkpoint the shared core and every tenant riding on it.

        One pickle: the union core's own checkpoint
        (:meth:`StreamingIdentifier.state_dict` — so
        :meth:`StreamingIdentifier.restore` can resume the bare union core
        from the same file) plus ``tenants`` (the admission records, which
        carry each tenant's Σ, in admission order) and ``representatives``
        (the pool's key → representative map: a representative can outlive
        the tenant that introduced it, and the saved verdicts are keyed by
        it).  Replaced atomically, like every stream-state file.
        """
        with self._lock:
            core = self.identifier
            state = core.state_dict()
            state["tenants"] = list(self._admissions.values())
            state["representatives"] = self.pool.representatives()
            return write_checkpoint(Path(path), state)

    @classmethod
    def restore(
        cls,
        path: Path | str,
        backend: str | None = None,
        executor_workers: int | None = None,
    ) -> "MultiTenantIdentifier":
        """Resume a checkpointed shared core with all its tenants admitted.

        No verification runs: the union core resumes from its stored
        verdicts and each tenant re-registers against the saved
        representatives, so every :meth:`result_for` is byte-identical to
        the one checkpointed.
        """
        state = read_checkpoint(path)
        if "tenants" not in state or "representatives" not in state:
            raise StreamError(
                f"{path} checkpoints a bare StreamingIdentifier, not a shared "
                "core; resume it with StreamingIdentifier.restore"
            )
        pool = SharedPatternPool(state["representatives"])
        registrations = [
            (admission, pool.register(admission.tenant, admission.rules))
            for admission in state["tenants"]
        ]
        core = StreamingIdentifier.from_state(state, backend, executor_workers)
        multi = cls(
            core.graph,
            config=core.config,
            radius_floor=core.radius_floor,
            pool=pool,
        )
        multi._core = core
        for admission, registration in registrations:
            multi._install(admission, registration.representatives)
        return multi

    # ------------------------------------------------------------------
    def _record_admission_metrics(self, admission: TenantAdmission) -> None:
        metrics = registry()
        metrics.inc(
            "repro_tenant_admissions_total", help="Tenants admitted to shared cores"
        )
        metrics.inc(
            "repro_tenant_shared_rules_total",
            admission.shared_rules,
            help="Admitted rules fully served by a resident canonical antecedent",
        )
        metrics.inc(
            "repro_tenant_novel_rules_total",
            admission.novel_rules,
            help="Admitted rules that required a backfill verification",
        )
        metrics.inc(
            "repro_tenant_shared_prefix_hits_total",
            admission.shared_prefix_hits,
            help="Antecedent prefixes already resident for another tenant",
        )
        metrics.inc(
            "repro_tenant_admission_backfill_centers_total",
            admission.backfill_centers,
            help="Centres verified during admission backfills (0 = fully warm)",
        )

    def close(self) -> None:
        """Release every tenant and the shared core's worker pool."""
        with self._lock:
            if self._closed:
                return
            for tenant in self._admissions:
                self.pool.release(tenant)
            self._representatives.clear()
            self._census_plans.clear()
            self._admissions.clear()
            if self._core is not None:
                self._core.close()
                self._core = None
            self._closed = True

    def __enter__(self) -> "MultiTenantIdentifier":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
