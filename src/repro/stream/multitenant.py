"""The admission record of one tenant of a shared core.

N tenant rule sets Σ are served over one resident graph by
:class:`repro.api.SharedSessionCore` (docs/multitenant.md).  What admitting
one tenant cost is a :class:`TenantAdmission`; it lives here because core
checkpoints pickle their tenant table under this module's path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pattern.gpar import GPAR

__all__ = ["TenantAdmission"]


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


def __getattr__(name: str):
    # ``MultiTenantIdentifier`` is the old name of the shared core's stream
    # side, kept only because the repo benchmark's wrap table
    # (benchmarks/e2e/wraps.py) still names its admit/apply/result_for here.
    # Resolved lazily: repro.api imports this module.
    if name == "MultiTenantIdentifier":
        from repro.api import SharedSessionCore

        return SharedSessionCore
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
