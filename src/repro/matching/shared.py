"""Cross-Σ antecedent sharing: the process-wide :class:`SharedPatternPool`.

One resident graph can serve many tenants, each with their own rule set Σ.
Their antecedents overlap heavily in practice (tenants mine from the same
graph), yet without coordination every tenant's identifier re-materializes
every antecedent match set from scratch.  The pool is the coordination
point: it canonicalizes antecedents across all registered Σ with
:func:`repro.pattern.canonical.canonical_code` — codes respect the x/y
designation, so equal codes mean identical anchored match sets — and keeps
one *representative* :class:`~repro.pattern.gpar.GPAR` per distinct
``(antecedent code, consequent label)`` key.  A streaming core then verifies
each touched centre once per distinct key, not once per tenant, and the
verdicts fan out to every tenant whose rule maps to that key
(docs/multitenant.md).

Prefix-level sharing is tracked too: the pool records every antecedent
prefix from :func:`repro.matching.multi.prefix_chain`, so a tenant whose
rules share only a *prefix* with resident rules still registers
``shared_prefix_hits`` — the trie inside
:meth:`~repro.matching.multi.MultiPatternMatcher.shared_match_sets` pools
exactly those prefixes at verify time.

The pool itself is pure bookkeeping (no graph access, thread-safe); the
verification reuse happens in :class:`repro.stream.MultiTenantIdentifier`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Mapping

from repro.exceptions import ReproError
from repro.matching.multi import prefix_chain
from repro.pattern.canonical import canonical_code
from repro.pattern.gpar import GPAR
from repro.pattern.pattern import Pattern

__all__ = ["PoolStatistics", "SharedPatternPool", "TenantRegistration", "rule_key"]


def rule_key(rule: GPAR) -> str:
    """Canonical cross-Σ identity of *rule*: antecedent code + consequent.

    Two rules with equal keys have byte-identical verdicts on every graph
    (the antecedent code fixes ``Q(x, G)`` up to isomorphism *including*
    the x/y designation; the consequent label fixes ``q(x, y)``), so one
    verification serves both.
    """
    return f"{canonical_code(rule.antecedent)}=>{rule.consequent_label}"


@dataclass(frozen=True)
class TenantRegistration:
    """Outcome of admitting one tenant's Σ into the pool.

    ``representatives`` maps each of the tenant's rules to the pool-wide
    representative rule its verdicts are read from; ``novel`` are the rules
    this registration introduced (they *are* their own representatives) and
    ``shared`` the rules fully served by an already-resident key.
    """

    tenant: str
    keys: dict[GPAR, str]
    representatives: dict[GPAR, GPAR]
    novel: tuple[GPAR, ...]
    shared: tuple[GPAR, ...]
    shared_prefix_hits: int


@dataclass
class PoolStatistics:
    """Counters mirrored into ``repro_tenant_*`` metrics by the admitters."""

    registrations: int = 0
    shared_rules: int = 0
    novel_rules: int = 0
    shared_prefix_hits: int = 0
    released: int = 0


@dataclass
class _KeyState:
    representative: GPAR
    owners: set[str] = field(default_factory=set)


class SharedPatternPool:
    """Process-wide registry of canonical antecedents across tenant Σ.

    ``register`` admits a tenant's rules, deduplicating against every
    resident Σ; ``release`` retires a tenant and reports which
    representatives became unowned (their match state can be dropped from
    the shared core).  All methods are thread-safe.

    ``representatives`` seeds the key → representative map (still
    ownerless) before any registration: a pool rebuilt from a checkpoint
    re-registers its tenants against the representatives the saved verdict
    state is keyed by, whichever tenant — possibly evicted since —
    introduced them.
    """

    def __init__(self, representatives: Mapping[str, GPAR] | None = None) -> None:
        self._lock = threading.Lock()
        self._keys: dict[str, _KeyState] = {
            key: _KeyState(representative=rule)
            for key, rule in (representatives or {}).items()
        }
        self._tenants: dict[str, dict[GPAR, str]] = {}
        self._prefix_owners: dict[Pattern, set[str]] = {}
        self.statistics = PoolStatistics()

    def __len__(self) -> int:
        return len(self._keys)

    def representatives(self) -> dict[str, GPAR]:
        """The resident key → representative map (what a checkpoint saves)."""
        with self._lock:
            return {key: state.representative for key, state in self._keys.items()}

    def register(self, tenant: str, rules: tuple[GPAR, ...] | list[GPAR]) -> TenantRegistration:
        """Admit *tenant*'s Σ; returns the sharing map for its rules."""
        if not rules:
            raise ReproError(f"tenant {tenant!r} registered an empty rule set")
        with self._lock:
            if tenant in self._tenants:
                raise ReproError(f"tenant {tenant!r} is already registered")
            keys: dict[GPAR, str] = {}
            representatives: dict[GPAR, GPAR] = {}
            novel: list[GPAR] = []
            shared: list[GPAR] = []
            prefix_hits = 0
            for rule in rules:
                key = rule_key(rule)
                state = self._keys.get(key)
                if state is None:
                    state = self._keys[key] = _KeyState(representative=rule)
                    novel.append(rule)
                elif rule not in keys:
                    shared.append(rule)
                state.owners.add(tenant)
                keys[rule] = key
                representatives[rule] = state.representative
                for prefix in prefix_chain(rule.antecedent):
                    owners = self._prefix_owners.setdefault(prefix, set())
                    if owners - {tenant}:
                        prefix_hits += 1
                    owners.add(tenant)
            self._tenants[tenant] = keys
            stats = self.statistics
            stats.registrations += 1
            stats.shared_rules += len(shared)
            stats.novel_rules += len(novel)
            stats.shared_prefix_hits += prefix_hits
            return TenantRegistration(
                tenant=tenant,
                keys=keys,
                representatives=representatives,
                novel=tuple(novel),
                shared=tuple(shared),
                shared_prefix_hits=prefix_hits,
            )

    def release(self, tenant: str) -> tuple[GPAR, ...]:
        """Retire *tenant*; returns representatives that lost their last owner."""
        with self._lock:
            keys = self._tenants.pop(tenant, None)
            if keys is None:
                return ()
            retired: list[GPAR] = []
            for key in dict.fromkeys(keys.values()):
                state = self._keys.get(key)
                if state is None:
                    continue
                state.owners.discard(tenant)
                if not state.owners:
                    retired.append(state.representative)
                    del self._keys[key]
            for prefix in list(self._prefix_owners):
                owners = self._prefix_owners[prefix]
                owners.discard(tenant)
                if not owners:
                    del self._prefix_owners[prefix]
            self.statistics.released += 1
            return tuple(retired)
