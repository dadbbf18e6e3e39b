"""Subgraph-isomorphism matching of patterns against data graphs.

The paper's algorithms never need the full enumeration of matches: both the
support metrics and entity identification only ask *which data nodes can play
the role of the designated node x* (``Q(x, G)``).  The matchers therefore
expose anchored, early-terminating queries in addition to full enumeration
(which is retained for the ``disVF2`` baseline and as a test oracle).

No matcher takes an indexing option.  A query consults whatever is
*resident* for the data graph it is handed
(:func:`repro.matching.base.resident_view`): on a fragment whose owner
registered a :class:`repro.graph.columnar.ColumnarFragment` (the executors
do, for every fragment they start) label candidate sets, labelled neighbour
sets and k-hop sketches are dict lookups, the per-state degree check is an
int row comparison against a precomputed profile matrix, anchored
``match_set`` pools are label-bucketed and profile-prefiltered by the same
row comparison (docs/columnar.md).  A transient graph with
nothing registered (an extracted d-ball, the coordinator's authoritative
graph) is probed raw, and
so is any graph while a ``batch_update`` is open on it (a half-applied
state is never compiled or cached).  The answers are identical;
``tests/test_index_equivalence.py`` and
``tests/test_columnar_equivalence.py`` hold every matcher to the naive
:class:`repro.testing.ReferenceMatcher`.

Matchers
--------
Every matcher answers the paper's semantics: non-induced subgraph
isomorphism.

:class:`VF2Matcher`
    Plain backtracking subgraph isomorphism with candidate filtering, in the
    spirit of VF2 [Cordella et al. 2004].
:class:`GuidedMatcher`
    The optimised search of ``Match`` (paper Section 5.2): k-hop sketch
    pruning and best-first candidate ordering, with early termination.
:class:`LocalityMatcher`
    Restricts an anchored search to the d-neighbourhood ``Gd(vx)``, the data
    locality both DMine and Match rely on.
:class:`MultiPatternMatcher`
    Shares work across a set Σ of GPARs: antecedent-prefix match sets are
    computed once per shared prefix and every pool is profile-filtered
    before the anchored search runs.
:class:`MatchStore` / :class:`DeltaMatcher`
    Incremental match materialization for levelwise mining: parent match
    sets and embeddings are kept per fragment and a one-edge child is
    matched by probing only the new edge (docs/incremental.md).
:class:`SharedPatternPool`
    Process-wide canonical-antecedent registry across tenant rule sets:
    tenants whose rules share a canonical antecedent share one verification
    stream in multi-tenant serving (docs/multitenant.md).
"""

from repro.matching.base import Matcher, MatchStatistics
from repro.matching.candidates import (
    adjacency_profile,
    columnar_filter_candidates,
    label_candidates,
    profile_satisfies,
    required_profile,
)
from repro.matching.incremental import (
    DeltaEdge,
    DeltaMatcher,
    MatchEntry,
    MatchStore,
    single_edge_delta,
)
from repro.matching.shared import (
    SharedPatternPool,
    TenantRegistration,
    rule_key,
)
from repro.matching.vf2 import VF2Matcher
from repro.matching.guided import GuidedMatcher
from repro.matching.locality import LocalityMatcher
from repro.matching.multi import MultiPatternMatcher

__all__ = [
    "Matcher",
    "MatchStatistics",
    "VF2Matcher",
    "GuidedMatcher",
    "LocalityMatcher",
    "MultiPatternMatcher",
    "DeltaEdge",
    "DeltaMatcher",
    "MatchEntry",
    "MatchStore",
    "SharedPatternPool",
    "TenantRegistration",
    "rule_key",
    "single_edge_delta",
    "label_candidates",
    "adjacency_profile",
    "columnar_filter_candidates",
    "required_profile",
    "profile_satisfies",
]
