"""A retired name the repo benchmark's wrap table still lists.

Sessions verify over their one graph in process (``docs/streaming.md``),
so nothing keeps fragment residency, slices, leases or compaction any
more.  ``benchmarks/e2e/wraps.py`` still names three methods of the old
manager and fails when a row stops resolving; ROADMAP 1(c) retargets that
table and deletes this module.  Nothing in ``src/`` uses it.
"""

from __future__ import annotations


class FragmentManager:
    """Retired: no instance is ever made, and every method raises."""

    def derive_batch(self, delta):
        raise NotImplementedError("the fragment lifecycle is retired")

    lease = maybe_compact = derive_batch
