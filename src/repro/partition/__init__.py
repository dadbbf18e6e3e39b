"""Graph fragmentation for the parallel algorithms (Sections 4.2 and 5.1).

Both DMine and Match divide the data graph into fragments such that

* every candidate centre node ``vx`` (a node that can match the designated
  node x of the predicate) has its whole d-neighbourhood ``Gd(vx)`` inside a
  single fragment, and
* fragments have roughly even size.

Candidate *ownership* is disjoint across fragments, so global supports are
the plain sums of fragment-local supports.
"""

from repro.partition.fragment import Fragment
from repro.partition.partitioner import partition_graph, shared_fragments

__all__ = [
    "Fragment",
    "partition_graph",
    "shared_fragments",
]
