"""Property-graph substrate.

The paper operates on directed graphs ``G = (V, E, L)`` whose nodes and edges
both carry labels (Section 2.1).  :class:`repro.graph.Graph` implements that
model with the indexes the mining and matching algorithms need:

* a label index (``nodes_with_label``) used to seed candidate sets,
* per-label adjacency (``out_neighbors(v, label)``) used by the matchers,
* bounded BFS for ``Gd(vx)`` d-neighbourhood extraction (:mod:`neighborhood`),
* k-hop label-frequency sketches used by guided search (:mod:`sketch`),
* the one fragment-resident structure of the matching hot path,
  :class:`ColumnarFragment` — label buckets and a profile matrix over
  interned label ids (stdlib ``array('q')`` buffers), plus memoised
  frozen adjacency views and a k-hop sketch cache (:mod:`columnar`).
"""

from repro.graph.graph import DELTA_LOG_SIZE, Edge, Graph, GraphBatch, GraphDelta
from repro.graph.builder import GraphBuilder
from repro.graph.columnar import (
    ColumnarFragment,
    ColumnarStatistics,
    LabelTable,
    columnar_view,
    registered_columnar,
)
from repro.graph.neighborhood import (
    ball,
    bfs_distances,
    eccentricity,
)
from repro.graph.sketch import (
    KHopSketch,
    build_sketch,
    empty_sketch,
    sketch_dominates,
)
from repro.graph.io import (
    graph_from_dict,
    graph_to_dict,
    load_graph_json,
    save_graph_json,
)

__all__ = [
    "DELTA_LOG_SIZE",
    "Edge",
    "Graph",
    "GraphBatch",
    "GraphDelta",
    "GraphBuilder",
    "ball",
    "bfs_distances",
    "eccentricity",
    "KHopSketch",
    "build_sketch",
    "empty_sketch",
    "sketch_dominates",
    "ColumnarFragment",
    "ColumnarStatistics",
    "LabelTable",
    "columnar_view",
    "registered_columnar",
    "graph_from_dict",
    "graph_to_dict",
    "load_graph_json",
    "save_graph_json",
]
