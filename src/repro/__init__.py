"""repro — reproduction of "Association Rules with Graph Patterns" (VLDB 2015).

The package implements graph-pattern association rules (GPARs) end to end:

* :mod:`repro.graph` — the property-graph substrate;
* :mod:`repro.pattern` — patterns, GPARs, canonical codes and automorphic grouping;
* :mod:`repro.matching` — subgraph-isomorphism matchers;
* :mod:`repro.metrics` — topological support, LCWA Bayes-factor confidence,
  diversification objective;
* :mod:`repro.partition` / :mod:`repro.parallel` — fragmentation and the
  simulated coordinator/worker BSP runtime;
* :mod:`repro.mining` — the DMine diversified top-k miner (DMP);
* :mod:`repro.identification` — the Match/Matchc/disVF2 entity identifiers
  (EIP);
* :mod:`repro.stream` — streaming updates: batched graph mutations with
  delta-repaired indexes/match stores and a continuously-correct EIP
  answer (:class:`repro.stream.StreamingIdentifier`);
* :mod:`repro.datasets` — the paper's running examples plus synthetic and
  social-graph generators.

Quickstart
----------
>>> from repro.datasets import graph_g1, rule_r1
>>> from repro.metrics import evaluate_rule
>>> evaluation = evaluate_rule(graph_g1(), rule_r1())
>>> round(evaluation.confidence, 3)
0.6
"""

from repro.graph import Graph, GraphBuilder
from repro.pattern import GPAR, Pattern, PatternBuilder
from repro.matching import GuidedMatcher, VF2Matcher
from repro.metrics import evaluate_rule

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "GraphBuilder",
    "Pattern",
    "PatternBuilder",
    "GPAR",
    "VF2Matcher",
    "GuidedMatcher",
    "evaluate_rule",
    "__version__",
]
