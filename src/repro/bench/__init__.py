"""Benchmark harness shared by the ``benchmarks/`` suite.

Each benchmark module under ``benchmarks/`` regenerates one table or figure
of the paper's evaluation (Section 6).  The helpers here build the workloads
(graphs, predicates, rule sets Σ), run one configuration of DMine / DMineno /
Match / Matchc / disVF2 on any execution backend, and format the measured
series — as the paper-style text tables and as machine-readable JSON for the
CI perf trajectory.  ``python -m repro.bench.smoke`` runs a tiny workload per
algorithm family as a fast regression canary for the process backend.
"""

from repro.bench.workloads import eip_workload, mining_workload
from repro.bench.harness import (
    Row,
    run_dmine_backends,
    run_dmine_config,
    run_eip_backends,
    run_eip_config,
)
from repro.bench.reporting import format_rows, print_series, rows_as_json, wall_speedups

__all__ = [
    "mining_workload",
    "eip_workload",
    "Row",
    "run_dmine_config",
    "run_eip_config",
    "run_dmine_backends",
    "run_eip_backends",
    "format_rows",
    "print_series",
    "rows_as_json",
    "wall_speedups",
]
