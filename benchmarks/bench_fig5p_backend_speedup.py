"""Fig. 5(p) — reproduction extra: real wall-clock speedup per backend.

The paper's scalability figures report *simulated* parallel time (max worker
time + coordinator time per round), which is deterministic but never shows a
real multi-core win.  This series runs the same DMine and Match
configurations on the sequential and process backends and reports the
measured wall-clock speedup of the pool over sequential — the number that
should track the processor count on real hardware (Exp-1/Exp-3 headline
claim).  On a single-core machine the process backend legitimately reports
≈1x or below; the series is about the measurement machinery, so rows only
assert result equivalence, not a speedup floor.
"""

import pytest

from repro.bench import (
    eip_workload,
    mining_workload,
    run_dmine_backends,
    run_eip_backends,
)

from conftest import record_series

BACKENDS = ("sequential", "processes")
WORKERS = 4
SIGMA = 4
_rows = []


@pytest.fixture(scope="module", autouse=True)
def _report():
    yield
    record_series(
        "fig5p", "Fig 5(p): real wall-clock speedup per execution backend", _rows
    )


def test_dmine_backend_speedup(benchmark):
    graph, predicate = mining_workload("synthetic")
    rows = benchmark.pedantic(
        lambda: run_dmine_backends(
            "synthetic", graph, predicate,
            workers=WORKERS, sigma=SIGMA, backends=BACKENDS,
        ),
        rounds=1,
        iterations=1,
    )
    _rows.extend(rows)
    # Both backends must mine the same rule set (the correctness gate): the
    # fingerprint hashes rule structure + support + confidence.
    assert len({row.fingerprint for row in rows}) == 1


def test_match_backend_speedup(benchmark):
    graph, rules = eip_workload("synthetic", num_rules=6)
    rows = benchmark.pedantic(
        lambda: run_eip_backends(
            "synthetic", graph, rules,
            workers=WORKERS, algorithm="match", eta=0.5, backends=BACKENDS,
        ),
        rounds=1,
        iterations=1,
    )
    _rows.extend(rows)
    assert len({row.fingerprint for row in rows}) == 1
