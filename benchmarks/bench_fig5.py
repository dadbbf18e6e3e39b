"""Fig. 5(a)–(f) and 5(h)–(o): the paper's DMine and Match scalability series.

One table, :data:`SERIES`, one parametrised benchmark.  Each entry names the
figure, the graph, the swept parameter and its values, what is held fixed,
and — as its description — the paper's setting and the shape the figure is
expected to show.  Every (series, value, algorithm) cell is one
``benchmark.pedantic`` call producing one :class:`repro.bench.Row`; the rows
of a figure are printed and written by ``record_series`` under the figure's
id (``benchmarks/results/fig5a.txt`` …).

What a cell asserts is what holds on these laptop-scale substitutes and can
fail:

* Match series — Match, Matchc and disVF2 return **one fingerprint** for
  each swept value (the three algorithms differ in cost, never in answer),
  and one fingerprint across the whole series where only n is swept (the
  answer does not depend on the fragmentation);
* ``identified > 0`` / ``rules > 0`` on the Pokec-like and Google+-like
  graphs, whose generators plant the regularities the predicates look for.

Deliberately not asserted: ``checks`` is identical across the three Match
algorithms; simulated time orders Match < Matchc < disVF2 on Pokec-like but
not on Google+-like; the mined rule set legitimately varies with n and
between DMine and DMineno (4 vs 61 rules on Pokec-like at n = 4); and the
synthetic graphs mine 0 rules and identify 0 to 2 entities with these
settings, so nothing is asserted on the size of their answers.
"""

from dataclasses import dataclass, field

import pytest

from repro.bench import (
    eip_workload,
    mining_workload,
    run_dmine_config,
    run_eip_config,
)

from conftest import record_series

WORKERS = (2, 4, 8)
SIZES = (600, 1200, 2400)  # nodes; the synthetic graphs have 3 × as many edges
ALGORITHMS = {"dmine": ("DMine", "DMineno"), "match": ("match", "matchc", "disvf2")}


@dataclass(frozen=True)
class Series:
    figure: str
    title: str
    kind: str  #: "dmine" | "match"
    dataset: str
    parameter: str  #: the swept column: "n", "sigma", "rules", "d" or "|G|"
    values: tuple
    description: str  #: paper setting → setting here; expected shape
    fixed: dict = field(default_factory=dict)  #: sigma (dmine) / num_rules (match)

    @property
    def planted(self) -> bool:
        """Whether the graph plants what the predicate looks for."""
        return self.dataset in ("pokec", "googleplus")


SERIES = (
    Series(
        "fig5a", "Fig 5(a): DMine varying n (Pokec-like)", "dmine", "pokec", "n", WORKERS,
        "Paper: Pokec, d = 2, σ = 5000, n = 4..20.  Here: d = 2, a proportionally scaled σ, "
        "n = 2..8 simulated workers.  Time decreases as n grows; DMine stays below DMineno.",
        {"sigma": 8},
    ),
    Series(
        "fig5b", "Fig 5(b): DMine varying n (Google+-like)", "dmine", "googleplus", "n", WORKERS,
        "Paper: Google+, d = 2, σ = 500, n = 4..20.  Shape as in Fig. 5(a).",
        {"sigma": 8},
    ),
    Series(
        "fig5c", "Fig 5(c): DMine varying sigma (Pokec-like)", "dmine", "pokec", "sigma", (6, 10, 14),
        "Paper: σ from 3k to 7k on Pokec.  Here: a proportional range, n = 4.  Smaller σ ⇒ more "
        "candidate rules survive ⇒ longer runs; DMine below DMineno and less sensitive to σ.",
    ),
    Series(
        "fig5d", "Fig 5(d): DMine varying sigma (Google+-like)", "dmine", "googleplus", "sigma",
        (6, 10, 14),
        "Same sweep as Fig. 5(c) on the Google+-like graph.",
    ),
    Series(
        "fig5e", "Fig 5(e): DMine varying n (synthetic)", "dmine", "synthetic", "n", WORKERS,
        "Paper: |G| = (10M, 20M), σ = 100, n = 4..20.  Here: ~1.2k nodes / 3.6k edges, n = 2..8.  "
        "Mines 0 rules at this scale: the series records times only.",
        {"sigma": 4},
    ),
    Series(
        "fig5f", "Fig 5(f): DMine varying |G| (synthetic)", "dmine", "synthetic", "|G|", SIZES,
        "Paper: |G| from (10M, 20M) to (50M, 100M), n = 16.  Here: 600 to 2400 nodes (edges = 3 × "
        "nodes), n = 4.  Both algorithms take longer on larger graphs, DMine below DMineno.  Mines 0 "
        "rules at these sizes.",
        {"sigma": 4},
    ),
    Series(
        "fig5h", "Fig 5(h): Match varying n (Pokec-like)", "match", "pokec", "n", WORKERS,
        "Paper: ‖Σ‖ = 24, |R| = (5, 8), d = 2, n = 4..20 on Pokec.  Here: 8 sampled rules, "
        "n = 2..8.  All three scale with n; Match fastest, disVF2 slowest.",
        {"num_rules": 8},
    ),
    Series(
        "fig5i", "Fig 5(i): Match varying n (Google+-like)", "match", "googleplus", "n", WORKERS,
        "Same sweep as Fig. 5(h) on the Google+-like graph.",
        {"num_rules": 8},
    ),
    Series(
        "fig5j", "Fig 5(j): Match varying ||Sigma|| (Pokec-like)", "match", "pokec", "rules", (4, 8, 16),
        "Paper: ‖Σ‖ from 8 to 48, n = 8, d = 2.  Here: 4 to 16 rules, n = 4.  All grow with ‖Σ‖; "
        "Match is the least sensitive because per-candidate work is shared across rules.",
    ),
    Series(
        "fig5k", "Fig 5(k): Match varying ||Sigma|| (Google+-like)", "match", "googleplus", "rules",
        (4, 8, 16),
        "Same sweep as Fig. 5(j) on the Google+-like graph.",
    ),
    Series(
        "fig5l", "Fig 5(l): Match varying d (Pokec-like)", "match", "pokec", "d", (1, 2, 3),
        "Paper: d from 1 to 5, n = 8, ‖Σ‖ = 20.  Here: 6 rules sampled with maximum radius 1 to 3, "
        "n = 4.  All slow down as d grows; Match and Matchc less sensitive than disVF2.",
        {"num_rules": 6},
    ),
    Series(
        "fig5m", "Fig 5(m): Match varying d (Google+-like)", "match", "googleplus", "d", (1, 2, 3),
        "Same sweep as Fig. 5(l) on the Google+-like graph.",
        {"num_rules": 6},
    ),
    Series(
        "fig5n", "Fig 5(n): Match varying n (synthetic)", "match", "synthetic", "n", WORKERS,
        "Paper: |G| = (50M, 100M), ‖Σ‖ = 24, η = 1.5, n = 4..20.  Here: the benchmark-scale "
        "synthetic graph, 8 rules, n = 2..8.  Identifies 2 entities: times and equal answers only.",
        {"num_rules": 8},
    ),
    Series(
        "fig5o", "Fig 5(o): Match varying |G| (synthetic)", "match", "synthetic", "|G|", SIZES,
        "Paper: |G| from (10M, 20M) to (50M, 100M), n = 4, ‖Σ‖ = 24.  Here: 600 to 2400 nodes, 8 "
        "rules, n = 4.  All grow with |G|; Match the least sensitive, disVF2 the most.  Identifies 0 "
        "to 2 entities.",
        {"num_rules": 8},
    ),
)

_rows = {series.figure: [] for series in SERIES}


@pytest.fixture(scope="module", autouse=True)
def _report():
    yield
    for series in SERIES:
        if _rows[series.figure]:
            record_series(series.figure, series.title, _rows[series.figure])


def _run_cell(series: Series, value, algorithm: str):
    """One (series, swept value, algorithm) configuration → its measured row."""
    workers = value if series.parameter == "n" else 4
    scale = value if series.parameter == "|G|" else None
    shown = f"({value},{3 * value})" if series.parameter == "|G|" else value
    if series.kind == "dmine":
        graph, predicate = mining_workload(series.dataset, scale)
        sigma = value if series.parameter == "sigma" else series.fixed["sigma"]
        return run_dmine_config(
            series.dataset, graph, predicate, workers, sigma,
            optimized=algorithm == "DMine", parameter=series.parameter, value=shown,
        )
    sampled = {"rules": {"num_rules": value}, "d": {"d": value}}.get(series.parameter, {})
    graph, rules = eip_workload(series.dataset, scale=scale, **series.fixed, **sampled)
    return run_eip_config(
        series.dataset, graph, rules, workers, algorithm, parameter=series.parameter, value=shown
    )


def _cell_id(series: Series, value, algorithm: str) -> str:
    shown = f"{value}v" if series.parameter == "|G|" else f"{series.parameter}{value}"
    return f"{series.figure}-{shown}-{algorithm}"


@pytest.mark.parametrize(
    "series, value, algorithm",
    [
        pytest.param(series, value, algorithm, id=_cell_id(series, value, algorithm))
        for series in SERIES
        for algorithm in ALGORITHMS[series.kind]
        for value in series.values
    ],
)
def test_fig5(benchmark, series, value, algorithm):
    row = benchmark.pedantic(lambda: _run_cell(series, value, algorithm), rounds=1, iterations=1)
    measured = _rows[series.figure]
    if series.kind == "match":
        # Same Σ, same graph: the answer is the algorithm's and — where only n
        # is swept — the fragmentation's invariant.
        same_question = [
            other for other in measured
            if series.parameter == "n" or other[series.parameter] == row[series.parameter]
        ]
        assert {other.fingerprint for other in same_question} <= {row.fingerprint}
    measured.append(row)
    if series.planted:
        assert row["rules" if series.kind == "dmine" else "identified"] > 0
