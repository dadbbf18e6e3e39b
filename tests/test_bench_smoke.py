"""Every bench-smoke family through the real ``repro.bench.smoke`` loop.

Each family of :data:`SCENARIOS` runs once, sequentially, at a tiny scale
(``TINY`` shrinks the scale and the longest sequences; everything else is
the table row CI runs), through :func:`run_family` — build, run, write JSON,
print, generic checks, gates.  Then every check is shown to bite: the same
rows, doctored, must fail :func:`check_rows`.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.bench import Row, rows_as_json
from repro.bench import smoke
from repro.bench.smoke import SCENARIOS, check_rows, run_family

WORKERS = 2

#: family → (scale, overrides of the table row's runner constants).
TINY = {
    "dmine": (100, {}),
    "match": (100, {}),
    "stream": (400, {}),
    "churn": (400, {"num_batches": 8}),
    "lifecycle": (400, {}),
    "tenant": (800, {}),
    "storm": (100, {}),
    "obs": (400, {"reps": 2}),
}


def test_tiny_table_covers_every_family():
    assert set(TINY) == set(SCENARIOS)


@pytest.fixture(scope="module")
def family_runs(tmp_path_factory):
    """family → (rows, JSON path), each family run at most once per module."""
    runs: dict[str, tuple[list[Row], object]] = {}

    def run(family: str):
        if family not in runs:
            scale, overrides = TINY[family]
            scenario = SCENARIOS[family]
            tiny = replace(scenario, params={**scenario.params, **overrides})
            out = tmp_path_factory.mktemp(family) / f"BENCH_{family}.json"
            with pytest.MonkeyPatch.context() as patch:
                patch.setitem(SCENARIOS, family, tiny)
                runs[family] = (run_family(family, "sequential", WORKERS, scale, out), out)
        return runs[family]

    return run


@pytest.mark.parametrize("family", list(SCENARIOS))
def test_family_runs_green_through_the_loop(family, family_runs):
    rows, out = family_runs(family)
    assert rows and all(isinstance(row, Row) for row in rows)
    for row in rows:
        shown = row.as_dict()
        assert {"dataset", "backend", "wall_s"} <= set(shown)
        assert ("mode" in shown) == (row.mode is not None)
        assert ("fingerprint" in shown) == (row.fingerprint is not None)
        assert row.backend in ("sequential", "in-process")
    # The JSON on disk is the rows, and survives a second trip.
    written = json.loads(out.read_text())
    assert written["name"] == f"smoke_{family}"
    assert written["rows"] == [row.as_dict() for row in rows]
    assert json.loads(rows_as_json("again", "t", written["rows"]))["rows"] == written["rows"]
    # Every row prints under exactly one section of the table.
    for row in rows:
        assert sum(section.select(row) for section in SCENARIOS[family].sections) == 1


def _doctor(rows, where, fingerprint=None, **columns):
    """Copy of *rows* with the first row matching *where* altered."""
    index = next(position for position, row in enumerate(rows) if where(row))
    row = rows[index]
    changed = replace(row, columns={**row.columns, **columns})
    if fingerprint is not None:
        changed = replace(changed, fingerprint=fingerprint)
    return [*rows[:index], changed, *rows[index + 1 :]]


def _session_repair(row):
    return row.mode == "repair" and row.backend == "sequential"


def _mode(mode):
    return lambda row: row.mode == mode


def _last(rows):
    return lambda row: row is rows[-1]


def _anywhere(row):
    return True


#: family → [(what the doctored rows break, doctor(rows) → rows, message)]
DOCTORED = {
    "dmine": [
        ("empty rule set", lambda rows: _doctor(rows, _anywhere, rules=0), "vacuous"),
        ("diverged backend", lambda rows: [*rows, replace(rows[0], backend="processes", fingerprint="x")],
         "diverged"),
    ],
    "match": [
        ("empty answer", lambda rows: _doctor(rows, _anywhere, identified=0), "vacuous"),
        ("diverged backend", lambda rows: [*rows, replace(rows[0], backend="processes", fingerprint="x")],
         "diverged"),
    ],
    "stream": [
        ("empty answer", lambda rows: _doctor(rows, _mode("repair"), identified=0), "vacuous"),
        # Each session is held equal to a recompute in-run; across backends
        # the rows must then agree.
        ("repair != recompute",
         lambda rows: [*rows, replace(rows[0], backend="processes", fingerprint="x")], "diverged"),
        ("slow sequential repair",
         lambda rows: _doctor(rows, _session_repair, witness_hits=30, matches_found=10),
         "sequential match ticks searched 10 positive pairs against 30"),
        ("witness store never hit", lambda rows: _doctor(rows, _session_repair, witness_hits=0),
         "against 0 answered by a kept witness"),
        ("sequential repair re-decides everything",
         lambda rows: _doctor(rows, _session_repair, rechecked=10**6),
         "sequential match repair re-decided 1000000 centres"),
    ],
    "churn": [
        ("empty answer", lambda rows: _doctor(rows, _last(rows), identified=0), "vacuous"),
        ("growing resident trajectory",
         lambda rows: _doctor(rows, _last(rows), resident_nodes=10**6), "resident fragment nodes grew"),
        ("uncompacted log", lambda rows: _doctor(rows, _anywhere, log_ops=10**6), "compaction bound"),
    ],
    "lifecycle": [
        ("empty answer", lambda rows: _doctor(rows, _mode("restored"), identified=0), "vacuous"),
        ("restored != checkpointed",
         lambda rows: _doctor(rows, _mode("restored"), fingerprint="x"), "diverged"),
        ("two-tenant restore diverged",
         lambda rows: _doctor(rows, _last(rows), fingerprint="x+y"), "two-tenant"),
    ],
    "tenant": [
        ("empty answer", lambda rows: _doctor(rows, _mode("admit"), identified=0), "vacuous"),
        ("steady != single", lambda rows: _doctor(rows, _mode("steady"), fingerprint="x"), "diverged"),
        ("no dedup", lambda rows: _doctor(rows, _mode("steady"), union_rules=48), "dedup is not biting"),
        ("steady verifies per tenant",
         lambda rows: _doctor(rows, _mode("steady"), verified_centers=10**6), "shared core verified"),
        ("warm admission as dear as cold",
         lambda rows: _doctor(rows, _last([r for r in rows if r.mode == "admit"]), novel_rules=6),
         "centre-rule verifications"),
        ("prefix sharing died",
         lambda rows: [replace(row, columns={**row.columns, "shared_prefix_hits": 0}) for row in rows],
         "zero shared-prefix hits"),
    ],
    "storm": [
        ("a divergence", lambda rows: _doctor(rows, _anywhere, divergences=1), "storm regression"),
        ("empty answer", lambda rows: _doctor(rows, _anywhere, identified=0), "vacuous"),
        ("unchanging answer",
         lambda rows: [replace(row, columns={**row.columns, "answers": 1}) for row in rows],
         "no storm family changed the identified set"),
        ("unchanging match sets",
         lambda rows: [replace(row, columns={**row.columns, "match_answers": 1}) for row in rows],
         "no storm family changed the served antecedent match sets"),
    ],
    "obs": [
        ("empty answer", lambda rows: _doctor(rows, _anywhere, identified=0), "vacuous"),
        ("instrumentation changed the answer",
         lambda rows: _doctor(rows, _mode("instrumented"), fingerprint="x"), "diverged"),
        ("no spans", lambda rows: _doctor(rows, _mode("instrumented"), spans=0), "zero spans"),
        ("over-budget span count",
         lambda rows: _doctor(rows, _mode("instrumented"), spans_per_tick=31.0), "spans per tick"),
        ("estimated overhead",
         lambda rows: _doctor(rows, _mode("instrumented"), est_overhead_pct=5.5), "estimated"),
    ],
}


def test_every_family_has_doctored_rows():
    assert set(DOCTORED) == set(SCENARIOS)


@pytest.mark.parametrize(
    "family, doctor, message",
    [
        pytest.param(family, doctor, message, id=f"{family}-{what.replace(' ', '-')}")
        for family, cases in DOCTORED.items()
        for what, doctor, message in cases
    ],
)
def test_checks_fail_on_doctored_rows(family, doctor, message, family_runs):
    rows, _out = family_runs(family)
    with pytest.raises(SystemExit, match=message):
        check_rows(SCENARIOS[family], doctor(rows), WORKERS)


def test_stream_gate_holds_on_the_counter(family_runs):
    rows, _out = family_runs("stream")
    session = next(row for row in rows if _session_repair(row))
    assert 0 < session["rechecked"] < session["centres"] * session["batches"]
    assert session["witness_hits"] >= 4 * session["matches_found"] and session["witness_hits"] > 0
    # No wall clock is left in the gate: an arbitrarily slow session stays green.
    check_rows(SCENARIOS["stream"], [replace(row, wall_time=1e6) for row in rows], WORKERS)


def test_stream_gate_ignores_pool_backends(family_runs):
    rows, _out = family_runs("stream")
    pooled = [replace(row, backend="processes") if row.backend == "sequential" else row for row in rows]
    searched = _doctor(pooled, lambda row: row.mode == "repair" and row.backend == "processes",
                       witness_hits=0, matches_found=10**3)
    check_rows(SCENARIOS["stream"], searched, WORKERS)  # no SystemExit


def test_tenant_gate_reads_no_wall_clock(family_runs):
    rows, _out = family_runs("tenant")
    slow = [replace(row, wall_time=1e6) if row.mode in ("admit", "steady") else row for row in rows]
    check_rows(SCENARIOS["tenant"], slow, WORKERS)  # no SystemExit


def test_storm_oracle_compared_changing_match_sets(family_runs):
    rows, _out = family_runs("storm")
    assert max(row["match_answers"] for row in rows) >= 2
    assert all(row["matched"] > 0 for row in rows)


def test_measured_obs_delta_is_reported_but_not_gated(family_runs):
    rows, _out = family_runs("obs")
    noisy = _doctor(rows, _mode("instrumented"), overhead_pct=60.0)
    check_rows(SCENARIOS["obs"], noisy, WORKERS)  # no SystemExit


def test_json_is_written_before_a_failing_gate(tmp_path, monkeypatch, family_runs):
    rows, _out = family_runs("storm")
    failing = replace(
        SCENARIOS["storm"], runner=lambda *a, **k: _doctor(rows, _anywhere, divergences=2)
    )
    monkeypatch.setitem(SCENARIOS, "storm", failing)
    out = tmp_path / "BENCH_storm.json"
    with pytest.raises(SystemExit, match="storm regression"):
        run_family("storm", "sequential", WORKERS, TINY["storm"][0], out)
    assert json.loads(out.read_text())["rows"][0]["divergences"] == 2


def test_backend_policies():
    select = smoke._select_backends
    assert select("pair", None) == ("sequential", "processes")
    assert select("pair", "processes") == ("sequential", "processes")
    assert select("pair", "sequential") == ("sequential",)
    assert select("sequential", "processes") == ("sequential",)
    assert {scenario.backends for scenario in SCENARIOS.values()} == {"pair", "sequential"}


def test_cli_surface_is_five_flags(capsys):
    with pytest.raises(SystemExit):
        smoke.main(["--help"])
    usage = capsys.readouterr().out
    flags = {word.strip("[],") for word in usage.split() if word.startswith(("--", "[--"))}
    assert flags == {"--help", "--family", "--backend", "--workers", "--scale", "--out"}
    for family in SCENARIOS:
        assert family in usage
