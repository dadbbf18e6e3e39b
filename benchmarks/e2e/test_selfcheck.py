"""Self-check of the end-to-end benchmark (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``; takes about
40 s because it runs every workload once at smoke scale.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

sys.path.insert(0, str(HERE))


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(out.read_text())


def test_benchmark_json_schema(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in spec[key]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [metric for metric in spec["end_to_end"] if metric["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(metric["bound"] for metric in spec["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_declared_layers_match_the_code(spec):
    import layers

    declared = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    assert declared == layers.PER_LAYER


def test_wrap_table_resolves():
    sys.path.insert(0, str(ROOT / "src"))
    import wraps

    assert len(wraps.resolve_all()) == len(wraps.WRAPS)


def test_no_import_of_repro_bench():
    for path in HERE.rglob("*.py"):
        if path.name != Path(__file__).name:
            assert "repro.bench" not in path.read_text(), path


def test_smoke_carries_exactly_the_declared_metrics(spec, smoke):
    workloads = [workload["name"] for workload in spec["workloads"]]
    assert [run["workload"] for run in smoke["runs"]] == workloads
    end_to_end = {metric["name"] for metric in spec["end_to_end"]}
    per_layer = {metric["name"] for metric in spec["per_layer"]}
    for run in smoke["runs"]:
        assert run["correct"], run["problems"]
        assert run["failed"] == 0 and run["attempted"] >= 1
        assert set(run["metrics"]) == end_to_end
        assert set(run["layers"]) == per_layer
        assert all(value > 0 for value in run["metrics"].values()), run["metrics"]
        assert run["layers"]["identification.answer_entities"] > 0
        shares = sum(value for name, value in run["layers"].items() if name.endswith(".self_share"))
        assert 90.0 <= shares <= 110.0, f"layer self shares add up to {shares:.1f} %"
