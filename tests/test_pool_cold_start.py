"""No process imports numpy; a process pool's cold start is counted.

The core is dependency-free, so nothing on the paths a deployment runs
— mining, a processes-backend identify (whose forked pool workers compile
their fragments' resident structures), a streaming session's tick — may
import numpy, even where it is installed.  Each leg runs in a fresh
interpreter whose ``sys.path`` starts with a stub ``numpy`` package: the stub
records every import attempt to a file (from whichever process made it)
and then raises ``ImportError``.  The record must stay empty.

``init_worker`` counts itself in a ``pool`` statistics object, which each
pool process ships with its first task while ``REPRO_OBS`` is on
(``repro_pool_initializations_total``, ``repro_pool_init_seconds_total``).
The count is asserted, not the seconds: a timer may read 0.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="the pool forks only on Linux"
)

PREDICATE = "user:like_book:personal development"
ROOT = Path(__file__).resolve().parents[1]

_STUB = """
import os
with open({record!r}, "a") as record:
    record.write(f"{{os.getpid()}}\\n")
raise ImportError("numpy is stubbed out in this interpreter")
"""

_PIPELINE = """
import json, sys
from repro import api
from repro.datasets import generate_gpars, pokec_like
from repro.identification import EIPConfig
from repro.mining import DMineConfig
from repro.obs import registry
from repro.stream import random_update_batch

graph = pokec_like(40, 3, seed=7)
predicate = api.parse_predicate(sys.argv[1])
api.mine(graph, predicate, DMineConfig(k=2, sigma=2, max_edges=2))
rules = generate_gpars(graph, predicate, count=4, max_pattern_edges=3, d=2, seed=5)
api.identify(graph, rules, EIPConfig(eta=0.5, num_workers=2, backend="processes", executor_workers=2))
with api.open_session(graph, rules, config=EIPConfig(eta=0.5)) as session:
    session.apply(random_update_batch(graph, size=3, seed=11))
pool = {name: family for name, family in registry().snapshot().items() if name.startswith("repro_pool_")}
print(json.dumps({"counters": {name: sum(family["series"].values()) for name, family in pool.items()}}))
"""

_INITIALIZER = """
import json
from repro.datasets import pokec_like
from repro.parallel.worker import init_worker, run_task
from repro.partition import partition_graph

graph = pokec_like(40, 3, seed=7)
fragments = partition_graph(graph, 2, centers=graph.nodes_with_label("user"), d=2)
init_worker(fragments)
first = run_task(lambda context, payload: None, 0, None)[3]
second = run_task(lambda context, payload: None, 1, None)[3] or {}
print(json.dumps({"first": first, "second": second}))
"""


def _run(script: str, *args: str, stub: Path) -> dict:
    environment = dict(os.environ)
    environment["REPRO_OBS"] = "1"
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(stub), str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    child = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=environment, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


@pytest.fixture
def numpy_stub(tmp_path) -> tuple[Path, Path]:
    """``(sys.path entry holding a stub numpy, file it records imports to)``."""
    record = tmp_path / "numpy-imports.txt"
    record.touch()
    package = tmp_path / "stub" / "numpy"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(_STUB.format(record=str(record)))
    return package.parent, record


def test_no_process_imports_numpy(numpy_stub):
    stub, record = numpy_stub
    run = _run(_PIPELINE, PREDICATE, stub=stub)
    assert record.read_text() == "", "these processes imported numpy"
    # The processes identify's pool of two; mine and the session run in process.
    assert run["counters"]["repro_pool_initializations_total"] == 2


def test_only_a_process_first_task_ships_its_cold_start(numpy_stub):
    stub, record = numpy_stub
    run = _run(_INITIALIZER, stub=stub)
    assert record.read_text() == ""
    assert run["first"]["pool.initializations"] == 1
    assert not any(key.startswith("pool.") for key in run["second"])
