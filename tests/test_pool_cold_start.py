"""A process pool's cold start, counted: ``repro_pool_*_total``.

``init_worker`` times itself and notes whether compiling the resident
structures made it import numpy; each pool process ships both with its first
task's metrics delta while ``REPRO_OBS`` is on.  A forked child inherits
numpy from the parent, which imports it before starting a pool that will
build resident structures, so after a processes-backend run on Linux with
numpy installed the pool has imported numpy zero times.

Every leg starts from an interpreter that has not loaded numpy, and sets
``REPRO_NO_NUMPY`` itself: one identify with numpy enabled (the parent loads
it, the children do not), one with ``REPRO_NO_NUMPY=1`` (nobody loads it),
and one pool initializer run straight in such an interpreter, which has to
import numpy itself and says so.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("numpy")
pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="the pool forks only on Linux"
)

PREDICATE = "user:like_book:personal development"
ROOT = Path(__file__).resolve().parents[1]

_IDENTIFY = """
import json, sys
from repro import api
from repro.datasets import generate_gpars, pokec_like
from repro.identification import EIPConfig
from repro.obs import registry

graph = pokec_like(40, 3, seed=7)
rules = generate_gpars(graph, api.parse_predicate(sys.argv[1]), count=4, max_pattern_edges=3, d=2, seed=5)
loaded_before = "numpy" in sys.modules
api.identify(graph, rules, EIPConfig(eta=0.5, num_workers=2, backend="processes", executor_workers=2))
print(json.dumps({
    "loaded_before": loaded_before,
    "loaded_after": "numpy" in sys.modules,
    "counters": registry().counters("repro_pool_"),
}))
"""

_INITIALIZER = """
import json, sys
from repro.datasets import pokec_like
from repro.parallel.worker import init_worker, run_task
from repro.partition import partition_graph

graph = pokec_like(40, 3, seed=7)
fragments = partition_graph(graph, 2, centers=graph.nodes_with_label("user"), d=2)
loaded_before = "numpy" in sys.modules
init_worker(fragments)
first = run_task(lambda context, payload: None, 0, None)[3]
second = run_task(lambda context, payload: None, 1, None)[3] or {}
print(json.dumps({"loaded_before": loaded_before, "first": first, "second": second}))
"""


def _run(script: str, *args: str, no_numpy: bool = False) -> dict:
    environment = {
        key: value for key, value in os.environ.items() if key != "REPRO_NO_NUMPY"
    }
    environment["REPRO_OBS"] = "1"
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    if no_numpy:
        environment["REPRO_NO_NUMPY"] = "1"
    child = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=environment, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def test_forked_children_inherit_numpy_from_the_parent():
    run = _run(_IDENTIFY, PREDICATE)
    assert not run["loaded_before"], "the leg must start without numpy"
    assert run["loaded_after"], "the parent imports numpy before it forks"
    assert run["counters"]["repro_pool_numpy_imports_total"] == 0
    assert run["counters"]["repro_pool_init_seconds_total"] > 0


def test_no_numpy_keeps_numpy_out_of_the_parent():
    run = _run(_IDENTIFY, PREDICATE, no_numpy=True)
    assert not run["loaded_before"] and not run["loaded_after"]
    assert run["counters"]["repro_pool_numpy_imports_total"] == 0


def test_an_initializer_that_imports_numpy_says_so_once():
    """What every forked child paid before the parent imported numpy: the
    counter reads 1 for it, and only the process's first task ships it."""
    run = _run(_INITIALIZER)
    assert not run["loaded_before"]
    assert run["first"]["pool.numpy_imports"] == 1
    assert run["first"]["pool.init_seconds"] > 0
    assert not any(key.startswith("pool.") for key in run["second"])
