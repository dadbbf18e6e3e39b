"""The benchmark's traced launcher for ``repro serve``.

Same service as ``python -m repro.cli serve --port 0``, started with a
:class:`repro.obs.Tracer` installed, ``REPRO_OBS`` statistics collection on
and the entry points of :mod:`wraps` wrapped in spans.  On SIGTERM (or
SIGINT) it stops the server and dumps the trace as JSON-lines and the
metrics registry snapshot as JSON.  End-to-end numbers never come from this
launcher — the untraced pass uses the stock CLI.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import wraps  # noqa: E402

from repro.obs import Tracer, enable_collection, install, registry  # noqa: E402
from repro.serve import BackgroundServer  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", type=Path, required=True)
    parser.add_argument("--registry-out", type=Path, required=True)
    args = parser.parse_args(argv)

    tracer = install(Tracer())
    enable_collection()
    wraps.install()

    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())

    server = BackgroundServer(port=0).start()
    print(f"serving EIP sessions on {server.base_url} (traced)", flush=True)
    try:
        stop.wait()
    finally:
        server.stop()
        tracer.dump_jsonl(args.trace_out)
        snapshot = registry().snapshot()
        for family in snapshot.values():
            # label tuples are JSON-hostile keys; join them
            family["series"] = {"|".join(key): value for key, value in family["series"].items()}
        args.registry_out.write_text(json.dumps(snapshot, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
