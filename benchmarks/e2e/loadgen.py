"""Load-generator plumbing: the server subprocess, the speed probe and a keep-alive client.

The system under test runs as its own process (``python -m repro.cli serve
--port 0``, or the benchmark's traced launcher) and is driven over loopback
HTTP only.  Everything here fails closed: readiness and every request carry
a timeout, a dead or hung server turns into failed operations and an
exception, never a hang, and :meth:`ServerProcess.stop` always reaps the
child.
"""

from __future__ import annotations

import ctypes
import functools
import http.client
import json
import os
import re
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from speedprobe import REFERENCE_KERNEL_MS

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

READY_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0
#: Fewest speed-probe samples a correction may rest on.
MIN_PROBE_SAMPLES = 5


class BenchError(RuntimeError):
    """The benchmark could not run or its outputs were wrong."""


@dataclass
class OpCounter:
    """Attempted / failed operations of one generator thread."""

    attempted: int = 0
    failed: int = 0

    def merge(self, other: "OpCounter") -> None:
        self.attempted += other.attempted
        self.failed += other.failed


def child_env() -> dict[str, str]:
    """Environment for child processes: the checkout's ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cpu_plan() -> tuple[int, set[int]]:
    """``(core of the system under test and the speed probe, cores of the generator)``.

    The box's noise is per core (two copies of one kernel: correlation 0.98
    on one core, 0.38 across two), so the probe only tells the speed of the
    system under test when both are pinned to the same core.  Read this
    before pinning anything: it starts from the current affinity.
    """
    allowed = os.sched_getaffinity(0)
    sut = min(allowed)
    return sut, allowed - {sut} or allowed


def _child_setup(cpu: int) -> None:
    """Child-side: pin to *cpu*; have the kernel kill the child if the generator dies first."""
    os.sched_setaffinity(0, {cpu})
    ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


class SpeedProbe:
    """The ``speedprobe.py`` subprocess and the corrections its samples give.

    Samples arrive when the probe stops, so :meth:`factor` is for after the
    run.  Windows are read off ``time.monotonic``, which both processes share.
    """

    def __init__(self, cpu: int) -> None:
        #: The core the probe runs on, where the system under test belongs too.
        self.cpu = cpu
        self._proc: subprocess.Popen | None = None
        #: ``(monotonic time, kernel ms, busy ticks, stolen ticks)`` per sample.
        self.samples: list[tuple[float, float, int, int]] = []

    def start(self) -> "SpeedProbe":
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "speedprobe.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            preexec_fn=functools.partial(_child_setup, self.cpu),
        )
        return self

    def stop(self) -> None:
        """Collect the samples and reap the probe (safe to call twice)."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            out, _ = proc.communicate(input=b"", timeout=STOP_TIMEOUT_S)
            self.samples = [tuple(sample) for sample in json.loads(out)]
        except (subprocess.TimeoutExpired, ValueError):
            proc.kill()
            proc.communicate()

    def _window(self, start: float, end: float) -> list[tuple[float, float, int, int]]:
        window = [sample for sample in self.samples if start <= sample[0] <= end]
        if len(window) < MIN_PROBE_SAMPLES:  # a short phase: take the samples nearest to it
            middle = (start + end) / 2
            nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - middle))
            window = sorted(nearest[:MIN_PROBE_SAMPLES])
        if not window:
            raise BenchError("the speed probe returned no samples")
        return window

    @staticmethod
    def _stolen(window: list[tuple[float, float, int, int]]) -> float:
        busy = window[-1][2] - window[0][2]
        stolen = window[-1][3] - window[0][3]
        return stolen / (busy + stolen) if busy + stolen else 0.0

    def stolen_share(self, start: float, end: float) -> float:
        """Share of the core time the system under test asked for that the hypervisor gave away."""
        return self._stolen(self._window(start, end))

    def factor(self, start: float, end: float) -> float:
        """Multiply a wall time taken inside ``[start, end]`` by this to correct it."""
        window = self._window(start, end)
        kernel_ms = statistics.median(sample[1] for sample in window)
        return (1.0 - self._stolen(window)) * REFERENCE_KERNEL_MS / kernel_ms

    def corrected(self, windows: list[tuple[float, float]]) -> list[float]:
        """Seconds each ``(start, end)`` would have taken at the reference speed.

        One factor for the whole phase the windows span: a single short
        operation holds too few probe samples to correct it on its own.
        """
        speed = self.factor(windows[0][0], windows[-1][1])
        return [(end - start) * speed for start, end in windows]


class ServerProcess:
    """One ``repro serve`` subprocess on an ephemeral loopback port."""

    def __init__(self, workdir: Path, cpu: int, traced: bool = False) -> None:
        self.workdir = workdir
        self._cpu = cpu
        self.traced = traced
        self.trace_path = workdir / "server-trace.jsonl"
        self.metrics_path = workdir / "server-registry.json"
        self.port: int | None = None
        self._proc: subprocess.Popen | None = None
        self._stderr = None
        self.rss_peak_mb = 0.0

    def start(self) -> "ServerProcess":
        if self.traced:
            command = [
                sys.executable, "-u", str(HERE / "traced_server.py"),
                "--trace-out", str(self.trace_path),
                "--registry-out", str(self.metrics_path),
            ]  # fmt: skip
        else:
            command = [sys.executable, "-u", "-m", "repro.cli", "serve", "--port", "0"]
        self._stderr = open(self.workdir / "server-stderr.log", "wb")
        self._proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=child_env(),
            cwd=str(self.workdir),
            preexec_fn=functools.partial(_child_setup, self._cpu),
        )
        try:
            self.port = self._await_ready()
        except BaseException:
            self.stop()
            raise
        return self

    def _await_ready(self) -> int:
        """Parse the port out of the readiness line, bounded by a timeout."""
        assert self._proc is not None and self._proc.stdout is not None
        deadline = time.monotonic() + READY_TIMEOUT_S
        buffered = b""
        descriptor = self._proc.stdout.fileno()
        while time.monotonic() < deadline:
            if self._proc.poll() is not None:
                raise BenchError(f"server exited with {self._proc.returncode} before it was ready")
            readable, _, _ = select.select([descriptor], [], [], 0.2)
            if not readable:
                continue
            chunk = os.read(descriptor, 4096)
            if not chunk:
                continue
            buffered += chunk
            match = re.search(rb"http://[^:\s]+:(\d+)", buffered)
            if match and b"\n" in buffered[match.end():]:
                return int(match.group(1))
        raise BenchError(f"server printed no readiness line within {READY_TIMEOUT_S:.0f}s")

    def alive(self) -> bool:
        return self._proc is not None and self._proc.poll() is None

    def _read_peak_rss(self) -> float:
        """``VmHWM`` of the live child in MB (0.0 when it is already gone)."""
        assert self._proc is not None
        try:
            status = Path(f"/proc/{self._proc.pid}/status").read_text()
        except OSError:
            return 0.0
        match = re.search(r"VmHWM:\s+(\d+)\s+kB", status)
        return int(match.group(1)) / 1024.0 if match else 0.0

    def stop(self) -> None:
        """Record peak RSS, ask the server to exit, then make sure it has."""
        proc = self._proc
        if proc is None:
            return
        try:
            if proc.poll() is None:
                self.rss_peak_mb = self._read_peak_rss()
                # The stock CLI stops on KeyboardInterrupt; the traced
                # launcher dumps its trace on SIGTERM.
                proc.send_signal(signal.SIGTERM if self.traced else signal.SIGINT)
                try:
                    proc.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=STOP_TIMEOUT_S)
        finally:
            if proc.stdout is not None:
                proc.stdout.close()
            if self._stderr is not None:
                self._stderr.close()
            self._proc = None

    def stderr_tail(self, limit: int = 2000) -> str:
        try:
            return (self.workdir / "server-stderr.log").read_text(errors="replace")[-limit:]
        except OSError:
            return ""


class Client:
    """One persistent HTTP/1.1 connection; counts every operation it makes."""

    def __init__(self, port: int, counter: OpCounter, timeout: float = REQUEST_TIMEOUT_S) -> None:
        self._port = port
        self._timeout = timeout
        self.counter = counter
        self._conn: http.client.HTTPConnection | None = None
        self.bytes_out = 0
        self.bytes_in = 0
        self.last_error = ""

    def _exchange(self, method: str, path: str, body: dict | None, ok: tuple[int, ...], decode):
        """One counted operation: ``(status, decode(body text))``, ``(0, None)`` on a transport failure.

        A status outside *ok* or a transport error (connection refused/reset,
        timeout, torn or undecodable body) is a failed operation.
        """
        self.counter.attempted += 1
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if payload is not None else {}
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection("127.0.0.1", self._port, timeout=self._timeout)
            self._conn.request(method, path, body=payload, headers=headers)
            response = self._conn.getresponse()
            raw = response.read()
            status = response.status
            decoded = decode(raw.decode("utf-8"))
        except (OSError, http.client.HTTPException, ValueError) as exc:
            self.close()
            self.counter.failed += 1
            self.last_error = f"{type(exc).__name__}: {exc}"
            return 0, None
        self.bytes_out += len(payload or b"")
        self.bytes_in += len(raw)
        if status not in ok:
            self.counter.failed += 1
        return status, decoded

    def request(
        self, method: str, path: str, body: dict | None = None, ok: tuple[int, ...] = (200, 201)
    ) -> tuple[int, dict]:
        """Send one JSON request: ``(status, document)``; ``(0, {"error": ...})`` on a transport failure."""
        status, document = self._exchange(method, path, body, ok, lambda text: json.loads(text) if text else {})
        return (status, document) if status else (0, {"error": self.last_error})

    def get_text(self, path: str) -> str:
        """Fetch a non-JSON body (the ``/metrics`` exposition); '' on failure."""
        status, text = self._exchange("GET", path, None, (200,), str)
        return text if status == 200 else ""

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
