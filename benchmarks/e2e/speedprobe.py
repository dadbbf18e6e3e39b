"""Speed probe: what a fixed piece of matching work costs right now, on this core.

The reference box is a 2-vCPU slice of a shared host.  The speed of each
core drifts on its own by 10-25 % within a minute and up to 2x over several
(one ``api.mine`` call took 7.6 s .. 16.3 s in one afternoon, CPU time moving
with wall time: the core slows, the scheduler is not the cause).  No
regression bound survives that, so the benchmark pins the system under test
to one core and runs this process on the *same* core.  It times a fixed
kernel every :data:`PERIOD_S`, in CPU time so that waiting for the core does
not count, notes how much of the core's time the hypervisor has given away
(``steal`` in ``/proc/stat``; the guest kernel keeps stolen time out of CPU
times, so the kernel cannot see it), and prints its samples when its stdin
closes.  The generator scales each timing by both over the same window
(``loadgen.SpeedProbe``), so end-to-end timings read as *time on the
reference box at its reference speed*; raw wall-clock values stay in each
result's ``detail``.

What was measured before settling on this (4-minute runs of a repeated
``api.identify``, spread = interquartile distance of 6-second medians over
their median):

* two copies of one kernel correlate 0.98 on one core and 0.38 across the
  two, so a probe on the other core corrects nothing (it made serve-local
  worse: 0.10 -> 0.17);
* the kernel has to do what the system does.  Arithmetic, dict-building and
  set-probe loops correlated 0.4-0.65 with the system (once -0.1) and left
  the spread where it was; a small backtracking matcher over a graph that
  does not fit the L2 cache correlated 0.8 and took it from 0.11 to 0.07
  (full range of the medians: 0.38 -> 0.18).

The correction is partial.  It is there for the bad quarter-hours, which it
shrinks from 2x to about 1.2x.
"""

from __future__ import annotations

import json
import os
import random
import select
import sys
import time

PERIOD_S = 0.08
#: The kernel's usual cost on the reference box beside a busy server; scales
#: corrected timings back to seconds.  Changing it rescales every timing metric.
REFERENCE_KERNEL_MS = 3.0


class Kernel:
    """~2 ms of subgraph matching: embeddings of ``A -> B -> C -> A`` paths.

    A frozen miniature of the system's hot path — recursion through
    generators, set membership, dict lookups, small allocations — over a
    random labelled digraph of 20 000 nodes (a few MB, so the walk misses
    the cache the way the system's does).  Each call resumes from the root
    after the last one's, so successive samples see all of the graph.
    """

    NODES = 20_000
    DEGREE = 6
    EMBEDDINGS = 1000
    PATH = ("B", "C", "A")

    def __init__(self) -> None:
        rng = random.Random(2)
        self._labels = [rng.choice("ABC") for _ in range(self.NODES)]
        self._out = [
            {target for target in rng.sample(range(self.NODES), self.DEGREE) if target != node}
            for node in range(self.NODES)
        ]
        self._roots = [node for node, label in enumerate(self._labels) if label == "A"]
        self._next_root = 0

    def _extend(self, chosen: list[int]):
        if len(chosen) > len(self.PATH):
            yield tuple(chosen)
            return
        wanted = self.PATH[len(chosen) - 1]
        used = set(chosen)
        for node in self._out[chosen[-1]]:
            if self._labels[node] == wanted and node not in used:
                chosen.append(node)
                yield from self._extend(chosen)
                chosen.pop()

    def __call__(self) -> int:
        found = 0
        while found < self.EMBEDDINGS:
            self._next_root = (self._next_root + 1) % len(self._roots)
            for _ in self._extend([self._roots[self._next_root]]):
                found += 1
        return found


def core_ticks(cpu: int) -> tuple[int, int]:
    """``(busy, stolen)`` clock ticks of core *cpu* since boot."""
    with open("/proc/stat") as stat:
        for line in stat:
            if line.startswith(f"cpu{cpu} "):
                user, nice, system, _idle, _iowait, irq, softirq, steal = map(int, line.split()[1:9])
                return user + nice + system + irq + softirq, steal
    raise LookupError(f"/proc/stat has no line for cpu{cpu}")


def main() -> int:
    kernel = Kernel()
    cpu = min(os.sched_getaffinity(0))  # the generator pinned us to exactly one
    samples: list[tuple[float, float, int, int]] = []
    while True:
        readable, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if readable:  # the generator closed our stdin: report and leave
            break
        at, started = time.monotonic(), time.process_time()
        found = kernel()
        # a call overshoots by the last root's embeddings: charge per embedding
        kernel_ms = (time.process_time() - started) * 1000.0 * kernel.EMBEDDINGS / found
        samples.append((at, kernel_ms, *core_ticks(cpu)))
    sys.stdout.write(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
