"""Coordinator/worker BSP runtime with pluggable execution backends.

The paper runs DMine and Match on an n-node cluster; this reproduction runs
the same bulk-synchronous structure on one machine.  Each round applies a
worker function to every fragment, records the per-worker compute time, and
accounts the round's *simulated parallel time* as the maximum worker time
plus the coordinator's assembling time.  Speedup-versus-n benchmarks use the
simulated time, which makes the scaling curves deterministic and independent
of how many physical cores the benchmark machine has; wall-clock time is
recorded alongside, and the ``processes`` backend turns it into a *real*
multi-core measurement (see ``docs/parallel.md``).
"""

from repro.parallel.executor import (
    BACKENDS,
    Executor,
    ProcessPoolExecutorBackend,
    SequentialExecutor,
    WorkerTask,
    make_executor,
)
from repro.parallel.messages import (
    EvaluatePayload,
    Proposal,
    ProposePayload,
    RuleFocus,
    RuleMessage,
)
from repro.parallel.runtime import BSPRuntime, RoundTiming, RunTimings
from repro.parallel.worker import WorkerContext, init_worker, run_task

__all__ = [
    "BACKENDS",
    "Executor",
    "SequentialExecutor",
    "ProcessPoolExecutorBackend",
    "WorkerTask",
    "WorkerContext",
    "make_executor",
    "init_worker",
    "run_task",
    "RuleMessage",
    "RuleFocus",
    "Proposal",
    "ProposePayload",
    "EvaluatePayload",
    "BSPRuntime",
    "RoundTiming",
    "RunTimings",
]
