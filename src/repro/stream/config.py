"""Streaming/lifecycle configuration: every tunable threshold in one place.

Before this module the knobs of the streaming subsystem were module
constants (``repro.graph.graph.DELTA_LOG_SIZE``,
``repro.graph.columnar.DELTA_REBUILD_FRACTION``) and the lifecycle layer —
checkpointing, shedding, re-partitioning — had none.  :class:`StreamConfig`
promotes all of them to per-run fields with a uniform override story:

* **defaults** come from the historical module constants;
* **environment variables** (``REPRO_DELTA_LOG_SIZE``,
  ``REPRO_DELTA_REBUILD_FRACTION``, ``REPRO_CHECKPOINT_LOG_FRACTION``,
  ``REPRO_REBALANCE_SKEW``, ``REPRO_STATE_DIR``) override the defaults at
  construction time;
* **CLI flags** on ``repro stream`` override both.

The environment is only ever *read*.  A run's values reach its workers as
data: the delta-log size travels with the fragment graphs (pickled to pool
workers, recorded in every ``FragmentCheckpoint``), the rebuild fraction on
each round's ``StreamVerifyPayload`` — so one session's thresholds can never
become another session's defaults.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import StreamError
from repro.graph.graph import default_delta_log_size
from repro.graph.columnar import default_rebuild_fraction

#: Compact a fragment's update-slice log once its shipped-operation weight
#: exceeds this fraction of the fragment's own size ``|V_i| + |E_i|`` —
#: past that point re-shipping the log costs more than re-shipping the
#: fragment.
CHECKPOINT_LOG_FRACTION = 0.5

#: Re-partition (migrate centre ownership) when the per-fragment load skew
#: ``(max - min) / max`` — load being the sum of owned centres' stored ball
#: sizes, the partitioner's own balance measure — exceeds this bound.
REBALANCE_SKEW = 0.6


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    if raw is None:
        return default
    return float(raw)


def _default_checkpoint_fraction() -> float:
    return _env_float("REPRO_CHECKPOINT_LOG_FRACTION", CHECKPOINT_LOG_FRACTION)


def _default_rebalance_skew() -> float:
    return _env_float("REPRO_REBALANCE_SKEW", REBALANCE_SKEW)


def _default_state_dir() -> Path | None:
    raw = os.environ.get("REPRO_STATE_DIR")
    return Path(raw) if raw else None


@dataclass(frozen=True)
class StreamConfig:
    """Tunables of the streaming + fragment-lifecycle layers.

    Attributes
    ----------
    delta_log_size:
        Capacity of every managed graph's bounded :class:`GraphDelta` log
        (authoritative graph *and* fragment-resident graphs); consumers
        that fall further behind rebuild instead of patching.
    delta_rebuild_fraction:
        A :class:`~repro.graph.columnar.ColumnarFragment` recompiles from
        scratch instead of delta-patching once a pending chain touches more
        than this fraction of its graph.
    checkpoint_log_fraction:
        Compaction trigger of the per-fragment update-slice log (see
        :data:`CHECKPOINT_LOG_FRACTION`).
    rebalance_skew:
        Churn-driven re-partitioning trigger (see :data:`REBALANCE_SKEW`);
        ``1.0`` disables migration entirely.  The per-batch migration
        budget is the constant
        :data:`repro.partition.lifecycle.REBALANCE_MAX_MOVES`.
    state_dir:
        When set, fragment checkpoints are written here as pickle files and
        round payloads carry only their *paths*; without it checkpoints ship
        inline (pickled per round on the process backend).  The directory
        also serves :meth:`repro.stream.StreamingIdentifier.save_state`.
    """

    delta_log_size: int = field(default_factory=default_delta_log_size)
    delta_rebuild_fraction: float = field(default_factory=default_rebuild_fraction)
    checkpoint_log_fraction: float = field(default_factory=_default_checkpoint_fraction)
    rebalance_skew: float = field(default_factory=_default_rebalance_skew)
    state_dir: Path | None = field(default_factory=_default_state_dir)

    def __post_init__(self) -> None:
        if self.delta_log_size < 1:
            raise StreamError(f"delta_log_size must be >= 1, got {self.delta_log_size}")
        if not 0.0 <= self.delta_rebuild_fraction <= 1.0:
            raise StreamError(
                f"delta_rebuild_fraction must be in [0, 1], got {self.delta_rebuild_fraction}"
            )
        if self.checkpoint_log_fraction <= 0.0:
            raise StreamError(
                f"checkpoint_log_fraction must be > 0, got {self.checkpoint_log_fraction}"
            )
        if not 0.0 <= self.rebalance_skew <= 1.0:
            raise StreamError(
                f"rebalance_skew must be in [0, 1], got {self.rebalance_skew}"
            )
        if self.state_dir is not None:
            object.__setattr__(self, "state_dir", Path(self.state_dir))

    def apply_to_graph(self, graph) -> None:
        """Resize *graph*'s delta log to this config's capacity."""
        graph.configure_delta_log(self.delta_log_size)
