"""Small shared utilities: RNG handling and timing."""

from repro.utils.rng import ensure_rng
from repro.utils.timing import Stopwatch

__all__ = [
    "ensure_rng",
    "Stopwatch",
]
