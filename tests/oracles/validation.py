"""Probability checks for the id-keyed oracle parameters.

:mod:`oracles.params` validates every per-entity probability and weight
vector with these, and :mod:`oracles.em` clamps probabilities away from 0 and
1 before dividing by them.  The array engines in ``src/`` clip in bulk instead.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.utils.validation import PROBABILITY_FLOOR

#: Tolerance used when checking that values lie in [0, 1] or that vectors sum to 1.
PROBABILITY_TOLERANCE = 1e-9


def check_probability(value: float, name: str = "probability") -> float:
    """Validate that ``value`` is a probability and return it clipped to [0, 1].

    Values outside the range by more than :data:`PROBABILITY_TOLERANCE` raise a
    ``ValueError``; tiny floating-point overshoots are clipped silently.
    """
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if value < -PROBABILITY_TOLERANCE or value > 1.0 + PROBABILITY_TOLERANCE:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return float(min(1.0, max(0.0, value)))


def check_probability_vector(
    values: Sequence[float] | np.ndarray, name: str = "distribution"
) -> np.ndarray:
    """Validate that ``values`` is a finite non-negative vector summing to one."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {arr!r}")
    if np.any(arr < -PROBABILITY_TOLERANCE):
        raise ValueError(f"{name} must be non-negative, got {arr!r}")
    total = float(arr.sum())
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"{name} must sum to 1, got sum {total!r}")
    return np.clip(arr, 0.0, 1.0)


def clamp_probability(value: float, floor: float = PROBABILITY_FLOOR) -> float:
    """Clamp ``value`` into the open interval (floor, 1 - floor).

    EM updates divide by probabilities; keeping them strictly inside (0, 1)
    avoids divisions by zero and log-of-zero without changing results by more
    than the floor.
    """
    return float(min(1.0 - floor, max(floor, value)))
