"""Numeric hygiene for probability vectors.

The inference model manipulates many small probability vectors (label truth,
worker inherent quality, multinomial weights over the distance-function set).
:func:`normalise` turns non-negative weights into one, and
:data:`PROBABILITY_FLOOR` is the floor the EM kernels clip probabilities to.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

#: Floor applied when normalising to avoid exact zeros that would freeze EM weights.
PROBABILITY_FLOOR = 1e-12


def normalise(values: Iterable[float] | np.ndarray) -> np.ndarray:
    """Normalise non-negative ``values`` into a probability vector.

    An all-zero (or numerically vanishing) input is mapped to the uniform
    distribution rather than raising, because this is exactly the degenerate
    situation EM can produce on its first iteration with no informative answers.
    """
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                     dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"values must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("cannot normalise an empty vector")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ValueError(f"values must be finite and non-negative, got {arr!r}")
    total = arr.sum()
    if total <= PROBABILITY_FLOOR:
        return np.full(arr.size, 1.0 / arr.size)
    return arr / total

