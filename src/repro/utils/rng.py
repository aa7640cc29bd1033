"""Deterministic random-number generation helpers.

Every stochastic component in the library (dataset generators, the worker pool,
the arrival process, the answer model and the random assigner) takes either a
seed or an already-constructed :class:`numpy.random.Generator`.  Centralising
the conversion here keeps experiments reproducible: the same seed always yields
the same crowd, the same arrivals and therefore the same answer log.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def default_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from ``seed``.

    ``seed`` may be ``None`` (non-deterministic), an integer, or an existing
    generator, in which case it is returned unchanged so that callers can share
    a single stream.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_seed(seed: Optional[int], salt: int) -> Optional[int]:
    """Derive a child seed from ``seed`` and an integer ``salt``.

    Returns ``None`` when ``seed`` is ``None`` so non-deterministic behaviour is
    preserved.  The mixing constant is the 64-bit golden-ratio increment used by
    splitmix64, which gives well-spread child seeds for consecutive salts.
    """
    if seed is None:
        return None
    mixed = (seed * 0x9E3779B97F4A7C15 + salt * 0xBF58476D1CE4E5B9) % (2**63 - 1)
    return int(mixed)
