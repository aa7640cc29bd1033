"""Worker arrival processes.

The paper's online setting has workers "dynamically coming" to the platform and
requesting tasks in small batches; the assigner sees only the currently
available set ``W``.  These classes model who shows up in each round:

* :class:`UniformRandomArrival` — each round a random subset of the pool
  arrives (the default; approximates an open crowd market);
* :class:`ChurnArrival` — workers cycle through deterministic active/away
  sessions (phase-shifted per worker), so the available set churns over
  rounds the way a real crowd does.

:class:`TimedArrivalSchedule` decorates any of the above with simulated arrival
*timestamps* (exponential inter-batch gaps).  The online serving subsystem
(:mod:`repro.serving`) consumes these events so its ingestion layer can
micro-batch answers by simulated-time window, not just by count.  An optional
:class:`DiurnalPattern` modulates the arrival rate sinusoidally and injects
bursts, giving the serving stack a non-stationary load profile.
"""

from __future__ import annotations

import math
import zlib
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.crowd.worker_pool import WorkerPool
from repro.utils.rng import SeedLike, default_rng


class WorkerArrivalProcess(ABC):
    """Produces the batch of available workers for each assignment round."""

    @abstractmethod
    def next_batch(self, round_index: int) -> list[str]:
        """Return the worker ids arriving in round ``round_index``."""

    @abstractmethod
    def reset(self) -> None:
        """Reset any internal state so the process can be replayed."""


class UniformRandomArrival(WorkerArrivalProcess):
    """Each round, ``batch_size`` workers are drawn uniformly without replacement."""

    def __init__(
        self, pool: WorkerPool, batch_size: int = 5, seed: SeedLike = None
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if batch_size > len(pool):
            raise ValueError(
                f"batch_size ({batch_size}) cannot exceed pool size ({len(pool)})"
            )
        self._pool = pool
        self._batch_size = batch_size
        self._seed = seed
        self._rng = default_rng(seed)

    def next_batch(self, round_index: int) -> list[str]:
        ids = self._pool.worker_ids
        chosen = self._rng.choice(len(ids), size=self._batch_size, replace=False)
        return [ids[i] for i in sorted(chosen)]

    def reset(self) -> None:
        self._rng = default_rng(self._seed)


class ChurnArrival(WorkerArrivalProcess):
    """Workers churn through deterministic active/away sessions.

    Each worker is active for ``active_rounds`` out of every ``cycle_rounds``
    rounds, phase-shifted by a hash of its id so sessions overlap but the
    available set keeps turning over.  Batches are drawn uniformly from the
    currently active subset; if a round's active set is empty (tiny pools),
    the full pool is used so the platform never stalls.

    Membership is a pure function of ``(worker_id, round_index)`` — replays
    see the same sessions regardless of RNG state, which keeps scenario
    replays byte-for-byte reproducible.
    """

    def __init__(
        self,
        pool: WorkerPool,
        batch_size: int = 5,
        cycle_rounds: int = 20,
        active_rounds: int = 12,
        seed: SeedLike = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if cycle_rounds <= 0:
            raise ValueError(f"cycle_rounds must be positive, got {cycle_rounds}")
        if not 0 < active_rounds <= cycle_rounds:
            raise ValueError(
                f"active_rounds must be in (0, cycle_rounds], got "
                f"{active_rounds} of {cycle_rounds}"
            )
        self._pool = pool
        self._batch_size = batch_size
        self._cycle = cycle_rounds
        self._active = active_rounds
        self._seed = seed
        self._rng = default_rng(seed)
        self._phases = {
            worker_id: zlib.crc32(worker_id.encode("utf-8")) % cycle_rounds
            for worker_id in pool.worker_ids
        }

    def active_workers(self, round_index: int) -> list[str]:
        """The ids whose session covers ``round_index`` (deterministic)."""
        return [
            worker_id
            for worker_id in self._pool.worker_ids
            if (round_index + self._phases[worker_id]) % self._cycle < self._active
        ]

    def next_batch(self, round_index: int) -> list[str]:
        ids = self.active_workers(round_index)
        if not ids:
            ids = self._pool.worker_ids
        size = min(self._batch_size, len(ids))
        chosen = self._rng.choice(len(ids), size=size, replace=False)
        return [ids[i] for i in sorted(chosen)]

    def reset(self) -> None:
        self._rng = default_rng(self._seed)


@dataclass(frozen=True)
class DiurnalPattern:
    """Sinusoidal arrival-rate modulation with optional bursts.

    The instantaneous arrival rate is scaled by
    ``1 + amplitude * sin(2π · t / period)`` — peak traffic mid-period,
    trough at the wrap — and with probability ``burst_probability`` a batch
    arrives ``burst_factor`` times faster than the modulated rate (a spike).
    """

    period: float = 60.0
    amplitude: float = 0.5
    burst_probability: float = 0.0
    burst_factor: float = 4.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.period) or self.period <= 0:
            raise ValueError(f"period must be finite and positive, got {self.period}")
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError(f"amplitude must be in [0, 1), got {self.amplitude}")
        if not 0.0 <= self.burst_probability <= 1.0:
            raise ValueError(
                f"burst_probability must be in [0, 1], got {self.burst_probability}"
            )
        if self.burst_factor < 1.0:
            raise ValueError(f"burst_factor must be >= 1, got {self.burst_factor}")

    def rate_scale(self, now: float) -> float:
        """Arrival-rate multiplier at simulated time ``now`` (always > 0)."""
        return 1.0 + self.amplitude * math.sin(2.0 * math.pi * now / self.period)


@dataclass(frozen=True)
class ArrivalBatch:
    """One timestamped arrival: who showed up and at what simulated time."""

    round_index: int
    time: float
    worker_ids: tuple[str, ...]


class TimedArrivalSchedule:
    """A :class:`WorkerArrivalProcess` with simulated arrival timestamps.

    Batches keep the wrapped process's membership; the schedule only adds a
    monotone clock with exponential inter-batch gaps of mean
    ``mean_interarrival`` (simulated seconds).  The serving subsystem's
    ingestion layer uses these times to close micro-batches on a time window
    even when traffic is sparse.

    With a :class:`DiurnalPattern`, each exponential gap is divided by the
    pattern's rate multiplier at the current clock (denser arrivals at the
    diurnal peak) and occasionally compressed by the burst factor.  Passing
    ``pattern=None`` consumes exactly the same RNG stream as before the
    pattern existed, so existing seeded replays are unchanged.
    """

    def __init__(
        self,
        process: WorkerArrivalProcess,
        mean_interarrival: float = 1.0,
        seed: SeedLike = None,
        pattern: DiurnalPattern | None = None,
    ) -> None:
        if mean_interarrival <= 0:
            raise ValueError(
                f"mean_interarrival must be positive, got {mean_interarrival}"
            )
        self._process = process
        self._mean = mean_interarrival
        self._seed = seed
        self._pattern = pattern
        self._rng = default_rng(seed)
        self._now = 0.0
        self._round = 0

    @property
    def now(self) -> float:
        """The simulated clock: the time of the most recent batch."""
        return self._now

    def next_batch(self) -> ArrivalBatch:
        """Advance the clock and return the next timestamped batch."""
        gap = float(self._rng.exponential(self._mean))
        if self._pattern is not None:
            gap /= self._pattern.rate_scale(self._now)
            if (
                self._pattern.burst_probability > 0.0
                and self._rng.random() < self._pattern.burst_probability
            ):
                gap /= self._pattern.burst_factor
        self._now += gap
        batch = ArrivalBatch(
            round_index=self._round,
            time=self._now,
            worker_ids=tuple(self._process.next_batch(self._round)),
        )
        self._round += 1
        return batch

    def reset(self) -> None:
        self._process.reset()
        self._rng = default_rng(self._seed)
        self._now = 0.0
        self._round = 0
