"""Tests for repro.crowd.arrival."""

import math

import numpy as np
import pytest

from repro.crowd.arrival import (
    ChurnArrival,
    DiurnalPattern,
    TimedArrivalSchedule,
    UniformRandomArrival,
)
from repro.crowd.worker_pool import WorkerPool, WorkerPoolSpec
from repro.spatial.bbox import BoundingBox


@pytest.fixture(scope="module")
def pool():
    bounds = BoundingBox(0.0, 0.0, 1.0, 1.0)
    return WorkerPool.generate(bounds, spec=WorkerPoolSpec(num_workers=10), seed=1)


class TestUniformRandomArrival:
    def test_batch_size(self, pool):
        arrival = UniformRandomArrival(pool, batch_size=4, seed=3)
        batch = arrival.next_batch(0)
        assert len(batch) == 4
        assert len(set(batch)) == 4
        assert all(worker_id in pool for worker_id in batch)

    def test_reset_replays_sequence(self, pool):
        arrival = UniformRandomArrival(pool, batch_size=3, seed=9)
        first = [arrival.next_batch(i) for i in range(3)]
        arrival.reset()
        second = [arrival.next_batch(i) for i in range(3)]
        assert first == second

    def test_batch_size_validation(self, pool):
        with pytest.raises(ValueError):
            UniformRandomArrival(pool, batch_size=0)
        with pytest.raises(ValueError):
            UniformRandomArrival(pool, batch_size=len(pool) + 1)


class TestChurnArrival:
    def test_each_worker_is_active_for_its_session_share(self, pool):
        arrival = ChurnArrival(pool, cycle_rounds=6, active_rounds=4, seed=1)
        # Membership is a pure function of the round: no seed enters it.
        other = ChurnArrival(pool, cycle_rounds=6, active_rounds=4, seed=99)
        sessions = {worker_id: 0 for worker_id in pool.worker_ids}
        for round_index in range(6):
            active = arrival.active_workers(round_index)
            assert active == other.active_workers(round_index)
            assert active == arrival.active_workers(round_index + 6)
            for worker_id in active:
                sessions[worker_id] += 1
        assert set(sessions.values()) == {4}

    def test_batches_are_drawn_from_the_active_set(self, pool):
        arrival = ChurnArrival(pool, batch_size=5, cycle_rounds=6, active_rounds=4, seed=3)
        for round_index in range(24):
            active = arrival.active_workers(round_index)
            batch = arrival.next_batch(round_index)
            assert len(batch) == min(5, len(active))
            assert len(set(batch)) == len(batch)
            # A subset of the active workers, in pool order.
            assert batch == [worker_id for worker_id in active if worker_id in batch]

    def test_empty_session_falls_back_to_the_whole_pool(self, pool):
        arrival = ChurnArrival(pool, batch_size=3, cycle_rounds=20, active_rounds=1, seed=4)
        idle = [r for r in range(20) if not arrival.active_workers(r)]
        assert idle
        for round_index in idle:
            batch = arrival.next_batch(round_index)
            assert len(batch) == 3 == len(set(batch))
            assert all(worker_id in pool for worker_id in batch)

    def test_reset_replays_sequence(self, pool):
        arrival = ChurnArrival(pool, batch_size=2, cycle_rounds=6, active_rounds=3, seed=5)
        first = [arrival.next_batch(i) for i in range(8)]
        arrival.reset()
        assert [arrival.next_batch(i) for i in range(8)] == first

    def test_parameter_validation(self, pool):
        with pytest.raises(ValueError):
            ChurnArrival(pool, batch_size=0)
        with pytest.raises(ValueError):
            ChurnArrival(pool, cycle_rounds=0)
        with pytest.raises(ValueError):
            ChurnArrival(pool, cycle_rounds=5, active_rounds=0)
        with pytest.raises(ValueError):
            ChurnArrival(pool, cycle_rounds=5, active_rounds=6)


class TestDiurnalPattern:
    def test_rate_scale_follows_the_sine(self):
        pattern = DiurnalPattern(period=40.0, amplitude=0.5)
        expected = {0.0: 1.0, 10.0: 1.5, 20.0: 1.0, 30.0: 0.5, 40.0: 1.0, 50.0: 1.5}
        for now, scale in expected.items():
            assert pattern.rate_scale(now) == pytest.approx(scale, abs=1e-12)

    def test_parameter_validation(self):
        for bad in (
            {"period": 0.0},
            {"period": math.inf},
            {"amplitude": 1.0},
            {"amplitude": -0.1},
            {"burst_probability": 1.5},
            {"burst_factor": 0.5},
        ):
            with pytest.raises(ValueError):
                DiurnalPattern(**bad)


class TestTimedArrivalSchedule:
    def test_times_are_strictly_increasing(self, pool):
        schedule = TimedArrivalSchedule(
            UniformRandomArrival(pool, batch_size=3, seed=5),
            mean_interarrival=2.0,
            seed=4,
        )
        batches = [schedule.next_batch() for _ in range(6)]
        times = [batch.time for batch in batches]
        assert times == sorted(times)
        assert all(later > earlier for earlier, later in zip(times, times[1:]))
        assert [batch.round_index for batch in batches] == list(range(6))
        assert schedule.now == times[-1]

    def test_membership_comes_from_wrapped_process(self, pool):
        process = UniformRandomArrival(pool, batch_size=3, seed=5)
        schedule = TimedArrivalSchedule(process, seed=4)
        batch = schedule.next_batch()
        process.reset()
        assert list(batch.worker_ids) == process.next_batch(0)

    def test_reset_replays_clock_and_membership(self, pool):
        schedule = TimedArrivalSchedule(
            UniformRandomArrival(pool, batch_size=2, seed=9), seed=10
        )
        first = [schedule.next_batch() for _ in range(4)]
        schedule.reset()
        second = [schedule.next_batch() for _ in range(4)]
        assert first == second
        assert schedule.now == first[-1].time

    def test_invalid_mean_interarrival(self, pool):
        with pytest.raises(ValueError):
            TimedArrivalSchedule(
                UniformRandomArrival(pool, batch_size=2), mean_interarrival=0.0
            )

    @pytest.mark.parametrize(
        "pattern",
        [
            None,
            DiurnalPattern(period=10.0, amplitude=0.6),
            DiurnalPattern(period=10.0, amplitude=0.6, burst_probability=0.5, burst_factor=5.0),
        ],
        ids=["plain", "diurnal", "bursts"],
    )
    def test_each_gap_replays_the_seeded_stream(self, pool, pattern):
        schedule = TimedArrivalSchedule(
            UniformRandomArrival(pool, batch_size=2, seed=8),
            mean_interarrival=2.0,
            seed=7,
            pattern=pattern,
        )
        # One exponential draw per batch, shrunk by the rate at the clock;
        # a burst draw is spent only when bursts are on.
        rng = np.random.default_rng(7)
        now = 0.0
        bursts = 0
        for _ in range(40):
            gap = float(rng.exponential(2.0))
            if pattern is not None:
                gap /= pattern.rate_scale(now)
                if pattern.burst_probability > 0.0 and rng.random() < pattern.burst_probability:
                    gap /= pattern.burst_factor
                    bursts += 1
            now += gap
            assert schedule.next_batch().time == now
        assert (bursts > 0) == (pattern is not None and pattern.burst_probability > 0.0)
