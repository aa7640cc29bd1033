"""Tests for repro.serving.guard (event validation and quarantine)."""

import json
from types import SimpleNamespace

import pytest

from repro.core.em_kernel import AnswerColumns
from repro.core.inference import LocationAwareInference
from repro.crowd.answer_model import AnswerSimulator
from repro.data.models import Answer, AnswerSet
from repro.serving import (
    AnswerEvent,
    AnswerIngestor,
    EventGuard,
    GuardConfig,
    IngestConfig,
    SnapshotStore,
)


@pytest.fixture()
def inference(small_dataset, worker_pool, distance_model):
    return LocationAwareInference(
        small_dataset.tasks, worker_pool.workers, distance_model
    )


def make_event(small_dataset, worker_pool, distance_model, index=0, time=0.0):
    simulator = AnswerSimulator(distance_model, noise=0.0)
    profile = next(iter(worker_pool))
    task = small_dataset.tasks[index % len(small_dataset.tasks)]
    return AnswerEvent(
        simulator.sample_answer(profile, task, seed=500 + index), time=time
    )


class TestConfigValidation:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            GuardConfig(coordinate_bounds=(1.0, 0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            GuardConfig(max_answers_per_window=-1)
        with pytest.raises(ValueError):
            GuardConfig(rate_window=0.0)
        with pytest.raises(ValueError):
            GuardConfig(quarantine_capacity=0)


class TestRejectionReasons:
    def test_valid_event_is_accepted(
        self, inference, small_dataset, worker_pool, distance_model
    ):
        guard = EventGuard()
        event = make_event(small_dataset, worker_pool, distance_model)
        assert guard.admit(event, inference) is None
        assert guard.stats.accepted == 1
        assert guard.stats.quarantined == 0

    def test_non_finite_coordinates(self, inference, small_dataset, worker_pool, distance_model):
        event = make_event(small_dataset, worker_pool, distance_model)
        bad_worker = SimpleNamespace(
            worker_id=event.answer.worker_id,
            locations=(SimpleNamespace(x=float("nan"), y=1.0),),
        )
        bad = AnswerEvent(event.answer, time=0.0, worker=bad_worker)
        guard = EventGuard()
        assert guard.admit(bad, inference) == "coordinates"
        assert guard.stats.reasons == {"coordinates": 1}
        assert "non-finite" in guard.quarantine[0].detail

    def test_out_of_bounds_coordinates(self, inference, small_dataset, worker_pool, distance_model):
        from repro.data.models import Worker
        from repro.spatial.geometry import GeoPoint

        event = make_event(small_dataset, worker_pool, distance_model)
        far_worker = Worker(
            worker_id=event.answer.worker_id, locations=(GeoPoint(500.0, 500.0),)
        )
        bad = AnswerEvent(event.answer, time=0.0, worker=far_worker)
        guard = EventGuard(GuardConfig(coordinate_bounds=(0.0, 0.0, 200.0, 200.0)))
        assert guard.admit(bad, inference) == "coordinates"
        assert "outside" in guard.quarantine[0].detail

    def test_unknown_task_without_payload(self, inference):
        event = AnswerEvent(Answer(worker_id="w0", task_id="ghost", responses=(1,)))
        guard = EventGuard()
        assert guard.admit(event, inference) == "unknown-task"

    def test_unknown_worker_without_payload(self, inference, small_dataset):
        task = small_dataset.tasks[0]
        answer = Answer(
            worker_id="ghost",
            task_id=task.task_id,
            responses=tuple(0 for _ in range(task.num_labels)),
        )
        guard = EventGuard()
        assert guard.admit(AnswerEvent(answer), inference) == "unknown-worker"

    def test_payload_mismatch(self, inference, small_dataset, worker_pool, distance_model):
        event = make_event(small_dataset, worker_pool, distance_model)
        other = small_dataset.tasks[1]
        assert other.task_id != event.answer.task_id
        bad = AnswerEvent(event.answer, time=0.0, task=other)
        guard = EventGuard()
        assert guard.admit(bad, inference) == "payload-mismatch"

    def test_label_arity(self, inference, small_dataset, worker_pool):
        task = small_dataset.tasks[0]
        worker = worker_pool.workers[0]
        answer = Answer(
            worker_id=worker.worker_id, task_id=task.task_id, responses=(1,)
        )
        assert task.num_labels != 1
        guard = EventGuard()
        assert guard.admit(AnswerEvent(answer), inference) == "label-arity"

    def test_duplicate_and_reanswer(
        self, inference, small_dataset, worker_pool, distance_model
    ):
        event = make_event(small_dataset, worker_pool, distance_model)
        guard = EventGuard()
        assert guard.admit(event, inference) is None
        # Identical resubmission: always quarantined.
        assert guard.admit(event, inference) == "duplicate"
        # A changed re-answer is fine by default...
        flipped = Answer(
            worker_id=event.answer.worker_id,
            task_id=event.answer.task_id,
            responses=tuple(1 - r for r in event.answer.responses),
        )
        assert guard.admit(AnswerEvent(flipped), inference) is None
        # ...but rejected when re-answers are disabled.
        strict = EventGuard(GuardConfig(allow_reanswers=False))
        assert strict.admit(event, inference) is None
        assert strict.admit(AnswerEvent(flipped), inference) == "reanswer"

    def test_rate_limit_sliding_window(
        self, inference, small_dataset, worker_pool, distance_model
    ):
        guard = EventGuard(
            GuardConfig(max_answers_per_window=2, rate_window=10.0)
        )
        events = [
            make_event(small_dataset, worker_pool, distance_model, index=i, time=t)
            for i, t in enumerate((0.0, 1.0, 2.0, 20.0))
        ]
        assert guard.admit(events[0], inference) is None
        assert guard.admit(events[1], inference) is None
        assert guard.admit(events[2], inference) == "rate-limit"
        # The window slides: 20s later the worker may answer again.
        assert guard.admit(events[3], inference) is None


class TestQuarantineLog:
    def test_capacity_bounds_the_log(self, inference):
        guard = EventGuard(GuardConfig(quarantine_capacity=2))
        for i in range(5):
            guard.admit(
                AnswerEvent(Answer(worker_id="w", task_id=f"ghost{i}", responses=(1,))),
                inference,
            )
        assert guard.stats.quarantined == 5
        assert len(guard.quarantine) == 2  # newest two retained
        assert guard.quarantine[-1].event.answer.task_id == "ghost4"

    def test_jsonl_sink_mirrors_quarantined_events(self, tmp_path, inference):
        sink = tmp_path / "quarantine.jsonl"
        guard = EventGuard(GuardConfig(quarantine_sink=sink))
        guard.admit(
            AnswerEvent(Answer(worker_id="w", task_id="ghost", responses=(1,))),
            inference,
        )
        lines = sink.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["reason"] == "unknown-task"
        assert record["task_id"] == "ghost"


class TestHistoryPaths:
    def test_observe_bypasses_validation(
        self, inference, small_dataset, worker_pool, distance_model
    ):
        guard = EventGuard()
        event = make_event(small_dataset, worker_pool, distance_model)
        # Recovery replay: record history without inspecting.
        guard.observe(event)
        assert guard.stats.quarantined == 0
        # The replayed pair now counts for duplicate detection.
        assert guard.admit(event, inference) == "duplicate"

    def test_seed_history_from_checkpoint_answers(
        self, inference, small_dataset, worker_pool, distance_model
    ):
        events = [
            make_event(small_dataset, worker_pool, distance_model, index=i)
            for i in range(3)
        ]
        columns = AnswerColumns.gather(
            AnswerSet(event.answer for event in events[:2]),
            inference.tasks,
            inference.workers,
        )
        guard = EventGuard()
        guard.seed_history(columns)
        assert (guard.stats.inspected, guard.stats.accepted) == (2, 2)
        # The seeded rows count for duplicate detection; the unseeded does not.
        assert [guard.admit(event, inference) for event in events] == [
            "duplicate",
            "duplicate",
            None,
        ]


class TestIngestorIntegration:
    def test_quarantined_events_never_reach_the_model(
        self, inference, small_dataset, worker_pool, distance_model
    ):
        snapshots = SnapshotStore()
        ingestor = AnswerIngestor(
            inference,
            snapshots,
            config=IngestConfig(max_batch_answers=2, max_batch_delay=100.0),
            guard=EventGuard(),
        )
        good = [
            make_event(small_dataset, worker_pool, distance_model, index=i)
            for i in range(2)
        ]
        bad = AnswerEvent(Answer(worker_id="w", task_id="ghost", responses=(1,)))

        # A malformed event used to raise KeyError inside the flush; now it is
        # quarantined at intake and the stream keeps flowing.
        assert ingestor.submit(bad) is None
        assert ingestor.submit(good[0]) is None
        snapshot = ingestor.submit(good[1])
        assert snapshot is not None  # the batch of two good events flushed

        assert ingestor.stats.events_quarantined == 1
        assert ingestor.stats.answers == 2
        assert ingestor.guard.stats.reasons == {"unknown-task": 1}


# ------------------------------------------------------------------ trust
def make_trust_tensor(rows, num_workers):
    """A minimal stand-in for AnswerTensor's label-row view.

    ``rows`` is a list of ``(worker_row, cell, response, distance)`` tuples,
    one single-label answer each — exactly the fields ``trust_scores`` reads.
    """
    import numpy as np

    return SimpleNamespace(
        num_workers=num_workers,
        num_answers=len(rows),
        worker_ids=tuple(f"w{i}" for i in range(num_workers)),
        responses=np.array([r[2] for r in rows], dtype=float),
        r_worker=np.array([r[0] for r in rows], dtype=np.intp),
        r_label=np.array([r[1] for r in rows], dtype=np.intp),
        r_answer=np.arange(len(rows), dtype=np.intp),
        distances=np.array([r[3] for r in rows], dtype=float),
    )


class TestTrustScores:
    def test_empty_tensor_is_uninformative(self):
        import numpy as np

        from repro.serving.guard import trust_scores

        scores = trust_scores(make_trust_tensor([], 4))
        np.testing.assert_array_equal(scores, np.full(4, 0.5))

    def test_near_agreement_separates_honest_from_coin(self):
        from repro.serving.guard import trust_scores

        # Five workers agree on cell 0 at near distance; worker 5 dissents.
        rows = [(w, 0, 1.0, 0.02) for w in range(5)] + [(5, 0, 0.0, 0.02)]
        scores = trust_scores(make_trust_tensor(rows, 6))
        assert all(scores[w] > 0.5 for w in range(5))
        assert scores[5] < 0.5

    def test_far_rows_carry_no_evidence(self):
        # The reference floor is exactly 0.5: far from a task an honest local
        # worker and a coin are statistically identical, so far agreement and
        # far dissent must both contribute ~zero log-likelihood ratio.
        from repro.serving.guard import trust_scores

        rows = [(w, 0, 1.0, 1.0) for w in range(5)] + [(5, 0, 0.0, 1.0)]
        scores = trust_scores(make_trust_tensor(rows, 6))
        assert all(abs(score - 0.5) < 1e-6 for score in scores)

    def test_thin_cells_are_ignored(self):
        # Two other voters < min_votes=3: nobody is judged on the cell.
        from repro.serving.guard import trust_scores

        rows = [(w, 0, 1.0, 0.0) for w in range(3)]
        scores = trust_scores(make_trust_tensor(rows, 3))
        assert list(scores) == [0.5, 0.5, 0.5]

    def test_soft_majorities_are_ignored(self):
        # A 3-3 split leaves every leave-one-out share within the firm
        # margin of 0.5 — contested cells judge no one.
        from repro.serving.guard import trust_scores

        rows = [(w, 0, 1.0, 0.0) for w in range(3)]
        rows += [(w, 0, 0.0, 0.0) for w in range(3, 6)]
        scores = trust_scores(make_trust_tensor(rows, 6))
        assert list(scores) == [0.5] * 6

    def test_own_votes_never_vouch(self):
        # A worker alone on ten cells: its own answers are excluded from the
        # consensus it is judged against, so no evidence accrues.
        from repro.serving.guard import trust_scores

        rows = [(0, cell, 1.0, 0.0) for cell in range(10)]
        scores = trust_scores(make_trust_tensor(rows, 1))
        assert scores[0] == 0.5

    def test_excluded_votes_are_struck_but_workers_still_scored(self):
        from repro.serving.guard import trust_scores

        # Four honest voters against three coordinated dissenters per cell.
        rows = []
        for cell in range(4):
            rows += [(w, cell, 1.0, 0.02) for w in range(4)]
            rows += [(w, cell, 0.0, 0.02) for w in range(4, 7)]
        tensor = make_trust_tensor(rows, 7)

        # With the dissenters voting, every leave-one-out share is contested.
        baseline = trust_scores(tensor)
        assert all(score == 0.5 for score in baseline)

        # Striking their votes firms the honest consensus back up — and the
        # struck workers are still scored against it (rehabilitation path).
        scores = trust_scores(tensor, excluded=("w4", "w5", "w6"))
        assert all(scores[w] > 0.5 for w in range(4))
        assert all(scores[w] < 0.5 for w in range(4, 7))

    def test_deterministic(self):
        import numpy as np

        from repro.serving.guard import trust_scores

        rows = [(w, c, float((w + c) % 2), 0.1 * w) for w in range(6) for c in range(5)]
        tensor = make_trust_tensor(rows, 6)
        np.testing.assert_array_equal(trust_scores(tensor), trust_scores(tensor))


class TestReputationConfigValidation:
    def test_invalid_values_rejected(self):
        from repro.serving import ReputationConfig

        with pytest.raises(ValueError):
            ReputationConfig(quarantine_below=0.5, probation_below=0.3)
        with pytest.raises(ValueError):
            ReputationConfig(probation_below=0.5, readmit_above=0.4)
        with pytest.raises(ValueError):
            ReputationConfig(min_answers=0)
        with pytest.raises(ValueError):
            ReputationConfig(demote_patience=0)
        with pytest.raises(ValueError):
            ReputationConfig(promote_patience=0)
        with pytest.raises(ValueError):
            ReputationConfig(posterior_smoothing=1.0)
        with pytest.raises(ValueError):
            ReputationConfig(quarantined_weight=1.5)


class TestReputationTracker:
    @staticmethod
    def make_tracker(**overrides):
        from repro.serving import ReputationConfig, ReputationTracker

        kwargs = dict(
            min_answers=1,
            demote_patience=1,
            promote_patience=1,
            posterior_smoothing=0.0,
        )
        kwargs.update(overrides)
        return ReputationTracker(ReputationConfig(**kwargs))

    def test_min_answers_gates_judgement(self):
        tracker = self.make_tracker(min_answers=5)
        assert tracker.evaluate(["w"], [0.01], {"w": 4}) == 0
        assert tracker.tier("w") == "trusted"
        assert tracker.evaluate(["w"], [0.01], {"w": 5}) == 1
        assert tracker.is_quarantined("w")

    def test_demotion_requires_consecutive_evaluations(self):
        tracker = self.make_tracker(demote_patience=2)
        counts = {"w": 50}
        assert tracker.evaluate(["w"], [0.05], counts) == 0  # streak 1
        assert tracker.tier("w") == "trusted"
        # A healthy evaluation in between resets the streak.
        assert tracker.evaluate(["w"], [0.9], counts) == 0
        assert tracker.evaluate(["w"], [0.05], counts) == 0  # streak 1 again
        assert tracker.evaluate(["w"], [0.05], counts) == 1  # streak 2: demote
        assert tracker.is_quarantined("w")
        assert tracker.transitions == 1
        assert tracker.version == 1

    def test_readmission_through_hysteresis(self):
        tracker = self.make_tracker(promote_patience=2)
        counts = {"w": 50}
        tracker.evaluate(["w"], [0.05], counts)
        assert tracker.is_quarantined("w")
        # Inside the dead band (probation_below < p < readmit_above) every
        # tier holds — drifting just over quarantine_below is not recovery.
        tracker.evaluate(["w"], [0.40], counts)
        assert tracker.is_quarantined("w")
        tracker.evaluate(["w"], [0.9], counts)  # promote streak 1
        assert tracker.is_quarantined("w")
        tracker.evaluate(["w"], [0.9], counts)  # streak 2: re-admitted
        assert tracker.tier("w") == "trusted"
        assert not tracker.quarantined_ids

    def test_dead_band_holds_probation(self):
        tracker = self.make_tracker()
        counts = {"w": 50}
        tracker.evaluate(["w"], [0.2], counts)
        assert tracker.tier("w") == "probation"
        tracker.evaluate(["w"], [0.40], counts)
        assert tracker.tier("w") == "probation"

    def test_posterior_smoothing_damps_spikes(self):
        tracker = self.make_tracker(posterior_smoothing=0.5)
        counts = {"w": 50}
        tracker.evaluate(["w"], [0.0], counts)
        assert tracker.is_quarantined("w")
        # One spiked evaluation only reaches the smoothed midpoint 0.45,
        # which is not strictly above readmit_above.
        tracker.evaluate(["w"], [0.9], counts)
        assert tracker.is_quarantined("w")
        # The sustained trend does cross it.
        tracker.evaluate(["w"], [0.9], counts)
        assert tracker.tier("w") == "trusted"

    def test_trust_weight_and_tier_counts(self):
        tracker = self.make_tracker()
        counts = {"bad": 50, "meh": 50}
        tracker.evaluate(["bad", "meh"], [0.05, 0.2], counts)
        assert tracker.trust_weight("bad") == tracker.config.quarantined_weight
        assert tracker.trust_weight("meh") == 1.0
        assert tracker.trust_weight("never-seen") == 1.0
        assert tracker.tier_counts() == {"probation": 1, "quarantined": 1}
        assert tracker.quarantined_ids == frozenset({"bad"})

    def test_non_finite_posteriors_are_skipped(self):
        tracker = self.make_tracker()
        assert tracker.evaluate(["w"], [float("nan")], {"w": 50}) == 0
        assert tracker.tier("w") == "trusted"

    def test_state_roundtrip_is_bit_equal(self):
        from repro.serving import ReputationConfig, ReputationTracker

        tracker = self.make_tracker(
            demote_patience=2, posterior_smoothing=0.5, min_answers=1
        )
        counts = {"a": 50, "b": 50, "c": 50}
        ids = ["a", "b", "c"]
        tracker.evaluate(ids, [0.05, 0.2, 0.9], counts)
        tracker.evaluate(ids, [0.05, 0.2, 0.9], counts)  # mixed tiers + streaks
        state = json.loads(json.dumps(tracker.state_dict()))

        restored = ReputationTracker(ReputationConfig(min_answers=1))
        restored.restore_state(state)
        assert restored.state_dict() == tracker.state_dict()
        assert restored.version == tracker.version
        assert restored.transitions == tracker.transitions
        for worker_id in ids:
            assert restored.tier(worker_id) == tracker.tier(worker_id)
