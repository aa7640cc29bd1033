"""Tests for repro.core.incremental (incremental EM updates)."""

import pytest

from repro.core.incremental import IncrementalUpdater
from repro.core.inference import LocationAwareInference
from repro.crowd.answer_model import AnswerSimulator
from repro.data.models import AnswerSet


@pytest.fixture()
def fitted_model(small_dataset, worker_pool, distance_model, collected_answers):
    model = LocationAwareInference(
        small_dataset.tasks, worker_pool.workers, distance_model
    )
    model.fit(collected_answers)
    return model


def simulate_new_answers(small_dataset, worker_pool, distance_model, existing, count=4):
    """Produce a few fresh answers from workers that have not answered those tasks."""
    simulator = AnswerSimulator(distance_model, noise=0.0)
    new_answers = []
    for profile in worker_pool:
        for task in small_dataset.tasks:
            if existing.get(profile.worker_id, task.task_id) is None:
                new_answers.append(simulator.sample_answer(profile, task, seed=99))
                break
        if len(new_answers) >= count:
            break
    return new_answers


class TestValidation:
    def test_invalid_intervals(self, fitted_model):
        with pytest.raises(ValueError):
            IncrementalUpdater(fitted_model, full_refresh_interval=0)
        with pytest.raises(ValueError):
            IncrementalUpdater(fitted_model, local_iterations=0)


class TestIncrementalUpdate:
    def test_empty_update_is_noop(self, fitted_model, collected_answers):
        updater = IncrementalUpdater(fitted_model)
        before = fitted_model.parameters
        after = updater.apply(collected_answers, [])
        assert after is before
        assert updater.answers_since_full_refresh == 0

    def test_updates_only_affected_entities(
        self, fitted_model, small_dataset, worker_pool, distance_model, collected_answers
    ):
        updater = IncrementalUpdater(fitted_model)
        before = fitted_model.parameters.copy()
        new_answers = simulate_new_answers(
            small_dataset, worker_pool, distance_model, collected_answers, count=2
        )
        answers = collected_answers.copy()
        for answer in new_answers:
            answers.add(answer)
        after = updater.apply(answers, new_answers)

        affected_workers = {a.worker_id for a in new_answers}
        affected_tasks = {a.task_id for a in new_answers}
        # Untouched workers keep their previous estimates bit-for-bit.
        for worker_id in before.worker_ids:
            if worker_id not in affected_workers:
                assert after.worker(worker_id).p_qualified == pytest.approx(
                    before.worker(worker_id).p_qualified
                )
        for task_id in before.task_ids:
            if task_id not in affected_tasks:
                assert after.task(task_id).label_probs == pytest.approx(
                    before.task(task_id).label_probs
                )

    def test_affected_entities_change(
        self, fitted_model, small_dataset, worker_pool, distance_model, collected_answers
    ):
        updater = IncrementalUpdater(fitted_model)
        before = fitted_model.parameters.copy()
        new_answers = simulate_new_answers(
            small_dataset, worker_pool, distance_model, collected_answers, count=3
        )
        answers = collected_answers.copy()
        for answer in new_answers:
            answers.add(answer)
        after = updater.apply(answers, new_answers)
        affected_tasks = {a.task_id for a in new_answers}
        changed = any(
            abs(
                float(
                    (after.task(task_id).label_probs - before.task(task_id).label_probs).max()
                )
            )
            > 0.0
            for task_id in affected_tasks
            if before.has_task(task_id)
        )
        assert changed

    def test_counter_and_refresh_due(self, fitted_model, collected_answers, small_dataset, worker_pool, distance_model):
        updater = IncrementalUpdater(fitted_model, full_refresh_interval=3)
        new_answers = simulate_new_answers(
            small_dataset, worker_pool, distance_model, collected_answers, count=4
        )
        answers = collected_answers.copy()
        for answer in new_answers:
            answers.add(answer)
        updater.apply(answers, new_answers)
        assert updater.answers_since_full_refresh == 4
        assert updater.full_refresh_due
        updater.notify_full_refresh()
        assert updater.answers_since_full_refresh == 0
        assert not updater.full_refresh_due

    def test_incremental_close_to_full_em(
        self, small_dataset, worker_pool, distance_model, collected_answers
    ):
        """The incremental estimate should stay close to a full EM re-run."""
        from repro.framework.metrics import labelling_accuracy

        model = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        model.fit(collected_answers)
        updater = IncrementalUpdater(model, local_iterations=3)

        new_answers = simulate_new_answers(
            small_dataset, worker_pool, distance_model, collected_answers, count=5
        )
        answers = collected_answers.copy()
        for answer in new_answers:
            answers.add(answer)
        updater.apply(answers, new_answers)
        incremental_accuracy = labelling_accuracy(model.predict_all(), small_dataset.tasks)

        fresh = LocationAwareInference(
            small_dataset.tasks, worker_pool.workers, distance_model
        )
        fresh.fit(answers)
        full_accuracy = labelling_accuracy(fresh.predict_all(), small_dataset.tasks)
        assert abs(full_accuracy - incremental_accuracy) < 0.15


class TestHandedOutEstimate:
    """What a handed-out estimate promises: ``apply`` returns the updater's
    live store, installed as the model's estimate, and later batches change
    it in place.  A caller keeps one version by copying it; published
    snapshots are frozen copies the updater never touches."""

    def test_apply_hands_out_the_live_store(
        self, fitted_model, small_dataset, worker_pool, distance_model, collected_answers
    ):
        updater = IncrementalUpdater(fitted_model)
        fitted = fitted_model.parameters
        kept_fit = fitted.copy()
        batches = simulate_new_answers(
            small_dataset, worker_pool, distance_model, collected_answers, count=4
        )
        answers = collected_answers.copy()
        answers.add(batches[0])
        live = updater.apply(answers, batches[:1])
        assert live is updater.live_store is fitted_model.parameters
        # The fit's own store was re-gathered, never written.
        assert fitted.max_difference(kept_fit) == 0.0
        kept = live.copy()
        for answer in batches[1:]:
            answers.add(answer)
        assert updater.apply(answers, batches[1:]) is live
        assert live.max_difference(kept) > 0.0

    def test_published_copies_stay_put(
        self, fitted_model, small_dataset, worker_pool, distance_model, collected_answers
    ):
        from repro.serving.snapshots import SnapshotStore

        updater = IncrementalUpdater(fitted_model)
        snapshots = SnapshotStore()
        batches = simulate_new_answers(
            small_dataset, worker_pool, distance_model, collected_answers, count=4
        )
        answers = collected_answers.copy()
        answers.add(batches[0])
        updater.apply(answers, batches[:1])
        published = snapshots.publish(updater.publish_store(answers)).store
        frozen = published.copy()
        for answer in batches[1:]:
            answers.add(answer)
        updater.apply(answers, batches[1:])
        assert published.frozen and published is not updater.live_store
        assert published.max_difference(frozen) == 0.0
        assert snapshots.latest().as_model() is published


class TestLiveStateError:
    def test_external_fit_without_log_raises_typed_error(
        self, fitted_model, small_dataset, worker_pool, distance_model,
        collected_answers,
    ):
        """An updater joining an externally fitted model must be given the
        answer log (or a primed carryover) — silently refitting on the
        micro-batch alone would discard the estimate's history."""
        from repro.serving import LiveStateError, ServingStateError

        updater = IncrementalUpdater(fitted_model)
        new_answers = simulate_new_answers(
            small_dataset, worker_pool, distance_model, collected_answers
        )
        with pytest.raises(LiveStateError) as excinfo:
            updater.apply(None, new_answers)
        assert isinstance(excinfo.value, ServingStateError)
        assert "prime_carryover" in str(excinfo.value)

    def test_passing_the_log_recovers(
        self, fitted_model, small_dataset, worker_pool, distance_model,
        collected_answers,
    ):
        updater = IncrementalUpdater(fitted_model)
        new_answers = simulate_new_answers(
            small_dataset, worker_pool, distance_model, collected_answers
        )
        answers = collected_answers.copy()
        for answer in new_answers:
            answers.add(answer)
        params = updater.apply(answers, new_answers)
        assert params is fitted_model.parameters
        assert updater.tensor_rebuilds == 1
