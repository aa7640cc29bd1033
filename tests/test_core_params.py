"""Tests for repro.core.params, against the id-keyed form of oracles.params.

The dict-of-dataclasses form is the reference: its classes are tested first,
then the store's accessors, priors, Equation 9, re-gather and Figure 10
measure are held to it exactly, on hand-built cases and on random stores
with shuffled rows, one-sided entities and mismatched label counts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.params import (
    ModelParameters,
    TaskParameters,
    WorkerParameters,
    model_from_store,
    store_from_model,
)
from repro.core.distance_functions import PAPER_FUNCTION_SET
from repro.core.params import ArrayParameterStore


class TestWorkerParameters:
    def test_valid(self):
        params = WorkerParameters(0.9, np.array([0.2, 0.3, 0.5]))
        assert params.p_qualified == pytest.approx(0.9)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            WorkerParameters(1.5, np.array([0.5, 0.5]))

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            WorkerParameters(0.5, np.array([0.5, 0.2]))

    def test_copy_is_deep(self):
        params = WorkerParameters(0.9, np.array([0.5, 0.5]))
        clone = params.copy()
        clone.distance_weights[0] = 0.0
        assert params.distance_weights[0] == pytest.approx(0.5)


class TestTaskParameters:
    def test_valid_and_inferred_labels(self):
        params = TaskParameters(np.array([0.8, 0.3, 0.5]), np.array([0.5, 0.5]))
        assert params.num_labels == 3
        assert list(params.inferred_labels()) == [1, 0, 1]
        assert list(params.inferred_labels(threshold=0.9)) == [0, 0, 0]

    def test_invalid_label_probs(self):
        with pytest.raises(ValueError):
            TaskParameters(np.array([1.5]), np.array([1.0]))
        with pytest.raises(ValueError):
            TaskParameters(np.array([]), np.array([1.0]))

    def test_invalid_influence(self):
        with pytest.raises(ValueError):
            TaskParameters(np.array([0.5]), np.array([0.7, 0.7]))

    def test_copy_is_deep(self):
        params = TaskParameters(np.array([0.5, 0.5]), np.array([1.0]))
        clone = params.copy()
        clone.label_probs[0] = 0.0
        assert params.label_probs[0] == pytest.approx(0.5)


class TestModelParameters:
    def make_params(self):
        params = ModelParameters(function_set=PAPER_FUNCTION_SET, alpha=0.5)
        params.workers["w1"] = WorkerParameters(0.8, np.array([0.6, 0.3, 0.1]))
        params.tasks["t1"] = TaskParameters(
            np.array([0.9, 0.2]), np.array([0.7, 0.2, 0.1])
        )
        return params

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            ModelParameters(alpha=1.2)

    def test_known_worker_lookup(self):
        params = self.make_params()
        assert params.has_worker("w1")
        assert params.worker("w1").p_qualified == pytest.approx(0.8)

    def test_unknown_worker_gets_optimistic_prior(self):
        params = self.make_params()
        prior = params.worker("newcomer")
        assert not params.has_worker("newcomer")
        assert prior.p_qualified == 1.0
        assert prior.distance_weights[PAPER_FUNCTION_SET.flattest_index] == 1.0

    def test_unknown_task_needs_num_labels(self):
        params = self.make_params()
        with pytest.raises(KeyError):
            params.task("ghost")
        prior = params.task("ghost", num_labels=4)
        assert np.allclose(prior.label_probs, 0.5)
        assert prior.influence_weights[PAPER_FUNCTION_SET.flattest_index] == 1.0

    def test_worker_distance_quality_decreases_with_distance(self):
        params = self.make_params()
        near = params.worker_distance_quality("w1", 0.05)
        far = params.worker_distance_quality("w1", 0.9)
        assert near > far

    def test_answer_accuracy_combines_quality_and_random_guessing(self):
        params = self.make_params()
        accuracy = params.answer_accuracy("w1", "t1", 0.1)
        qualified = params.qualified_answer_accuracy("w1", "t1", 0.1)
        assert accuracy == pytest.approx(0.8 * qualified + 0.2 * 0.5)
        assert 0.5 <= accuracy <= 1.0

    def test_answer_accuracy_for_unknown_pair_is_high(self):
        params = self.make_params()
        # Footnote 3: new workers/tasks are assumed best-quality.
        assert params.answer_accuracy("new-w", "new-t", 0.2) > 0.9

    def test_copy_independent(self):
        params = self.make_params()
        clone = params.copy()
        clone.workers["w1"].distance_weights[0] = 0.0
        assert params.workers["w1"].distance_weights[0] == pytest.approx(0.6)

    def test_max_difference_zero_for_identical(self):
        params = self.make_params()
        assert params.max_difference(params.copy()) == pytest.approx(0.0)

    def test_max_difference_detects_changes(self):
        a = self.make_params()
        b = self.make_params()
        b.workers["w1"] = WorkerParameters(0.3, np.array([0.6, 0.3, 0.1]))
        assert a.max_difference(b) == pytest.approx(0.5)

    def test_max_difference_missing_entity_counts_fully(self):
        a = self.make_params()
        b = ModelParameters(function_set=PAPER_FUNCTION_SET)
        assert a.max_difference(b) == pytest.approx(1.0)


class TestArrayParameterStore:
    def make_params(self):
        params = ModelParameters(function_set=PAPER_FUNCTION_SET, alpha=0.5)
        params.workers["w1"] = WorkerParameters(0.8, np.array([0.6, 0.3, 0.1]))
        params.workers["w2"] = WorkerParameters(0.4, np.array([0.1, 0.1, 0.8]))
        params.tasks["t1"] = TaskParameters(
            np.array([0.9, 0.2]), np.array([0.7, 0.2, 0.1])
        )
        params.tasks["t2"] = TaskParameters(
            np.array([0.1, 0.5, 0.6]), np.array([0.2, 0.5, 0.3])
        )
        return params

    def test_round_trip(self):
        params = self.make_params()
        store = params.to_array_store(["w1", "w2"], ["t1", "t2"], [2, 3])
        restored = model_from_store(store)
        assert set(restored.workers) == {"w1", "w2"}
        assert set(restored.tasks) == {"t1", "t2"}
        for worker_id in ("w1", "w2"):
            assert restored.workers[worker_id].p_qualified == pytest.approx(
                params.workers[worker_id].p_qualified
            )
            np.testing.assert_array_equal(
                restored.workers[worker_id].distance_weights,
                params.workers[worker_id].distance_weights,
            )
        for task_id in ("t1", "t2"):
            np.testing.assert_array_equal(
                restored.tasks[task_id].label_probs, params.tasks[task_id].label_probs
            )
            np.testing.assert_array_equal(
                restored.tasks[task_id].influence_weights,
                params.tasks[task_id].influence_weights,
            )

    def test_ragged_label_layout(self):
        store = self.make_params().to_array_store(["w1"], ["t1", "t2"], [2, 3])
        assert store.num_label_slots == 5
        np.testing.assert_array_equal(store.label_offsets, [0, 2, 5])
        np.testing.assert_array_equal(
            store.label_probs[store.task_label_slice(1)], [0.1, 0.5, 0.6]
        )

    def test_missing_entities_get_footnote3_priors(self):
        params = self.make_params()
        store = params.to_array_store(["w1", "ghost"], ["t1", "phantom"], [2, 4])
        assert store.p_qualified[1] == pytest.approx(1.0)
        np.testing.assert_array_equal(
            store.distance_weights[1], PAPER_FUNCTION_SET.best_quality_weights()
        )
        np.testing.assert_array_equal(
            store.label_probs[store.task_label_slice(1)], np.full(4, 0.5)
        )

    def test_label_count_mismatch_rejected(self):
        params = self.make_params()
        with pytest.raises(ValueError):
            params.to_array_store(["w1"], ["t1"], [3])

    def test_max_difference_matches_model_parameters(self):
        a = self.make_params()
        b = self.make_params()
        b.workers["w2"] = WorkerParameters(0.9, np.array([0.1, 0.1, 0.8]))
        b.tasks["t1"] = TaskParameters(np.array([0.7, 0.2]), np.array([0.7, 0.2, 0.1]))
        store_a = a.to_array_store(["w1", "w2"], ["t1", "t2"], [2, 3])
        store_b = b.to_array_store(["w1", "w2"], ["t1", "t2"], [2, 3])
        assert store_a.max_difference(store_b) == pytest.approx(a.max_difference(b))

    def test_max_difference_reads_permuted_rows_by_id(self):
        params = self.make_params()
        store_a = params.to_array_store(["w1", "w2"], ["t1", "t2"], [2, 3])
        store_b = params.to_array_store(["w2", "w1"], ["t2", "t1"], [3, 2])
        assert store_a.max_difference(store_b) == 0.0
        assert store_b.max_difference(store_a) == 0.0

    def test_copy_is_independent(self):
        store = self.make_params().to_array_store(["w1"], ["t1"], [2])
        clone = store.copy()
        clone.p_qualified[0] = 0.0
        clone.label_probs[0] = 0.0
        assert store.p_qualified[0] == pytest.approx(0.8)
        assert store.label_probs[0] == pytest.approx(0.9)

    def test_concatenated_equals_appending_the_tail_row_by_row(self):
        params = self.make_params()
        head = params.to_array_store(["w2"], ["t2"], [3])
        tail = params.to_array_store(["w1"], ["t1"], [2]).freeze()
        joined = head.concatenated(tail)
        expected = head.copy()
        expected.add_worker("w1", tail.p_qualified[0], tail.distance_weights[0])
        expected.add_task("t1", 2, tail.label_probs[:2], tail.influence_weights[0])
        assert joined.worker_ids == expected.worker_ids == ("w2", "w1")
        assert joined.task_ids == expected.task_ids == ("t2", "t1")
        for name in (
            "label_offsets",
            "p_qualified",
            "distance_weights",
            "influence_weights",
            "label_probs",
        ):
            np.testing.assert_array_equal(
                getattr(joined, name), getattr(expected, name)
            )
            assert not np.shares_memory(getattr(joined, name), getattr(head, name))
        # A new, writable store: neither input is touched or aliased.
        joined.label_probs[:] = 0.0
        assert tail.frozen and not joined.frozen
        np.testing.assert_array_equal(head.label_probs, [0.1, 0.5, 0.6])
        assert joined.index_of_task("t1") == 1


class TestStoreAccessors:
    """The store's id accessors against the oracle's, priors included."""

    def make_store(self):
        return TestArrayParameterStore().make_params().to_array_store(
            ["w2", "w1"], ["t2", "t1"], [3, 2]
        )

    def test_known_entities_read_their_rows(self):
        store = self.make_store()
        oracle = model_from_store(store)
        for worker_id in ("w1", "w2"):
            view = store.worker(worker_id)
            assert view.p_qualified == oracle.worker(worker_id).p_qualified
            np.testing.assert_array_equal(
                view.distance_weights, oracle.worker(worker_id).distance_weights
            )
        for task_id in ("t1", "t2"):
            view = store.task(task_id, num_labels=7)
            assert view.num_labels == oracle.task(task_id).num_labels
            np.testing.assert_array_equal(view.label_probs, oracle.task(task_id).label_probs)
            np.testing.assert_array_equal(
                view.influence_weights, oracle.task(task_id).influence_weights
            )

    def test_views_share_the_rows(self):
        store = self.make_store()
        view = store.task("t1")
        store.label_probs[store.task_label_slice(store.index_of_task("t1"))] = 0.25
        np.testing.assert_array_equal(view.label_probs, [0.25, 0.25])

    def test_unknown_entities_get_the_oracle_priors(self):
        store = self.make_store()
        oracle = model_from_store(store)
        assert store.worker("ghost").p_qualified == oracle.worker("ghost").p_qualified
        np.testing.assert_array_equal(
            store.worker("ghost").distance_weights, oracle.worker("ghost").distance_weights
        )
        prior = store.task("phantom", num_labels=4)
        np.testing.assert_array_equal(
            prior.label_probs, oracle.task("phantom", num_labels=4).label_probs
        )
        np.testing.assert_array_equal(
            prior.influence_weights, oracle.task("phantom", num_labels=4).influence_weights
        )
        with pytest.raises(KeyError):
            store.task("phantom")

    def test_answer_accuracy_equals_the_oracle(self):
        store = self.make_store()
        oracle = model_from_store(store)
        for worker_id in ("w1", "w2", "new-w"):
            for task_id in ("t1", "t2", "new-t"):
                for distance in (0.0, 0.1, 0.55, 1.0):
                    assert store.answer_accuracy(
                        worker_id, task_id, distance
                    ) == oracle.answer_accuracy(worker_id, task_id, distance)

    def test_empty_store_reads_priors(self):
        store = ArrayParameterStore.empty()
        assert store.num_workers == store.num_tasks == store.num_label_slots == 0
        assert store.worker("w").p_qualified == 1.0
        np.testing.assert_array_equal(store.task("t", num_labels=2).label_probs, [0.5, 0.5])
        assert store.max_difference(ArrayParameterStore.empty()) == 0.0

    def test_regather_equals_the_oracle_gather(self):
        store = self.make_store()
        oracle = model_from_store(store)
        order = (["w1", "ghost", "w2"], ["phantom", "t1", "t2"], [4, 2, 3])
        _assert_stores_identical(store.regather(*order), store_from_model(oracle, *order))

    def test_regather_rejects_a_label_count_change(self):
        with pytest.raises(ValueError, match="estimated labels"):
            self.make_store().regather(["w1"], ["t1"], [3])


def _assert_stores_identical(a: ArrayParameterStore, b: ArrayParameterStore) -> None:
    assert a.worker_ids == b.worker_ids
    assert a.task_ids == b.task_ids
    assert a.function_set is b.function_set and a.alpha == b.alpha
    np.testing.assert_array_equal(a.label_offsets, b.label_offsets)
    for name in ("p_qualified", "distance_weights", "influence_weights", "label_probs"):
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype and left.shape == right.shape, name
        np.testing.assert_array_equal(left, right, err_msg=name)


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def estimate_pairs(draw):
    """Two random oracle estimates over overlapping universes.

    Ids are drawn from small pools so the two sides share some entities and
    each has some of its own; a shared task may hold another label count on
    the other side.  Values are valid probabilities and weight rows.
    """
    functions = len(PAPER_FUNCTION_SET)

    def weights():
        raw = np.asarray(draw(st.lists(unit, min_size=functions, max_size=functions)))
        raw = raw + 1e-3
        return raw / raw.sum()

    def estimate():
        params = ModelParameters(function_set=PAPER_FUNCTION_SET, alpha=0.5)
        for worker_id in draw(st.sets(st.sampled_from(["a", "b", "c", "d"]))):
            params.workers[worker_id] = WorkerParameters(draw(unit), weights())
        for task_id in draw(st.sets(st.sampled_from(["s", "t", "u"]))):
            count = draw(st.integers(min_value=1, max_value=3))
            labels = draw(st.lists(unit, min_size=count, max_size=count))
            params.tasks[task_id] = TaskParameters(np.asarray(labels), weights())
        return params

    return estimate(), estimate(), draw(st.randoms())


def _shuffled_store(params: ModelParameters, rng) -> ArrayParameterStore:
    workers = list(params.workers)
    tasks = list(params.tasks)
    rng.shuffle(workers)
    rng.shuffle(tasks)
    return store_from_model(
        params, workers, tasks, [params.tasks[t].num_labels for t in tasks]
    )


class TestStoreAgainstOracleProperties:
    @given(estimate_pairs())
    @settings(max_examples=150, deadline=None)
    def test_max_difference_equals_the_oracle(self, pair):
        a, b, rng = pair
        store_a, store_b = _shuffled_store(a, rng), _shuffled_store(b, rng)
        assert store_a.max_difference(store_b) == a.max_difference(b)
        assert store_b.max_difference(store_a) == b.max_difference(a)

    @given(estimate_pairs())
    @settings(max_examples=100, deadline=None)
    def test_permuted_rows_read_zero(self, pair):
        a, _, rng = pair
        assert _shuffled_store(a, rng).max_difference(_shuffled_store(a, rng)) == 0.0

    @given(estimate_pairs())
    @settings(max_examples=100, deadline=None)
    def test_accessors_and_regather_equal_the_oracle(self, pair):
        a, b, rng = pair
        store = _shuffled_store(a, rng)
        for worker_id in ["a", "b", "c", "d", "e"]:
            view, expected = store.worker(worker_id), a.worker(worker_id)
            assert view.p_qualified == expected.p_qualified
            np.testing.assert_array_equal(view.distance_weights, expected.distance_weights)
        for task_id in ["s", "t", "u", "v"]:
            view, expected = store.task(task_id, num_labels=2), a.task(task_id, num_labels=2)
            np.testing.assert_array_equal(view.label_probs, expected.label_probs)
            np.testing.assert_array_equal(view.influence_weights, expected.influence_weights)
        # Onto the other estimate's universe, where label counts agree.
        tasks = [
            t for t in b.tasks
            if t not in a.tasks or a.tasks[t].num_labels == b.tasks[t].num_labels
        ]
        order = (list(b.workers) + ["e"], tasks, [b.tasks[t].num_labels for t in tasks])
        _assert_stores_identical(store.regather(*order), store_from_model(a, *order))
