"""Tests for repro.data.models."""

import pytest

from repro.data.models import POI, Answer, AnswerSet, Dataset, Task, Worker
from repro.spatial.geometry import GeoPoint


def make_poi(poi_id="p1", reviews=100):
    return POI(poi_id=poi_id, name="Test POI", location=GeoPoint(1.0, 2.0), review_count=reviews)


def make_task(task_id="t1", labels=("a", "b", "c"), truth=(1, 0, 1)):
    return Task(task_id=task_id, poi=make_poi(poi_id=f"poi-{task_id}"), labels=labels, truth=truth)


class TestPOI:
    def test_valid(self):
        poi = make_poi()
        assert poi.review_count == 100

    def test_empty_id_raises(self):
        with pytest.raises(ValueError):
            POI(poi_id="", name="x", location=GeoPoint(0, 0))

    def test_negative_reviews_raise(self):
        with pytest.raises(ValueError):
            make_poi(reviews=-1)


class TestTask:
    def test_properties(self):
        task = make_task()
        assert task.num_labels == 3
        assert task.location == GeoPoint(1.0, 2.0)
        assert task.correct_labels == ("a", "c")

    def test_mismatched_truth_raises(self):
        with pytest.raises(ValueError):
            make_task(labels=("a", "b"), truth=(1,))

    def test_invalid_truth_value_raises(self):
        with pytest.raises(ValueError):
            make_task(truth=(1, 2, 0))

    def test_empty_labels_raise(self):
        with pytest.raises(ValueError):
            make_task(labels=(), truth=())

    def test_duplicate_labels_raise(self):
        with pytest.raises(ValueError):
            make_task(labels=("a", "a", "b"), truth=(1, 0, 1))

    def test_empty_id_raises(self):
        with pytest.raises(ValueError):
            make_task(task_id="")


class TestWorker:
    def test_primary_location(self):
        worker = Worker("w1", (GeoPoint(0, 0), GeoPoint(1, 1)))
        assert worker.primary_location == GeoPoint(0, 0)

    def test_no_locations_raise(self):
        with pytest.raises(ValueError):
            Worker("w1", ())

    def test_empty_id_raises(self):
        with pytest.raises(ValueError):
            Worker("", (GeoPoint(0, 0),))


class TestAnswer:
    def test_accuracy_against(self):
        answer = Answer("w1", "t1", (1, 0, 1, 0))
        assert answer.accuracy_against((1, 0, 0, 0)) == pytest.approx(0.75)
        assert answer.accuracy_against((1, 0, 1, 0)) == 1.0

    def test_accuracy_mismatched_length_raises(self):
        with pytest.raises(ValueError):
            Answer("w1", "t1", (1, 0)).accuracy_against((1, 0, 1))

    def test_invalid_responses_raise(self):
        with pytest.raises(ValueError):
            Answer("w1", "t1", (1, 2))

    def test_empty_responses_raise(self):
        with pytest.raises(ValueError):
            Answer("w1", "t1", ())


class TestAnswerSet:
    def test_add_and_indices(self):
        answers = AnswerSet()
        answers.add(Answer("w1", "t1", (1, 0)))
        answers.add(Answer("w2", "t1", (0, 0)))
        answers.add(Answer("w1", "t2", (1, 1)))
        assert len(answers) == 3
        assert answers.workers_of_task("t1") == {"w1", "w2"}
        assert answers.tasks_of_worker("w1") == {"t1", "t2"}
        assert answers.answer_count_of_task("t1") == 2
        assert ("w1", "t1") in answers

    def test_replacement_of_duplicate(self):
        answers = AnswerSet()
        answers.add(Answer("w1", "t1", (1, 0)))
        answers.add(Answer("w1", "t1", (0, 1)))
        assert len(answers) == 1
        assert answers.get("w1", "t1").responses == (0, 1)

    def test_answers_of_task_sorted_by_worker(self):
        answers = AnswerSet(
            [Answer("w2", "t1", (1,)), Answer("w1", "t1", (0,))]
        )
        assert [a.worker_id for a in answers.answers_of_task("t1")] == ["w1", "w2"]

    def test_answers_of_worker_sorted_by_task(self):
        answers = AnswerSet(
            [Answer("w1", "t2", (1,)), Answer("w1", "t1", (0,))]
        )
        assert [a.task_id for a in answers.answers_of_worker("w1")] == ["t1", "t2"]

    def test_missing_lookups(self):
        answers = AnswerSet()
        assert answers.get("w", "t") is None
        assert answers.workers_of_task("t") == frozenset()
        assert answers.tasks_of_worker("w") == frozenset()

    def test_copy_is_independent(self):
        answers = AnswerSet([Answer("w1", "t1", (1,))])
        clone = answers.copy()
        clone.add(Answer("w2", "t1", (0,)))
        assert len(answers) == 1
        assert len(clone) == 2

    def test_total_label_answers(self):
        answers = AnswerSet([Answer("w1", "t1", (1, 0, 1)), Answer("w2", "t2", (0, 1))])
        assert answers.total_label_answers == 5

    def test_worker_and_task_ids(self):
        answers = AnswerSet([Answer("w2", "t9", (1,)), Answer("w1", "t3", (0,))])
        assert answers.worker_ids() == ["w1", "w2"]
        assert answers.task_ids() == ["t3", "t9"]

    def test_pair_tasks_since_lists_new_pairs_in_first_answer_order(self):
        answers = AnswerSet([Answer("w2", "t9", (1,)), Answer("w1", "t3", (0,))])
        assert answers.pair_tasks_since(0) == ["t9", "t3"]
        position = len(answers)
        answers.add(Answer("w1", "t9", (0,)))
        answers.add(Answer("w2", "t9", (0,)))  # a re-answer adds no pair
        answers.add(Answer("w3", "t3", (1,)))
        assert answers.get("w2", "t9").responses == (0,)
        assert answers.pair_tasks_since(position) == ["t9", "t3"]
        assert len(answers) == position + 2
        assert answers.pair_tasks_since(len(answers)) == []
        # Counting each listed task once reproduces |W(t)|.
        assert answers.pair_tasks_since(0).count("t9") == answers.answer_count_of_task("t9")
        assert answers.copy().pair_tasks_since(0) == answers.pair_tasks_since(0)

    def test_answer_count_of_worker_counts_pairs_not_answers(self):
        answers = AnswerSet([Answer("w1", "t2", (1,)), Answer("w2", "t2", (0,))])
        answers.add(Answer("w1", "t1", (0,)))
        answers.add(Answer("w1", "t2", (0,)))  # a re-answer adds no pair
        assert answers.answer_count_of_worker("w1") == 2
        assert answers.answer_count_of_worker("w2") == 1
        assert answers.answer_count_of_worker("absent") == 0
        for worker_id in ("w1", "w2", "absent"):
            assert answers.answer_count_of_worker(worker_id) == len(
                answers.tasks_of_worker(worker_id)
            )

    def test_worker_tasks_since_catches_up_one_worker(self):
        answers = AnswerSet([Answer("w1", "t9", (1,)), Answer("w2", "t9", (0,))])
        answers.add(Answer("w1", "t3", (0,)))
        assert answers.worker_tasks_since("w1", 0) == ["t9", "t3"]  # first-answer order
        assert answers.worker_tasks_since("w2", 0) == ["t9"]
        assert answers.worker_tasks_since("absent", 0) == []
        seen = answers.answer_count_of_worker("w1")
        answers.add(Answer("w2", "t1", (1,)))  # another worker's pair
        answers.add(Answer("w1", "t9", (0,)))  # a re-answer
        assert answers.worker_tasks_since("w1", seen) == []
        answers.add(Answer("w1", "t5", (1,)))
        answers.add(Answer("w1", "t3", (1,)))  # a re-answer
        answers.add(Answer("w1", "t1", (0,)))
        assert answers.worker_tasks_since("w1", seen) == ["t5", "t1"]
        assert answers.worker_tasks_since("w1", answers.answer_count_of_worker("w1")) == []
        # Catching up from any position reproduces T(w), each task once.
        for position in range(answers.answer_count_of_worker("w1") + 1):
            caught_up = answers.worker_tasks_since("w1", 0)[:position]
            caught_up += answers.worker_tasks_since("w1", position)
            assert caught_up == ["t9", "t3", "t5", "t1"]
        assert set(caught_up) == answers.tasks_of_worker("w1")
        # The per-worker lists interleave to the log's pair order.
        assert sorted(answers.pair_tasks_since(0)) == sorted(
            task_id
            for worker_id in answers.worker_ids()
            for task_id in answers.worker_tasks_since(worker_id, 0)
        )
        assert answers.copy().worker_tasks_since("w1", 0) == caught_up


class TestDataset:
    def test_counts(self):
        tasks = [make_task("t1"), make_task("t2", truth=(0, 0, 1))]
        dataset = Dataset(name="d", tasks=tasks)
        assert len(dataset) == 2
        assert dataset.total_labels == 6
        assert dataset.total_correct_labels == 3
        assert dataset.total_incorrect_labels == 3

    def test_task_lookup(self):
        dataset = Dataset(name="d", tasks=[make_task("t1"), make_task("t2")])
        assert dataset.task_by_id("t2").task_id == "t2"
        with pytest.raises(KeyError):
            dataset.task_by_id("missing")
        assert set(dataset.task_index) == {"t1", "t2"}

    def test_duplicate_task_ids_raise(self):
        with pytest.raises(ValueError):
            Dataset(name="d", tasks=[make_task("t1"), make_task("t1")])

    def test_empty_dataset_raises(self):
        with pytest.raises(ValueError):
            Dataset(name="d", tasks=[])

    def test_poi_locations(self):
        dataset = Dataset(name="d", tasks=[make_task("t1")])
        assert dataset.poi_locations == [GeoPoint(1.0, 2.0)]
