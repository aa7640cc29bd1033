"""Tests for repro.data.io round-trips."""

import json

import pytest

from repro.data.generators import DatasetSpec, generate_dataset
from repro.data.io import (
    answers_from_dict,
    answers_to_dict,
    dataset_from_dict,
    dataset_to_dict,
    load_answers,
    load_dataset,
    save_answers,
    save_dataset,
    worker_from_entry,
    worker_to_entry,
)
from repro.data.models import Answer, AnswerSet, Worker
from repro.spatial.geometry import GeoPoint


@pytest.fixture()
def dataset():
    return generate_dataset(DatasetSpec(name="io", num_tasks=6, labels_per_task=5), seed=3)


class TestDatasetRoundTrip:
    def test_dict_round_trip(self, dataset):
        rebuilt = dataset_from_dict(dataset_to_dict(dataset))
        assert rebuilt.name == dataset.name
        assert len(rebuilt) == len(dataset)
        assert [t.labels for t in rebuilt.tasks] == [t.labels for t in dataset.tasks]
        assert [t.truth for t in rebuilt.tasks] == [t.truth for t in dataset.tasks]
        assert rebuilt.max_distance == pytest.approx(dataset.max_distance)

    def test_file_round_trip(self, dataset, tmp_path):
        path = save_dataset(dataset, tmp_path / "nested" / "dataset.json")
        assert path.exists()
        rebuilt = load_dataset(path)
        assert [t.task_id for t in rebuilt.tasks] == [t.task_id for t in dataset.tasks]

    def test_unknown_version_rejected(self, dataset):
        payload = dataset_to_dict(dataset)
        payload["format_version"] = 99
        with pytest.raises(ValueError):
            dataset_from_dict(payload)

    def test_serialised_json_is_valid(self, dataset, tmp_path):
        path = save_dataset(dataset, tmp_path / "d.json")
        with path.open() as handle:
            payload = json.load(handle)
        assert payload["name"] == "io"


class TestAnswerRoundTrip:
    def test_dict_round_trip(self):
        answers = AnswerSet(
            [Answer("w1", "t1", (1, 0, 1)), Answer("w2", "t2", (0, 0, 1))]
        )
        rebuilt = answers_from_dict(answers_to_dict(answers))
        assert len(rebuilt) == 2
        assert rebuilt.get("w1", "t1").responses == (1, 0, 1)

    def test_file_round_trip(self, tmp_path):
        answers = AnswerSet([Answer("w1", "t1", (1, 1))])
        path = save_answers(answers, tmp_path / "answers.json")
        rebuilt = load_answers(path)
        assert rebuilt.get("w1", "t1").responses == (1, 1)

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError):
            answers_from_dict({"format_version": 0, "answers": []})


class TestWorkerRoundTrip:
    def test_round_trip(self):
        workers = [
            Worker("w1", (GeoPoint(1.0, 2.0),)),
            Worker("w2", (GeoPoint(3.0, 4.0), GeoPoint(5.0, 6.0))),
        ]
        entries = json.loads(json.dumps([worker_to_entry(w) for w in workers]))
        assert [worker_from_entry(entry) for entry in entries] == workers
