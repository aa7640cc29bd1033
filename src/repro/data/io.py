"""Dataset and answer-set serialisation (JSON round-trip).

Serialisation keeps experiments reproducible across processes: a generated
dataset or a collected answer log can be written to disk, inspected, and fed
back into the inference models.  The format is plain JSON with one object per
dataset / answer set, versioned so that future format changes stay detectable.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.data.models import POI, Answer, AnswerSet, Dataset, Task, Worker
from repro.spatial.geometry import GeoPoint

FORMAT_VERSION = 1


def task_to_entry(task: Task) -> dict[str, Any]:
    """One task as a JSON-serialisable entry (shared by datasets/journals/checkpoints)."""
    return {
        "task_id": task.task_id,
        "labels": list(task.labels),
        "truth": list(task.truth),
        "poi": {
            "poi_id": task.poi.poi_id,
            "name": task.poi.name,
            "x": task.poi.location.x,
            "y": task.poi.location.y,
            "category": task.poi.category,
            "review_count": task.poi.review_count,
        },
    }


def task_from_entry(entry: dict[str, Any]) -> Task:
    """Rebuild one task from :func:`task_to_entry` output."""
    poi_entry = entry["poi"]
    poi = POI(
        poi_id=poi_entry["poi_id"],
        name=poi_entry["name"],
        location=GeoPoint(float(poi_entry["x"]), float(poi_entry["y"])),
        category=poi_entry.get("category", "generic"),
        review_count=int(poi_entry.get("review_count", 0)),
    )
    return Task(
        task_id=entry["task_id"],
        poi=poi,
        labels=tuple(entry["labels"]),
        truth=tuple(int(v) for v in entry["truth"]),
    )


def worker_to_entry(worker: Worker) -> dict[str, Any]:
    """One worker as a JSON-serialisable entry."""
    return {
        "worker_id": worker.worker_id,
        "locations": [[loc.x, loc.y] for loc in worker.locations],
    }


def worker_from_entry(entry: dict[str, Any]) -> Worker:
    """Rebuild one worker from :func:`worker_to_entry` output."""
    return Worker(
        worker_id=entry["worker_id"],
        locations=tuple(GeoPoint(float(x), float(y)) for x, y in entry["locations"]),
    )


def dataset_to_dict(dataset: Dataset) -> dict[str, Any]:
    """Convert ``dataset`` into a JSON-serialisable dictionary."""
    return {
        "format_version": FORMAT_VERSION,
        "name": dataset.name,
        "metric": dataset.metric,
        "max_distance": dataset.max_distance,
        "description": dataset.description,
        "tasks": [task_to_entry(task) for task in dataset.tasks],
    }


def dataset_from_dict(payload: dict[str, Any]) -> Dataset:
    """Rebuild a :class:`~repro.data.models.Dataset` from :func:`dataset_to_dict` output."""
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported dataset format version: {version!r}")
    return Dataset(
        name=payload["name"],
        tasks=[task_from_entry(entry) for entry in payload["tasks"]],
        metric=payload.get("metric", "euclidean"),
        max_distance=payload.get("max_distance"),
        description=payload.get("description", ""),
    )


def save_dataset(dataset: Dataset, path: str | Path) -> Path:
    """Write ``dataset`` as JSON to ``path`` and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(dataset_to_dict(dataset), handle, indent=2, ensure_ascii=False)
    return path


def load_dataset(path: str | Path) -> Dataset:
    """Load a dataset previously written by :func:`save_dataset`."""
    with Path(path).open("r", encoding="utf-8") as handle:
        return dataset_from_dict(json.load(handle))


def answers_to_dict(answers: AnswerSet) -> dict[str, Any]:
    """Convert an answer set into a JSON-serialisable dictionary."""
    return {
        "format_version": FORMAT_VERSION,
        "answers": [
            {
                "worker_id": answer.worker_id,
                "task_id": answer.task_id,
                "responses": list(answer.responses),
            }
            for answer in answers
        ],
    }


def answers_from_dict(payload: dict[str, Any]) -> AnswerSet:
    """Rebuild an :class:`~repro.data.models.AnswerSet` from :func:`answers_to_dict`."""
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported answer format version: {version!r}")
    return AnswerSet(
        Answer(
            worker_id=entry["worker_id"],
            task_id=entry["task_id"],
            responses=tuple(int(v) for v in entry["responses"]),
        )
        for entry in payload["answers"]
    )


def save_answers(answers: AnswerSet, path: str | Path) -> Path:
    """Write an answer set as JSON to ``path`` and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(answers_to_dict(answers), handle, indent=2)
    return path


def load_answers(path: str | Path) -> AnswerSet:
    """Load an answer set previously written by :func:`save_answers`."""
    with Path(path).open("r", encoding="utf-8") as handle:
        return answers_from_dict(json.load(handle))

