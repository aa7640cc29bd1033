"""Tests for repro.assign.spatial_first."""

import numpy as np
import pytest

from repro.assign.spatial_first import SpatialFirstAssigner
from repro.data.models import Answer, AnswerSet


@pytest.fixture()
def assigner(small_dataset, worker_pool, distance_model):
    return SpatialFirstAssigner(small_dataset.tasks, worker_pool.workers, distance_model)


class TestSpatialFirstAssigner:
    def test_assigns_closest_tasks(self, assigner, small_dataset, worker_pool, distance_model):
        worker = worker_pool.workers[0]
        assignment = assigner.assign([worker.worker_id], 3, AnswerSet())
        chosen = assignment[worker.worker_id]
        assert len(chosen) == 3

        distances = {
            task.task_id: distance_model.worker_task_distance(worker.locations, task.location)
            for task in small_dataset.tasks
        }
        chosen_max = max(distances[task_id] for task_id in chosen)
        not_chosen_min = min(
            distances[task_id] for task_id in distances if task_id not in chosen
        )
        assert chosen_max <= not_chosen_min + 1e-12

    def test_sorted_by_distance(self, assigner, worker_pool, distance_model, small_dataset):
        worker = worker_pool.workers[1]
        assignment = assigner.assign([worker.worker_id], 4, AnswerSet())
        chosen = assignment[worker.worker_id]
        distances = [
            distance_model.worker_task_distance(
                worker.locations, small_dataset.task_by_id(task_id).location
            )
            for task_id in chosen
        ]
        assert distances == sorted(distances)

    def test_skips_answered_tasks(self, assigner, small_dataset, worker_pool):
        worker_id = worker_pool.worker_ids[0]
        first = assigner.assign([worker_id], 1, AnswerSet())[worker_id][0]
        answers = AnswerSet(
            [Answer(worker_id, first, tuple([1] * small_dataset.task_by_id(first).num_labels))]
        )
        second = assigner.assign([worker_id], 1, answers)[worker_id][0]
        assert second != first

    def test_h_larger_than_tasks(self, assigner, worker_pool, small_dataset):
        worker_id = worker_pool.worker_ids[0]
        assignment = assigner.assign([worker_id], len(small_dataset) + 5, AnswerSet())
        assert len(assignment[worker_id]) == len(small_dataset)

    def test_multiple_workers_each_served(self, assigner, worker_pool):
        workers = worker_pool.worker_ids[:3]
        assignment = assigner.assign(workers, 2, AnswerSet())
        assert set(assignment) == set(workers)
        assert all(len(tasks) == 2 for tasks in assignment.values())

    def test_deterministic(self, assigner, worker_pool):
        workers = worker_pool.worker_ids[:3]
        assert assigner.assign(workers, 2, AnswerSet()) == assigner.assign(
            workers, 2, AnswerSet()
        )

    def test_validation(self, assigner, worker_pool):
        with pytest.raises(ValueError):
            assigner.assign(worker_pool.worker_ids[:1], -1, AnswerSet())
        with pytest.raises(KeyError):
            assigner.assign(["ghost"], 1, AnswerSet())


def scalar_picks(assigner, worker, h, answers, distance_model):
    """The ranking SF made before it read distance rows: every unanswered
    task by (scalar distance, task id), one ``worker_task_distance`` each."""
    done = answers.tasks_of_worker(worker.worker_id)
    tasks = assigner.tasks
    ranked = sorted(
        (task_id for task_id in tasks if task_id not in done),
        key=lambda task_id: (
            distance_model.worker_task_distance(worker.locations, tasks[task_id].location),
            task_id,
        ),
    )
    return ranked[:h]


class TestRanksFromDistanceRows:
    def test_rows_are_the_scalar_distances_within_an_ulp(
        self, assigner, worker_pool, distance_model
    ):
        """``np.hypot`` and ``math.hypot`` round differently in the last bit
        on some fixture pairs (the row SF ranks by is not the scalar path bit
        for bit), never by more: a ranking can only change between tasks
        whose distances lie within an ulp of each other."""
        tasks = assigner.tasks
        differing = 0
        for worker in worker_pool.workers:
            row = assigner.distance_row(worker.worker_id)
            scalar = np.array(
                [
                    distance_model.worker_task_distance(worker.locations, tasks[t].location)
                    for t in assigner.task_order
                ]
            )
            assert np.all(np.abs(row - scalar) <= np.spacing(scalar))
            differing += int(np.count_nonzero(row != scalar))
        assert differing < row.size * len(worker_pool.workers) // 4

    def test_picks_match_the_scalar_ranking(
        self, assigner, small_dataset, worker_pool, distance_model, collected_answers
    ):
        for answers in (AnswerSet(), collected_answers):
            for h in (1, 2, 3, len(small_dataset)):
                for worker in worker_pool.workers:
                    got = assigner.assign([worker.worker_id], h, answers)
                    assert got[worker.worker_id] == scalar_picks(
                        assigner, worker, h, answers, distance_model
                    )

    def test_ties_go_to_the_smaller_id_after_arrivals(
        self, assigner, small_dataset, worker_pool, distance_model, collected_answers
    ):
        """Tasks posted on the spot of a known task tie with it exactly; the
        smaller id wins although arrivals sit in the last columns."""
        from repro.data.models import POI, Task

        template = small_dataset.tasks[0]
        for task_id in ("0-before-every-id", "~after-every-id"):
            posted = Task(
                task_id=task_id,
                poi=POI(poi_id=task_id, name="posted", location=template.location),
                labels=template.labels,
                truth=template.truth,
            )
            assert assigner.add_task(posted)
        answers = collected_answers.copy()
        for h in (1, 2, 4):
            for worker in worker_pool.workers:
                got = assigner.assign([worker.worker_id], h, answers)
                assert got[worker.worker_id] == scalar_picks(
                    assigner, worker, h, answers, distance_model
                )
        # A worker standing on the spot ranks the three tied tasks by id.
        from repro.data.models import Worker

        local = Worker("local", (template.location,))
        assert assigner.add_worker(local)
        picked = assigner.assign(["local"], 3, AnswerSet())["local"]
        assert picked == sorted(["0-before-every-id", template.task_id, "~after-every-id"])
