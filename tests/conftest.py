"""Shared fixtures: a small deterministic dataset, crowd and answer corpus.

All fixtures are intentionally tiny (a dozen tasks, a handful of workers) so
that the full-suite wall-clock stays low; the full-scale Beijing/China
configurations are exercised by the benchmark harness instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from oracles.em import store_of
from oracles.params import model_from_store
from repro.core.inference import LocationAwareInference
from repro.crowd.answer_model import AnswerSimulator
from repro.crowd.arrival import UniformRandomArrival
from repro.crowd.budget import Budget
from repro.crowd.platform import CrowdPlatform
from repro.crowd.worker_pool import WorkerPool, WorkerPoolSpec
from repro.data.generators import DatasetSpec, generate_dataset
from repro.data.models import POI, Dataset, Task, Worker
from repro.serving.snapshots import SnapshotStore
from repro.spatial.bbox import BEIJING_BBOX, BoundingBox
from repro.spatial.distance import DistanceModel


@pytest.fixture(scope="session")
def small_dataset() -> Dataset:
    """Twelve Beijing-extent tasks with four candidate labels each."""
    spec = DatasetSpec(
        name="TestSet",
        num_tasks=12,
        labels_per_task=4,
        bbox=BEIJING_BBOX,
        metric="euclidean",
        num_clusters=3,
        description="Small dataset for unit tests.",
    )
    return generate_dataset(spec, seed=1234)


@pytest.fixture(scope="session")
def distance_model(small_dataset: Dataset) -> DistanceModel:
    return DistanceModel(max_distance=small_dataset.max_distance, metric="euclidean")


@pytest.fixture(scope="session")
def worker_pool(small_dataset: Dataset) -> WorkerPool:
    bounds = BoundingBox.from_points(small_dataset.poi_locations).expand(0.05)
    spec = WorkerPoolSpec(num_workers=8, locations_per_worker=(1, 2))
    return WorkerPool.generate(bounds, spec=spec, seed=99)


@pytest.fixture()
def platform(small_dataset: Dataset, worker_pool: WorkerPool, distance_model: DistanceModel) -> CrowdPlatform:
    """A fresh platform per test (budget and answer log are mutable)."""
    return CrowdPlatform(
        dataset=small_dataset,
        worker_pool=worker_pool,
        budget=Budget(total=200),
        distance_model=distance_model,
        answer_simulator=AnswerSimulator(distance_model, noise=0.05),
        arrival_process=UniformRandomArrival(worker_pool, batch_size=3, seed=7),
        seed=7,
    )


@pytest.fixture()
def collected_answers(platform: CrowdPlatform):
    """A Deployment-1 style corpus: every task answered by three workers."""
    return platform.collect_batch_answers(answers_per_task=3, seed=21)


@dataclass
class ParameterFeed:
    """Published estimates to feed to assigners, one by store, one by model.

    ``steps`` is a list of ``(arrivals, snapshot)``: the tasks and workers
    the assigners admit first, then the snapshot they are fed (``None``
    keeps the last one).
    """

    steps: list
    worker_ids: list

    def fed_pairs(self, make_assigner):
        """Yield ``(by_store, by_model, worker_ids)`` after every step.

        ``by_store`` is one assigner that lives through every step, fed each
        snapshot's frozen ``store``; ``by_model`` is built afresh at each step
        over the same universe and fed the oracle's id-keyed form of that
        store (:mod:`oracles.params`) flattened back into a store of its own,
        so it shares no state with the steps before.  ``worker_ids`` lists
        every admitted worker.
        """
        by_store = make_assigner()
        admitted, worker_ids, snapshot = [], list(self.worker_ids), None
        for arrivals, fed in self.steps:
            for entity in arrivals:
                admitted.append(entity)
                if isinstance(entity, Worker):
                    assert by_store.add_worker(entity)
                    worker_ids.append(entity.worker_id)
                else:
                    assert by_store.add_task(entity)
            if fed is not None:
                snapshot = fed
                by_store.update_parameters(snapshot.store)
            by_model = make_assigner()
            for entity in admitted:
                if isinstance(entity, Worker):
                    by_model.add_worker(entity)
                else:
                    by_model.add_task(entity)
            by_model.update_parameters(store_of(model_from_store(snapshot.store)))
            yield by_store, by_model, worker_ids


@pytest.fixture(params=["shuffled", "missing", "grown", "equal_ids"])
def parameter_feed(
    request, small_dataset, worker_pool, distance_model, collected_answers
) -> ParameterFeed:
    """One fitted estimate, published as snapshots of four shapes.

    * ``shuffled``: worker and task rows in an order unlike any assigner's;
    * ``missing``: every third worker and task absent (they get the priors);
    * ``grown``: the assigners admit a task and a worker that the snapshot
      lacks; then a snapshot arrives that holds them and one more task and
      worker, which the assigners admit next, one step each;
    * ``equal_ids``: two versions whose id tuples are equal but not
      identical, with different values.
    """
    model = LocationAwareInference(
        small_dataset.tasks, worker_pool.workers, distance_model
    )
    model.fit(collected_answers)
    rng = np.random.default_rng(5)
    worker_ids = list(worker_pool.worker_ids)
    tasks = list(small_dataset.tasks)
    if request.param == "shuffled":
        rng.shuffle(worker_ids)
        rng.shuffle(tasks)
    elif request.param == "missing":
        worker_ids = [w for i, w in enumerate(worker_ids) if i % 3]
        tasks = [t for i, t in enumerate(tasks) if i % 3]
    store = model.parameters.regather(
        worker_ids, [t.task_id for t in tasks], [t.num_labels for t in tasks]
    )
    snapshots = SnapshotStore()
    steps = [((), snapshots.publish(store))]
    if request.param == "grown":
        arrivals = []
        uniform = store.function_set.uniform_weights()
        for k, template in enumerate(small_dataset.tasks[:2]):
            location = template.location
            task = Task(
                task_id=f"late-task-{k}",
                poi=POI(poi_id=f"late-poi-{k}", name="late", location=location),
                labels=("a", "b"),
                truth=(1, 0),
            )
            worker = Worker(f"late-worker-{k}", (location,))
            store.add_task(task.task_id, 2, np.array([0.9, 0.2]), uniform)
            store.add_worker(worker.worker_id, 0.3, uniform)
            arrivals.append((task, worker))
        steps.append((arrivals[0], None))
        steps.append(((), snapshots.publish(store)))
        steps.extend(((entity,), None) for entity in arrivals[1])
    elif request.param == "equal_ids":
        store.p_qualified[::2] = 1.0 - store.p_qualified[::2]
        store.label_probs[::3] = 0.5
        steps.append(((), snapshots.publish(store)))
        first, second = steps[0][1].store, steps[1][1].store
        assert first.task_ids == second.task_ids and first.task_ids is not second.task_ids
        assert first.worker_ids == second.worker_ids
        assert first.worker_ids is not second.worker_ids
    return ParameterFeed(steps=steps, worker_ids=list(worker_pool.worker_ids))
