"""Experiment drivers used by the benchmark harness and the examples.

Two kinds of experiments reproduce the paper's evaluation:

* **Inference comparison** (Figure 9 / 10 / 12): collect a fixed answer corpus
  (five answers per task, as in Deployment 1), subsample it at several budget
  levels, run MV / Dawid–Skene EM / IM on each subsample and report accuracy
  and runtime.
* **Assignment comparison** (Figure 11 / Table II): run the full online
  framework once per assignment strategy over the same simulated crowd and
  report accuracy at the budget checkpoints plus the Table II statistics.

The helpers here build the shared scaffolding (worker pools, platforms,
distance models) so the benchmarks and examples stay short.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.assign.accopt import AccOptAssigner
from repro.assign.random_assigner import RandomAssigner
from repro.assign.spatial_first import SpatialFirstAssigner
from repro.baselines.base import LabelInferenceModel
from repro.baselines.dawid_skene import DawidSkeneInference
from repro.baselines.majority_vote import MajorityVoteInference
from repro.core.assignment import TaskAssigner
from repro.core.inference import InferenceConfig, LocationAwareInference
from repro.crowd.answer_model import AnswerSimulator
from repro.crowd.arrival import UniformRandomArrival
from repro.crowd.budget import Budget
from repro.crowd.platform import CrowdPlatform
from repro.crowd.worker_pool import WorkerPool, WorkerPoolSpec
from repro.data.models import Answer, AnswerSet, Dataset
from repro.framework.config import FrameworkConfig
from repro.framework.framework import FrameworkResult, PoiLabellingFramework
from repro.framework.metrics import (
    assignment_distribution,
    average_label_accuracy,
    labelling_accuracy,
    worker_average_accuracy,
)
from repro.spatial.bbox import BoundingBox
from repro.spatial.distance import DistanceModel
from repro.utils.rng import SeedLike, default_rng, derive_seed


# --------------------------------------------------------------------- builders
def build_distance_model(dataset: Dataset) -> DistanceModel:
    """Distance model normalised by the dataset's recorded POI diameter."""
    metric = "haversine" if dataset.metric == "haversine" else "euclidean"
    if dataset.max_distance:
        return DistanceModel(max_distance=dataset.max_distance, metric=metric)
    return DistanceModel.from_pois(dataset.poi_locations, metric=metric)


def build_worker_pool(
    dataset: Dataset,
    spec: WorkerPoolSpec | None = None,
    seed: SeedLike = None,
) -> WorkerPool:
    """Worker pool whose locations cover the dataset's geographic extent."""
    bounds = BoundingBox.from_points(dataset.poi_locations).expand(
        0.05 * max(
            BoundingBox.from_points(dataset.poi_locations).width,
            BoundingBox.from_points(dataset.poi_locations).height,
            1e-6,
        )
    )
    return WorkerPool.generate(bounds, spec=spec, seed=seed)


def build_platform(
    dataset: Dataset,
    budget: int,
    worker_pool: WorkerPool | None = None,
    workers_per_round: int = 5,
    answer_noise: float = 0.05,
    seed: SeedLike = None,
) -> CrowdPlatform:
    """Assemble a ready-to-run simulated platform for ``dataset``."""
    rng = default_rng(seed)
    pool = worker_pool or build_worker_pool(dataset, seed=derive_seed(_as_int(seed), 1) or rng)
    distance_model = build_distance_model(dataset)
    simulator = AnswerSimulator(distance_model, noise=answer_noise)
    arrival = UniformRandomArrival(
        pool,
        batch_size=min(workers_per_round, len(pool)),
        seed=derive_seed(_as_int(seed), 2) or rng,
    )
    return CrowdPlatform(
        dataset=dataset,
        worker_pool=pool,
        budget=Budget(total=budget),
        distance_model=distance_model,
        answer_simulator=simulator,
        arrival_process=arrival,
        seed=_as_int(seed),
    )


def _as_int(seed: SeedLike) -> int | None:
    return seed if isinstance(seed, int) else None


# --------------------------------------------------------- inference comparison
@dataclass
class InferenceComparisonResult:
    """Accuracy and runtime of each inference method at each budget level."""

    budgets: list[int]
    accuracy: dict[str, list[float]] = field(default_factory=dict)
    runtime_ms: dict[str, list[float]] = field(default_factory=dict)

    def accuracy_of(self, method: str, budget: int) -> float:
        return self.accuracy[method][self.budgets.index(budget)]


def subsample_answers(
    answers: AnswerSet, count: int, seed: SeedLike = None
) -> AnswerSet:
    """Uniformly subsample ``count`` (worker, task) answers from ``answers``.

    Reproduces "budget = N assignments" evaluations from a corpus collected at
    a larger budget.  ``count`` larger than the corpus returns a copy.
    """
    all_answers = list(answers)
    if count >= len(all_answers):
        return answers.copy()
    rng = default_rng(seed)
    chosen = rng.choice(len(all_answers), size=count, replace=False)
    return AnswerSet(all_answers[i] for i in sorted(chosen))


def default_inference_factories(
    dataset: Dataset,
    worker_pool: WorkerPool,
    distance_model: DistanceModel,
    inference_config: InferenceConfig | None = None,
) -> dict[str, Callable[[], LabelInferenceModel]]:
    """The paper's three inference methods, keyed by their evaluation names."""
    tasks = dataset.tasks
    workers = worker_pool.workers
    return {
        "MV": lambda: MajorityVoteInference(tasks),
        "EM": lambda: DawidSkeneInference(tasks),
        "IM": lambda: LocationAwareInference(
            tasks, workers, distance_model, config=inference_config
        ),
    }


# ------------------------------------------------------- multiprocessing sweeps
# Sweep context inherited by fork()ed pool workers.  The factories passed to
# the compare functions are typically closures/lambdas, which cannot cross a
# pickling process boundary — but a fork child inherits the parent's memory,
# so publishing the context in a module global right before creating the pool
# makes the (unpicklable) factories available to the module-level worker
# functions, while only small picklable tuples travel through the pool queues.
_SWEEP_CONTEXT: dict | None = None


def _parallel_map(worker: Callable, items: list, jobs: int, context: dict) -> list:
    """Map ``worker`` over ``items`` on a fork process pool, preserving order.

    Falls back to a serial map when ``jobs == 1``, when there is nothing to
    fan out, or when the platform cannot fork (the context trick above relies
    on fork inheritance; spawn would need every factory to be picklable).
    """
    global _SWEEP_CONTEXT
    use_pool = (
        jobs > 1
        and len(items) > 1
        and "fork" in multiprocessing.get_all_start_methods()
    )
    if not use_pool:
        _SWEEP_CONTEXT = context
        try:
            return [worker(item) for item in items]
        finally:
            _SWEEP_CONTEXT = None
    _SWEEP_CONTEXT = context
    try:
        with multiprocessing.get_context("fork").Pool(
            processes=min(jobs, len(items))
        ) as pool:
            return pool.map(worker, items)
    finally:
        _SWEEP_CONTEXT = None


def _inference_budget_worker(item: tuple[int, int]) -> dict[str, tuple[float, float]]:
    """Fit every method on one budget subsample (one sweep unit)."""
    index, budget = item
    context = _SWEEP_CONTEXT
    subsample = subsample_answers(
        context["answers"], budget, seed=derive_seed(context["seed"], index)
    )
    row: dict[str, tuple[float, float]] = {}
    for name, factory in context["factories"].items():
        model = factory()
        started = time.perf_counter()
        model.fit(subsample)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        predictions = model.predict_all()
        accuracy = labelling_accuracy(predictions, context["dataset"].tasks)
        row[name] = (accuracy, elapsed_ms)
    return row


def compare_inference_models(
    dataset: Dataset,
    answers: AnswerSet,
    budgets: Sequence[int],
    factories: dict[str, Callable[[], LabelInferenceModel]],
    seed: SeedLike = None,
    jobs: int = 1,
) -> InferenceComparisonResult:
    """Figure 9 / 12: accuracy and runtime of each method at each budget level.

    ``jobs > 1`` fans the independent budget levels out over a process pool
    (each level subsamples, fits and scores in its own process); ``jobs=1``
    keeps the original serial sweep.  Results are identical either way — every
    level derives its own seed.
    """
    budgets = list(budgets)
    result = InferenceComparisonResult(budgets=budgets)
    for name in factories:
        result.accuracy[name] = []
        result.runtime_ms[name] = []
    context = {
        "dataset": dataset,
        "answers": answers,
        "factories": factories,
        "seed": _as_int(seed),
    }
    rows = _parallel_map(
        _inference_budget_worker, list(enumerate(budgets)), jobs, context
    )
    for row in rows:
        for name, (accuracy, elapsed_ms) in row.items():
            result.accuracy[name].append(accuracy)
            result.runtime_ms[name].append(elapsed_ms)
    return result


# --------------------------------------------------------- assignment comparison
@dataclass
class AssignmentStats:
    """Table II statistics for one assignment strategy."""

    worker_quality: float
    assignment_distribution: tuple[float, float, float]
    average_acc: float


@dataclass
class AssignmentComparisonResult:
    """Accuracy series (Figure 11) and Table II statistics per strategy."""

    checkpoints: list[int]
    accuracy: dict[str, list[float]] = field(default_factory=dict)
    stats: dict[str, AssignmentStats] = field(default_factory=dict)
    framework_results: dict[str, FrameworkResult] = field(default_factory=dict)


def default_assigner_factories(
    dataset: Dataset,
    worker_pool: WorkerPool,
    distance_model: DistanceModel,
    seed: SeedLike = None,
) -> dict[str, Callable[[], TaskAssigner]]:
    """The paper's three assignment strategies, keyed by their evaluation names."""
    tasks = dataset.tasks
    workers = worker_pool.workers
    return {
        "Random": lambda: RandomAssigner(tasks, workers, seed=_as_int(seed)),
        "SF": lambda: SpatialFirstAssigner(tasks, workers, distance_model),
        "AccOpt": lambda: AccOptAssigner(tasks, workers, distance_model),
    }


def _assigner_campaign_worker(
    name: str,
) -> tuple[str, FrameworkResult, AssignmentStats]:
    """Run one strategy's full campaign (one sweep unit)."""
    context = _SWEEP_CONTEXT
    dataset = context["dataset"]
    config = context["config"]
    pool = context["pool"]
    platform = build_platform(
        dataset,
        budget=config.budget,
        worker_pool=pool,
        workers_per_round=config.workers_per_round,
        seed=context["seed"],
    )
    inference = LocationAwareInference(
        dataset.tasks, pool.workers, platform.distance_model, config=config.inference
    )
    assigner = context["factories"][name]()
    framework = PoiLabellingFramework(platform, inference, assigner, config=config)
    run_result = framework.run()

    answers = platform.answers
    quality = worker_average_accuracy(answers, dataset)
    probabilities = {
        task.task_id: inference.label_probabilities(task.task_id)
        for task in dataset.tasks
    }
    stats = AssignmentStats(
        worker_quality=(sum(quality.values()) / len(quality)) if quality else 0.0,
        assignment_distribution=assignment_distribution(answers, dataset),
        average_acc=average_label_accuracy(probabilities, dataset.tasks),
    )
    return name, run_result, stats


def compare_assigners(
    dataset: Dataset,
    config: FrameworkConfig,
    assigner_factories: dict[str, Callable[[], TaskAssigner]] | None = None,
    worker_pool: WorkerPool | None = None,
    seed: SeedLike = 101,
    jobs: int = 1,
) -> AssignmentComparisonResult:
    """Figure 11 / Table II: run the framework once per assignment strategy.

    Every strategy sees the same dataset and the same worker-pool seed, so the
    only difference between runs is the assignment policy.  ``jobs > 1`` fans
    the independent campaigns out over a process pool; each strategy's run is
    seeded identically to the serial sweep, so the results match bit for bit.
    """
    base_seed = _as_int(seed) or 101
    pool = worker_pool or build_worker_pool(dataset, seed=derive_seed(base_seed, 11))
    distance_model = build_distance_model(dataset)
    factories = assigner_factories or default_assigner_factories(
        dataset, pool, distance_model, seed=base_seed
    )

    checkpoints = sorted(config.evaluation_checkpoints)
    result = AssignmentComparisonResult(checkpoints=list(checkpoints))
    context = {
        "dataset": dataset,
        "config": config,
        "pool": pool,
        "factories": factories,
        "seed": base_seed,
    }
    rows = _parallel_map(
        _assigner_campaign_worker, list(factories), jobs, context
    )
    for name, run_result, stats in rows:
        result.framework_results[name] = run_result
        result.accuracy[name] = [
            run_result.accuracy_at(checkpoint) for checkpoint in checkpoints
        ]
        result.stats[name] = stats
    return result
