"""Scale gate: sparse candidate-pruned fitting + assignment on a web-scale universe.

The memory-side twin of the speed gates: a 10^5 x 10^5 (worker, task)
universe whose dense distance/accuracy matrices would need ~80 GB, fitted and
assigned entirely through the CSR candidate path
(:class:`repro.spatial.candidates.CandidateIndex` + the ``engine="sparse"``
AccOpt/EM kernels) under a **tracemalloc** budget that a dense run could not
possibly meet.  Writes ``benchmarks/results/BENCH_scale_sparse.json``:

* **the memory gate** — peak traced allocation across universe construction,
  the sparse EM fit and one sparse AccOpt batch must stay under
  ``MAX_PEAK_MEMORY_MB``;
* **the wall gate** — the same end-to-end run must finish within
  ``MAX_SCALE_WALL_S`` (a coarse regression tripwire, sized ~4x the observed
  wall so CI noise cannot flake it);
* **the oracle tier** — before the big run, a small universe is fitted and
  assigned under both engines with a covering radius; the sparse and dense
  paths must agree on every parameter to ``MAX_ORACLE_PARAM_DIFF`` and produce
  identical greedy assignments.

The candidate radius is sized for ~30 in-radius tasks per worker
(``r = sqrt(k / (pi * T))`` over the unit square), so the candidate structure
holds ~3M pairs instead of the dense 10^10.
"""

from __future__ import annotations

import json
import math
import time
import tracemalloc

import numpy as np

from bench_common import RESULTS_DIR
from check_gates import MAX_ORACLE_PARAM_DIFF, MAX_PEAK_MEMORY_MB, MAX_SCALE_WALL_S

from repro.assign.accopt import AccOptAssigner
from repro.core.inference import InferenceConfig, LocationAwareInference
from repro.data.models import POI, Answer, AnswerSet, Task, Worker
from repro.obs.metrics import MetricsRegistry
from repro.spatial.distance import DistanceModel
from repro.spatial.geometry import GeoPoint

#: The web-scale universe: 10^5 workers x 10^5 tasks over the unit square.
NUM_TASKS = 100_000
NUM_WORKERS = 100_000
NUM_ANSWERS = 200_000

#: Candidate radius sized for ~30 expected in-radius tasks per worker.
TARGET_CANDIDATES_PER_WORKER = 30
RADIUS = math.sqrt(TARGET_CANDIDATES_PER_WORKER / (math.pi * NUM_TASKS))

#: EM sweeps on the big universe — enough to exercise every kernel; the
#: oracle tier below runs EM to convergence.
EM_ITERATIONS = 3

#: One sparse AccOpt batch: paper HIT size h = 2 for a batch of arrivals.
AVAILABLE_WORKERS = 8
TASKS_PER_WORKER = 2


#: Oracle tier: sparse vs dense agreement on a small, fully-covered universe.
ORACLE_TASKS = 150
ORACLE_WORKERS = 60
ORACLE_ANSWERS = 450

SEED = 2016

#: Shared label layout — one tuple object for the whole universe keeps the
#: 10^5-task build inside the Python-object part of the memory budget.
LABELS = ("l1", "l2", "l3", "l4")
TRUTH = (1, 0, 1, 0)


def _build_universe(num_tasks: int, num_workers: int, num_answers: int, seed: int):
    """Uniform universe over the unit square with unique (worker, task) answers.

    Worker ``i`` answers tasks ``2i mod T`` and ``(2i + 1) mod T`` (unique
    pairs by construction; with W == T every task receives exactly two
    answers), so the answer log exercises every worker and task without any
    rejection sampling.
    """
    rng = np.random.default_rng(seed)
    tx, ty = rng.random(num_tasks), rng.random(num_tasks)
    tasks = [
        Task(
            task_id=f"t{j}",
            poi=POI(
                poi_id=f"p{j}",
                name=f"p{j}",
                location=GeoPoint(float(tx[j]), float(ty[j])),
            ),
            labels=LABELS,
            truth=TRUTH,
        )
        for j in range(num_tasks)
    ]
    wx, wy = rng.random(num_workers), rng.random(num_workers)
    workers = [
        Worker(worker_id=f"w{i}", locations=(GeoPoint(float(wx[i]), float(wy[i])),))
        for i in range(num_workers)
    ]
    responses = rng.integers(0, 2, size=(num_answers, len(LABELS))).tolist()
    answers = AnswerSet()
    for k in range(num_answers):
        i = k % num_workers
        answers.add(
            Answer(
                worker_id=f"w{i}",
                task_id=f"t{(2 * i + k // num_workers) % num_tasks}",
                responses=tuple(responses[k]),
            )
        )
    return tasks, workers, answers


def _fit_and_assign(tasks, workers, answers, engine: str, radius, iterations: int):
    """Fit EM and run one AccOpt batch under ``engine``; returns all outputs."""
    distance_model = DistanceModel.from_pois([task.location for task in tasks])
    config = InferenceConfig(
        engine=engine,
        candidate_radius=radius if engine == "sparse" else None,
        max_iterations=iterations,
    )
    model = LocationAwareInference(tasks, workers, distance_model, config=config)
    model.fit(answers)
    metrics = MetricsRegistry()
    assigner = AccOptAssigner(
        tasks,
        workers,
        distance_model,
        model.parameters,
        engine=engine,
        candidate_radius=radius if engine == "sparse" else None,
        metrics=metrics,
    )
    available = [worker.worker_id for worker in workers[:AVAILABLE_WORKERS]]
    assignment = assigner.assign(available, TASKS_PER_WORKER, answers)
    return model, assigner, assignment


def _oracle_tier() -> dict:
    """Sparse vs dense on a small universe with a covering radius."""
    tasks, workers, answers = _build_universe(
        ORACLE_TASKS, ORACLE_WORKERS, ORACLE_ANSWERS, SEED + 1
    )
    covering = 10.0  # the unit square's diameter is sqrt(2)
    dense_model, _, dense_assignment = _fit_and_assign(
        tasks, workers, answers, "vectorized", None, 100
    )
    sparse_model, _, sparse_assignment = _fit_and_assign(
        tasks, workers, answers, "sparse", covering, 100
    )
    max_diff = 0.0
    for task in tasks:
        dense_params = dense_model.parameters.task(
            task.task_id, num_labels=task.num_labels
        )
        sparse_params = sparse_model.parameters.task(
            task.task_id, num_labels=task.num_labels
        )
        max_diff = max(
            max_diff,
            float(
                np.max(np.abs(dense_params.label_probs - sparse_params.label_probs))
            ),
            float(
                np.max(
                    np.abs(
                        dense_params.influence_weights
                        - sparse_params.influence_weights
                    )
                )
            ),
        )
    for worker in workers:
        dense_params = dense_model.parameters.worker(worker.worker_id)
        sparse_params = sparse_model.parameters.worker(worker.worker_id)
        max_diff = max(
            max_diff,
            abs(dense_params.p_qualified - sparse_params.p_qualified),
            float(
                np.max(
                    np.abs(
                        np.asarray(dense_params.distance_weights)
                        - np.asarray(sparse_params.distance_weights)
                    )
                )
            ),
        )
    return {
        "oracle_max_param_diff": max_diff,
        "max_oracle_param_diff": MAX_ORACLE_PARAM_DIFF,
        "oracle_assignments_identical": dense_assignment == sparse_assignment,
    }


def test_scale_sparse_gate(benchmark):
    oracle = _oracle_tier()
    assert oracle["oracle_assignments_identical"], (
        "sparse and dense AccOpt diverged on the covered oracle universe"
    )
    assert oracle["oracle_max_param_diff"] <= MAX_ORACLE_PARAM_DIFF

    # The gated run: tracemalloc covers universe construction, the sparse EM
    # fit and the sparse AccOpt batch — everything a serving deployment would
    # hold live for this universe.
    tracemalloc.start()
    started = time.perf_counter()
    tasks, workers, answers = _build_universe(
        NUM_TASKS, NUM_WORKERS, NUM_ANSWERS, SEED
    )
    build_wall_s = time.perf_counter() - started

    fit_started = time.perf_counter()
    model, assigner, assignment = _fit_and_assign(
        tasks, workers, answers, "sparse", RADIUS, EM_ITERATIONS
    )
    fit_assign_wall_s = time.perf_counter() - fit_started
    total_wall_s = time.perf_counter() - started
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assigned = sum(len(task_ids) for task_ids in assignment.values())
    assert assigned == AVAILABLE_WORKERS * TASKS_PER_WORKER
    assert all(
        len(set(task_ids)) == len(task_ids) for task_ids in assignment.values()
    )

    index = assigner._candidate_index
    kept = index.pairs_kept_total if index is not None else 0
    pruned = index.pairs_pruned_total if index is not None else 0

    peak_memory_mb = peak_bytes / 2**20
    dense_matrix_mb = NUM_WORKERS * NUM_TASKS * 8 / 2**20
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    payload = {
        "num_tasks": NUM_TASKS,
        "num_workers": NUM_WORKERS,
        "num_answers": NUM_ANSWERS,
        "candidate_radius": round(RADIUS, 6),
        "em_iterations": EM_ITERATIONS,
        "assign_pairs_kept": int(kept),
        "assign_pairs_pruned": int(pruned),
        "dense_matrix_equivalent_mb": round(dense_matrix_mb, 1),
        "peak_memory_mb": round(peak_memory_mb, 1),
        "max_allowed_peak_memory_mb": MAX_PEAK_MEMORY_MB,
        "build_wall_s": round(build_wall_s, 2),
        "fit_assign_wall_s": round(fit_assign_wall_s, 2),
        "total_wall_s": round(total_wall_s, 2),
        "max_allowed_wall_s": MAX_SCALE_WALL_S,
        **{k: (round(v, 12) if isinstance(v, float) else v) for k, v in oracle.items()},
    }
    path = RESULTS_DIR / "BENCH_scale_sparse.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\n=== scale_sparse ===\n{json.dumps(payload, indent=2)}\n")

    # The timed unit for pytest-benchmark: one warm sparse AccOpt batch on
    # the already-built universe (the serving-arrival steady state).
    available = [worker.worker_id for worker in workers[:AVAILABLE_WORKERS]]
    benchmark.pedantic(
        lambda: assigner.assign(available, TASKS_PER_WORKER, answers),
        rounds=1,
        iterations=1,
    )

    assert peak_memory_mb <= MAX_PEAK_MEMORY_MB, (
        f"sparse scale run peaked at {peak_memory_mb:.0f} MB "
        f"(budget: {MAX_PEAK_MEMORY_MB:.0f} MB; dense needs "
        f"~{dense_matrix_mb / 1024:.0f} GB); see {path}"
    )
    assert total_wall_s <= MAX_SCALE_WALL_S, (
        f"sparse scale run took {total_wall_s:.0f}s "
        f"(budget: {MAX_SCALE_WALL_S:.0f}s); see {path}"
    )
