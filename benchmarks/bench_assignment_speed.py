"""Perf regression harness: batched vs scalar AccOpt ΔAcc scoring.

The assignment-side twin of ``bench_inference_speed.py`` and
``bench_serving_throughput.py``: times one AccOpt batch (Algorithm 1) on a
Figure 14-scale corpus — 4k tasks, the paper-profile worker pool — under the
production assigner and the scalar oracle of ``tests/oracles/accopt.py``, and
writes ``benchmarks/results/BENCH_assignment_speed.json``:

* **the gate** — the production assigner (batched
  :mod:`repro.core.accuracy_kernel` scoring) must be at least
  ``ASSIGNMENT_MIN_SPEEDUP``× faster than the scalar oracle on the identical
  batch, and the two must produce *identical* assignments (they are the same
  exact greedy algorithm);
* **serving latency** — p50/p95 of live per-worker assignment requests served
  by :class:`repro.serving.frontend.AssignmentFrontend` against a published
  snapshot of the fitted parameters, tracking the serving-side ratchet
  (target: p50 under ``FRONTEND_P50_TARGET_MS`` at this scale).  Each is a
  worker's first request, with trust probes off, against one snapshot;
* **warm latency** — p50/p95 of the same workers' next requests on that
  frontend (distance rows, aligned parameters, Equation 15 baseline and
  answer counts already in place; probes off): the steady per-arrival cost
  of Algorithm 1, gated at ``WARM_P50_TARGET_MS``.  Each worker's second
  request follows the next worker's first, so the two samples span the same
  stretch of host load, and their ratio ``first_over_warm`` — what a
  worker's first request costs beyond a warm one, whatever the host's
  speed — is gated at ``MAX_FIRST_OVER_WARM``;
* **probing and refresh latency** — the two request paths those never run,
  on a frontend that probes on every request (``probe_interval=1``): p50/p95
  of warm requests (distance rows and parameters already cached), gated at
  ``PROBING_P50_TARGET_MS``, and of the first request after each of
  ``FRESH_PUBLISHES`` fresh snapshot publishes (each one a new parameter
  version for the assigner), gated at ``AFTER_PUBLISH_P50_TARGET_MS``.

Every threshold is defined in ``check_gates.py``.
"""

from __future__ import annotations

import json
import time

import numpy as np
from bench_common import RESULTS_DIR, build_inference_corpus
from check_gates import (
    AFTER_PUBLISH_P50_TARGET_MS,
    ASSIGNMENT_MIN_SPEEDUP,
    FRONTEND_P50_TARGET_MS,
    MAX_FIRST_OVER_WARM,
    PROBING_P50_TARGET_MS,
    WARM_P50_TARGET_MS,
)
from oracles import ReferenceAccOptAssigner

from repro.assign.accopt import AccOptAssigner
from repro.core.inference import InferenceConfig, LocationAwareInference
from repro.serving.frontend import AssignmentFrontend
from repro.serving.snapshots import SnapshotStore

#: Fixed workload: Figure 14's quick-profile scale (4k tasks via the shared
#: 20k-answer corpus), one batch of available workers, paper HIT size h = 2.
CORPUS_ANSWERS = 20_000
AVAILABLE_WORKERS = 8
TASKS_PER_WORKER = 2

#: EM iterations used to produce realistic (fitted) parameters for scoring.
FIT_ITERATIONS = 5

#: Serving-latency requests measured against the published snapshot; also
#: the warm requests timed on each frontend.
FRONTEND_REQUESTS = 30

#: Fresh snapshot publishes, each followed by one timed request.
FRESH_PUBLISHES = 24


def _time_assign(assigner_cls, corpus, parameters, available):
    dataset, pool, distance_model, answers = corpus
    assigner = assigner_cls(dataset.tasks, pool.workers, distance_model, parameters)
    started = time.perf_counter()
    assignment = assigner.assign(available, TASKS_PER_WORKER, answers)
    return time.perf_counter() - started, assignment


def test_assignment_speed_regression(benchmark):
    corpus = build_inference_corpus(CORPUS_ANSWERS)
    dataset, pool, distance_model, answers = corpus

    model = LocationAwareInference(
        dataset.tasks,
        pool.workers,
        distance_model,
        config=InferenceConfig(max_iterations=FIT_ITERATIONS),
    )
    model.fit(answers)
    parameters = model.parameters
    available = list(pool.worker_ids[:AVAILABLE_WORKERS])

    # Time the batched assigner first so the scalar run cannot warm the
    # distance cache for it (the batched path computes its own distance rows).
    vectorized_s, vectorized_assignment = _time_assign(
        AccOptAssigner, corpus, parameters, available
    )
    reference_s, reference_assignment = _time_assign(
        ReferenceAccOptAssigner, corpus, parameters, available
    )
    assert vectorized_assignment == reference_assignment, (
        "batched and scalar AccOpt diverged on the benchmark corpus"
    )
    speedup = reference_s / vectorized_s

    # Serving path: per-worker requests against a published snapshot, the
    # p50/p95 numbers the serving-latency ratchet tracks.
    task_ids = [task.task_id for task in dataset.tasks]
    num_labels = [task.num_labels for task in dataset.tasks]
    store = parameters.regather(pool.worker_ids, task_ids, num_labels)
    snapshots = SnapshotStore()
    snapshots.publish(store)
    frontend = AssignmentFrontend(
        dataset.tasks,
        pool.workers,
        distance_model,
        snapshots,
        strategy="accopt",
    )
    # Each worker's first request, then the previous worker's second (warm)
    # one, so both samples see the same host load.
    served = pool.worker_ids[:FRONTEND_REQUESTS]
    first_ms, plain_warm_ms = [], []
    for worker_id, previous in zip(served, [None, *served[:-1]]):
        first_ms.append(frontend.assign(worker_id, TASKS_PER_WORKER, answers).latency_ms)
        if previous is not None:
            plain_warm_ms.append(
                frontend.assign(previous, TASKS_PER_WORKER, answers).latency_ms
            )
    plain_warm_ms.append(frontend.assign(served[-1], TASKS_PER_WORKER, answers).latency_ms)
    first_p50_ms = float(np.percentile(first_ms, 50))
    first_p95_ms = float(np.percentile(first_ms, 95))
    warm_p50_ms = float(np.percentile(plain_warm_ms, 50))

    # A probing frontend: warm requests (after one untimed request per
    # worker), then one request after each fresh publish — a frozen copy of
    # the same estimate, so every version has equal but new id tuples.
    probing = AssignmentFrontend(
        dataset.tasks,
        pool.workers,
        distance_model,
        snapshots,
        strategy="accopt",
        probe_interval=1,
    )
    warm_workers = pool.worker_ids[:FRONTEND_REQUESTS]
    for worker_id in warm_workers:
        probing.assign(worker_id, TASKS_PER_WORKER, answers)
    warm_ms = [
        probing.assign(worker_id, TASKS_PER_WORKER, answers).latency_ms
        for worker_id in warm_workers
    ]
    after_publish_ms = []
    for index in range(FRESH_PUBLISHES):
        snapshots.publish(store)
        worker_id = warm_workers[index % len(warm_workers)]
        after_publish_ms.append(
            probing.assign(worker_id, TASKS_PER_WORKER, answers).latency_ms
        )
    assert probing.stats.parameter_refreshes == FRESH_PUBLISHES + 1
    assert probing.stats.probes > 0

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    payload = {
        "tasks": len(dataset.tasks),
        "corpus_answers": CORPUS_ANSWERS,
        "available_workers": AVAILABLE_WORKERS,
        "tasks_per_worker": TASKS_PER_WORKER,
        "reference_batch_s": round(reference_s, 4),
        "vectorized_batch_s": round(vectorized_s, 4),
        "speedup": round(speedup, 2),
        "min_required_speedup": ASSIGNMENT_MIN_SPEEDUP,
        "assignments_identical": vectorized_assignment == reference_assignment,
        "frontend_requests": len(first_ms),
        "frontend_p50_ms": round(first_p50_ms, 3),
        "frontend_p95_ms": round(first_p95_ms, 3),
        "frontend_p50_target_ms": FRONTEND_P50_TARGET_MS,
        "warm_requests": len(plain_warm_ms),
        "warm_p50_ms": round(warm_p50_ms, 3),
        "warm_p95_ms": round(float(np.percentile(plain_warm_ms, 95)), 3),
        "warm_p50_target_ms": WARM_P50_TARGET_MS,
        "first_over_warm": round(first_p50_ms / warm_p50_ms, 2),
        "max_first_over_warm": MAX_FIRST_OVER_WARM,
        "probing_requests": len(warm_ms),
        "probing_warm_p50_ms": round(float(np.percentile(warm_ms, 50)), 3),
        "probing_warm_p95_ms": round(float(np.percentile(warm_ms, 95)), 3),
        "probing_warm_p50_target_ms": PROBING_P50_TARGET_MS,
        "fresh_publishes": len(after_publish_ms),
        "after_publish_p50_ms": round(float(np.percentile(after_publish_ms, 50)), 3),
        "after_publish_p95_ms": round(float(np.percentile(after_publish_ms, 95)), 3),
        "after_publish_p50_target_ms": AFTER_PUBLISH_P50_TARGET_MS,
    }
    path = RESULTS_DIR / "BENCH_assignment_speed.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\n=== assignment_speed ===\n{json.dumps(payload, indent=2)}\n")

    # The timed unit for pytest-benchmark: one batched AccOpt batch on a
    # fresh assigner (cold task-array and distance caches, like the gate run).
    benchmark.pedantic(
        lambda: _time_assign(AccOptAssigner, corpus, parameters, available),
        rounds=1,
        iterations=1,
    )

    assert speedup >= ASSIGNMENT_MIN_SPEEDUP, (
        f"batched AccOpt scoring is only {speedup:.1f}x faster than the "
        f"scalar oracle (required: {ASSIGNMENT_MIN_SPEEDUP}x); see {path}"
    )
