"""Perf regression harness: batched EM vs the per-record oracle on a fixed corpus.

Times the production EM engine and the per-record reference loop of
``tests/oracles/em.py`` on the same 20k-answer corpus (the `bench_fig13`
quick profile scale referenced by the paper's Figures 12-13), with a fixed
iteration budget so the comparison is per-iteration cost, and writes
``benchmarks/results/BENCH_inference_speed.json`` — speedup plus
per-iteration milliseconds — so future changes can track the trajectory.  The
run fails if the batched engine falls below ``INFERENCE_MIN_SPEEDUP`` (10x,
defined in ``check_gates.py``) over the per-record loop.
"""

from __future__ import annotations

import json
import time

from bench_common import RESULTS_DIR, build_inference_corpus
from check_gates import INFERENCE_MIN_SPEEDUP
from oracles import ReferenceInference

from repro.core.inference import InferenceConfig, LocationAwareInference

#: Fixed workload: answers in the corpus and EM iterations per run.
CORPUS_ANSWERS = 20_000
EM_ITERATIONS = 3


def _time_fit(model_cls, corpus) -> tuple[float, int]:
    dataset, pool, distance_model, answers = corpus
    config = InferenceConfig(max_iterations=EM_ITERATIONS, convergence_threshold=0.0)
    model = model_cls(dataset.tasks, pool.workers, distance_model, config=config)
    started = time.perf_counter()
    result = model.run_em(answers)
    return time.perf_counter() - started, result.iterations


def test_inference_speed_regression(benchmark):
    corpus = build_inference_corpus(CORPUS_ANSWERS)
    # Order matters for the per-record loop only through the distance cache,
    # which the batched run does not populate; time the batched engine first
    # so the per-record run cannot warm anything up for it.
    vectorized_s, vectorized_iters = _time_fit(LocationAwareInference, corpus)
    reference_s, reference_iters = _time_fit(ReferenceInference, corpus)
    assert vectorized_iters == reference_iters == EM_ITERATIONS

    reference_ms = 1000.0 * reference_s / reference_iters
    vectorized_ms = 1000.0 * vectorized_s / vectorized_iters
    speedup = reference_ms / vectorized_ms

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    payload = {
        "answers": CORPUS_ANSWERS,
        "iterations": EM_ITERATIONS,
        "reference_total_s": round(reference_s, 4),
        "vectorized_total_s": round(vectorized_s, 4),
        "reference_per_iteration_ms": round(reference_ms, 3),
        "vectorized_per_iteration_ms": round(vectorized_ms, 3),
        "speedup": round(speedup, 2),
        "min_required_speedup": INFERENCE_MIN_SPEEDUP,
    }
    path = RESULTS_DIR / "BENCH_inference_speed.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\n=== inference_speed ===\n{json.dumps(payload, indent=2)}\n")

    # The timed unit for pytest-benchmark: one batched EM run.
    dataset, pool, distance_model, answers = corpus
    model = LocationAwareInference(
        dataset.tasks,
        pool.workers,
        distance_model,
        config=InferenceConfig(
            max_iterations=EM_ITERATIONS, convergence_threshold=0.0
        ),
    )
    benchmark.pedantic(lambda: model.run_em(answers), rounds=1, iterations=1)

    assert speedup >= INFERENCE_MIN_SPEEDUP, (
        f"batched EM is only {speedup:.1f}x faster than the per-record "
        f"oracle (required: {INFERENCE_MIN_SPEEDUP}x); see {path}"
    )
