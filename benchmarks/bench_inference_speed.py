"""Perf regression harness: batched EM vs the per-record oracle on a fixed corpus.

Times the production EM engine and the per-record reference loop of
``tests/oracles/em.py`` on the same 20k-answer corpus (the `bench_fig13`
quick profile scale referenced by the paper's Figures 12-13), with a fixed
iteration budget, and writes ``benchmarks/results/BENCH_inference_speed.json``.
Each side's one-off flatten of the answer log — ``AnswerTensor.build`` and
the oracle's ``build_records`` — is timed on its own
(``vectorized_build_ms``, ``reference_build_ms``); the EM loop then runs on
those prebuilt inputs, and only the loop enters ``*_total_s``,
``*_per_iteration_ms`` and ``speedup``.  The run fails if the batched loop
falls below ``INFERENCE_MIN_SPEEDUP`` (defined in ``check_gates.py``) over
the per-record loop.

It also records the tracemalloc peak, above what was allocated before the
call, of one ``em_step`` from the fit's cold start (``em_step_peak_mib``)
and of two ``localized_sweeps`` over every entity of the same tensor
(``localized_sweeps_peak_mib``).  Both are deterministic for a NumPy
version and gated by ceilings in ``check_gates.py``: they show that the
E-step's temporaries stay block-sized rather than growing with the answer
log.
"""

from __future__ import annotations

import json
import time
import tracemalloc

import numpy as np

from bench_common import RESULTS_DIR, build_inference_corpus
from check_gates import (
    INFERENCE_MIN_SPEEDUP,
    MAX_EM_STEP_PEAK_MIB,
    MAX_LOCALIZED_SWEEPS_PEAK_MIB,
)
from oracles import ReferenceInference
from oracles.em import build_records

from repro.core import em_kernel
from repro.core.em_kernel import AnswerTensor
from repro.core.inference import InferenceConfig, LocationAwareInference

#: Fixed workload: answers in the corpus and EM iterations per run.
CORPUS_ANSWERS = 20_000
EM_ITERATIONS = 3


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def _peak_mib(fn) -> float:
    """tracemalloc peak of ``fn()`` above what was allocated before it, in MiB."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - before) / 2**20


def _memory_peaks(tensor, config) -> tuple[float, float]:
    """Peaks of one ``em_step`` and of two sweeps over every entity."""
    store = em_kernel.initial_store(
        tensor, config.function_set, config.alpha, config.initial_p_qualified
    )
    em_step_mib = _peak_mib(lambda: em_kernel.em_step(tensor, store))
    swept = store.copy()
    every_task = np.arange(swept.num_tasks, dtype=np.intp)
    sweeps_mib = _peak_mib(
        lambda: em_kernel.localized_sweeps(
            tensor,
            swept,
            np.arange(tensor.num_answers, dtype=np.intp),
            np.arange(swept.num_workers, dtype=np.intp),
            every_task,
            em_kernel.label_slots_of_tasks(swept.label_offsets, every_task),
            iterations=2,
        )
    )
    return em_step_mib, sweeps_mib


def test_inference_speed_regression(benchmark):
    dataset, pool, distance_model, answers = build_inference_corpus(CORPUS_ANSWERS)
    config = InferenceConfig(max_iterations=EM_ITERATIONS, convergence_threshold=0.0)
    vectorized, reference = (
        cls(dataset.tasks, pool.workers, distance_model, config=config)
        for cls in (LocationAwareInference, ReferenceInference)
    )
    # Order matters for the per-record flatten only through the distance
    # cache, which the batched build does not populate; run the batched
    # engine first so the per-record side cannot warm anything up for it.
    vectorized_build_s, tensor = _timed(
        lambda: AnswerTensor.build(
            answers,
            {task.task_id: task for task in dataset.tasks},
            {worker.worker_id: worker for worker in pool.workers},
            distance_model,
            config.function_set,
        )
    )
    vectorized_s, vectorized_result = _timed(
        lambda: vectorized.run_em(None, tensor=tensor)
    )
    reference_build_s, records = _timed(lambda: build_records(reference, answers))
    reference_s, reference_result = _timed(
        lambda: reference.run_em_on_records(records)
    )
    assert vectorized_result.iterations == reference_result.iterations == EM_ITERATIONS

    reference_ms = 1000.0 * reference_s / EM_ITERATIONS
    vectorized_ms = 1000.0 * vectorized_s / EM_ITERATIONS
    speedup = reference_ms / vectorized_ms
    em_step_mib, sweeps_mib = _memory_peaks(tensor, config)

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    payload = {
        "answers": CORPUS_ANSWERS,
        "iterations": EM_ITERATIONS,
        "reference_build_ms": round(1000.0 * reference_build_s, 3),
        "vectorized_build_ms": round(1000.0 * vectorized_build_s, 3),
        "reference_total_s": round(reference_s, 4),
        "vectorized_total_s": round(vectorized_s, 4),
        "reference_per_iteration_ms": round(reference_ms, 3),
        "vectorized_per_iteration_ms": round(vectorized_ms, 3),
        "speedup": round(speedup, 2),
        "min_required_speedup": INFERENCE_MIN_SPEEDUP,
        "em_step_peak_mib": round(em_step_mib, 2),
        "max_em_step_peak_mib": MAX_EM_STEP_PEAK_MIB,
        "localized_sweeps_peak_mib": round(sweeps_mib, 2),
        "max_localized_sweeps_peak_mib": MAX_LOCALIZED_SWEEPS_PEAK_MIB,
    }
    path = RESULTS_DIR / "BENCH_inference_speed.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\n=== inference_speed ===\n{json.dumps(payload, indent=2)}\n")

    # The timed unit for pytest-benchmark: one batched EM loop.
    benchmark.pedantic(
        lambda: vectorized.run_em(None, tensor=tensor), rounds=1, iterations=1
    )

    assert speedup >= INFERENCE_MIN_SPEEDUP, (
        f"batched EM is only {speedup:.1f}x faster than the per-record "
        f"oracle (required: {INFERENCE_MIN_SPEEDUP}x); see {path}"
    )
    assert em_step_mib <= MAX_EM_STEP_PEAK_MIB, (
        f"one em_step peaked at {em_step_mib:.2f} MiB "
        f"(ceiling: {MAX_EM_STEP_PEAK_MIB} MiB); see {path}"
    )
    assert sweeps_mib <= MAX_LOCALIZED_SWEEPS_PEAK_MIB, (
        f"two localized sweeps peaked at {sweeps_mib:.2f} MiB "
        f"(ceiling: {MAX_LOCALIZED_SWEEPS_PEAK_MIB} MiB); see {path}"
    )
