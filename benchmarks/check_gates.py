"""The perf-gate thresholds, and the checker that enforces them.

Every gate threshold is defined exactly once, below.  The gated benchmarks
import these constants for their in-process asserts and echo them into
``benchmarks/results/BENCH_*.json`` next to the measurements.  This checker
re-reads those files and fails (exit code 1) if

* any recorded metric violates its threshold as defined *here* — the
  artifact cannot claim a gate it did not meet, even if a benchmark's
  in-process assertions are edited or skipped;
* a result file records a threshold different from the one defined here —
  a benchmark cannot quietly lower its own gate; or
* two fields :data:`EQUAL_FIELDS` pairs are recorded unequal.

Run from the repository root after the benchmarks::

    python benchmarks/check_gates.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

# ---------------------------------------------------------------- thresholds
#: ``bench_inference_speed.py``: batched EM over the per-record oracle,
#: per iteration of the EM loop alone (each side's answer-log flatten is
#: timed separately since the per-answer E-step change; before it the timed
#: run included the flatten, which read ~15x where the loop alone was ~19x).
#: Raised from the initial 5x once the kernel reliably measured ~18x, then
#: 10 -> 25 once the per-answer E-step — distance-profile posteriors summed
#: per answer before the M-step — measured 54.5-80.4x over four runs (the
#: previous kernel: 18.5-19.7x).
INFERENCE_MIN_SPEEDUP = 25.0

#: ``bench_inference_speed.py``: tracemalloc peak (MiB, above the memory
#: allocated before the call) of one ``em_step`` and of two
#: ``localized_sweeps`` over every entity, on the 20k-answer tensor
#: (200k label responses).  While the E-step ran each pass over all label
#: responses at once they read 25.1 and 35.5 MiB; with the label rows in
#: answer-aligned blocks of ~16k they read 9.1 and 19.5 MiB (the sweeps'
#: remainder is the gathered row index arrays).  Deterministic for a NumPy
#: version, so each ceiling sits ~1.3-1.5x above its reading and well
#: below the unblocked one.
MAX_EM_STEP_PEAK_MIB = 14.0
MAX_LOCALIZED_SWEEPS_PEAK_MIB = 26.0

#: ``bench_assignment_speed.py``: batched AccOpt scoring over the scalar
#: oracle on one batch, and p50 ceilings for three frontend request paths at
#: 4000 tasks: a worker's first request with probes off, a warm request that
#: probes, and the first request after a fresh snapshot publish.  The
#: frontend ceiling was 50 ms (1.6 ms measured) until the probe read one
#: batched distance row and AccOpt took the snapshot's store instead of its
#: dict-of-dataclasses view; over four runs of that change the three read
#: 2.0-3.7, 1.8-3.3 and 3.5-4.4 ms (the previous code: 2.9-3.7, 16-21 and
#: 48-56 ms), so each ceiling is 10 ms, over 2x the worst run.
ASSIGNMENT_MIN_SPEEDUP = 10.0
FRONTEND_P50_TARGET_MS = 10.0
PROBING_P50_TARGET_MS = 10.0
AFTER_PUBLISH_P50_TARGET_MS = 10.0

#: ``bench_assignment_speed.py``: p50 ceiling for a warm request with probes
#: off (the same workers' second requests), the path none of the three
#: ceilings above times.  Once AccOpt kept its answer counts across requests
#: and built the Equation 15 baseline once per parameter version, four runs
#: read 0.46-0.65 ms (the code that rebuilt both per request: 2.11-2.36 ms),
#: so the ceiling is 1.5 ms, over 2x the worst run.
WARM_P50_TARGET_MS = 1.5

#: ``bench_assignment_speed.py``: ceiling on a worker's first request over a
#: warm one (p50 over p50, the two samples interleaved).  Timed side by
#: side, the two requests' ratio cancels most of the host's speed, where
#: the absolute ceilings above had to allow for CI hosts ~2x slower than
#: the one that set them.  While a worker's first request converted every task location
#: to arrays (and its distance row reduced over the worker's locations with
#: an axis-0 ``reduceat``), ten runs read 2.37-2.71; with the assigner
#: keeping its task coordinates as arrays, seven read 1.81-1.91, so the
#: ceiling sits between the two.
MAX_FIRST_OVER_WARM = 2.2

#: ``bench_serving_throughput.py``: micro-batched serving over
#: refresh-per-answer on an identical stream prefix.
SERVING_MIN_SPEEDUP = 5.0

#: Degradation gate: the last quarter of the stream must sustain at least this
#: fraction of the second quarter's throughput (the first steady-state window —
#: by then the estimate covers every entity; the first quarter runs on small
#: pre-refresh parameter dicts and would flatter the comparison).  Before the
#: incremental updater gathered relevant answers through the AnswerSet indexes
#: and published copy-on-write estimates, per-batch cost tracked the *total*
#: log size and the tail collapsed to ~150 answers/s (~0.17x of early);
#: the log-free hot path bounded the neighbourhood cost (~0.4x measured,
#: gated at 0.3), and the pipelined loop took the late-stream full re-fits
#: off the ingest thread entirely (~0.8x measured), so the gate doubled.
MIN_LATE_OVER_STEADY = 0.6

#: Steady-state throughput ratchet: full-stream micro-batched ingestion of the
#: 20k-answer corpus.  The open-world array substrate (incrementally
#: maintained AnswerTensor + array-first publishes) gated at 900 and measured
#: ~1400; the log-free hot path (live-tensor refreshes, sweep early-exit,
#: dirty-row delta publishes) measured ~2100-2200 and gated at 1800; the
#: pipelined loop — background full re-fits overlapped with ingest plus
#: sufficient-stat O(changed rows) applies — measures ~3700, so the gate
#: ratcheted to 3000.  The per-answer E-step made every refresh fit ~4x
#: cheaper: 7878-10276 over four runs (previous kernel: 3133), gated at
#: 4500, under two thirds of the worst run.
MIN_FULL_STREAM_ANSWERS_PER_SEC = 4500.0

#: Log-free invariant: AnswerSet -> tensor flattens allowed on the full-stream
#: replay (every full refresh must reuse the live tensor).
MAX_FULL_STREAM_LOG_FLATTENS = 0

#: Stall ceiling: the longest single ingest stall — one ``submit``/``flush``
#: call, including any wait at a background-refresh integration point — over
#: the full-stream replay.  The pipelined loop's worst flush is one
#: micro-batch apply plus the residual integration wait (~1.5 s measured for
#: the final, largest fit, vs ~1.7 s for the same fit run inline by the
#: serial loop); the ceiling pins that with headroom for CI machines.  With
#: the per-answer E-step the worst stall read 320-478 ms over four runs
#: (previous kernel: 1889), so the ceiling halved to 1250 ms, over 1.5x the
#: worst run.
MAX_INGEST_STALL_MS = 1250.0

#: Open-world stream: at least this fraction of the replay's events must come
#: from workers/tasks absent at startup.
MIN_OPEN_WORLD_FRACTION = 0.2

#: Durability-overhead gate: the full-stream replay with the write-ahead
#: answer journal enabled must sustain 70% of the throughput ratchet —
#: journaling every accepted event (checksummed append + buffered flush per
#: answer) may not cost more than 30% of the hot path.  Moved 2100 -> 3150
#: with the throughput ratchet (measured 7376-8706 over four runs).
MIN_JOURNALED_ANSWERS_PER_SEC = 3150.0

#: Checkpoint-size gate: bytes (archive + CRC sidecar) written per answer
#: row the checkpoints hold, over the durable replay with a checkpoint every
#: 4000 answers.  Near-deterministic: only the counters JSON varies by a few
#: bytes.  While each checkpoint carried the answer log as JSON inside a
#: UCS-4 string (and the task metadata the same way) it read 1184.8; with
#: the answers persisted as columns and the metadata as UTF-8 it read
#: 298.1, most of it the metadata of all 4000 tasks.  Checkpoints now carry
#: metadata only for entities learned after startup (none in this
#: closed-world replay): 151.7, mostly the store and the UCS-4 id tables, so
#: the ceiling moved 400 -> 200.
MAX_CHECKPOINT_BYTES_PER_ANSWER = 200.0

#: Attribution-coverage gate: pipeline spans must explain at least this
#: fraction of the full-stream replay's wall clock.
MIN_ATTRIBUTED_WALL_FRACTION = 0.9

#: ``bench_scale_sparse.py``.  A dense W x T float64 matrix of the 1e5 x 1e5
#: universe alone is ~76 GB, so the memory budget is the real gate: the run
#: only fits inside it via the CSR candidate path.  The wall budget is a
#: coarse tripwire (~4x the observed wall); the oracle tolerance bounds the
#: sparse-vs-dense parameter difference on a small, fully-covered universe.
MAX_PEAK_MEMORY_MB = 2048.0
MAX_SCALE_WALL_S = 900.0
MAX_ORACLE_PARAM_DIFF = 1e-9

#: ``bench_scenario_matrix.py``: a clean stream is indistinguishable from a
#: reputation-blind run, spam is caught at 90% recall and 90% precision with
#: at most 10% honest workers flagged, and decayed statistics beat frozen ones
#: on the drift stream (strictly: the margin must exceed the threshold).
MAX_CLEAN_EQUIVALENCE_DELTA = 1e-6
MIN_SPAM_DETECTION_RECALL = 0.9
MIN_SPAM_DETECTION_PRECISION = 0.9
MAX_SPAM_FALSE_POSITIVE_RATE = 0.1
MIN_DRIFT_DECAYED_MARGIN = 0.0

#: (file, metric, threshold key, direction, threshold) — ``">="`` means the
#: metric must be at least the threshold, ``"<="`` at most.  The threshold key
#: names where the benchmark echoes the threshold into its result file.
GATES = [
    (
        "BENCH_inference_speed.json",
        "speedup",
        "min_required_speedup",
        ">=",
        INFERENCE_MIN_SPEEDUP,
    ),
    (
        "BENCH_inference_speed.json",
        "em_step_peak_mib",
        "max_em_step_peak_mib",
        "<=",
        MAX_EM_STEP_PEAK_MIB,
    ),
    (
        "BENCH_inference_speed.json",
        "localized_sweeps_peak_mib",
        "max_localized_sweeps_peak_mib",
        "<=",
        MAX_LOCALIZED_SWEEPS_PEAK_MIB,
    ),
    (
        "BENCH_assignment_speed.json",
        "speedup",
        "min_required_speedup",
        ">=",
        ASSIGNMENT_MIN_SPEEDUP,
    ),
    (
        "BENCH_assignment_speed.json",
        "frontend_p50_ms",
        "frontend_p50_target_ms",
        "<=",
        FRONTEND_P50_TARGET_MS,
    ),
    (
        "BENCH_assignment_speed.json",
        "warm_p50_ms",
        "warm_p50_target_ms",
        "<=",
        WARM_P50_TARGET_MS,
    ),
    (
        "BENCH_assignment_speed.json",
        "first_over_warm",
        "max_first_over_warm",
        "<=",
        MAX_FIRST_OVER_WARM,
    ),
    (
        "BENCH_assignment_speed.json",
        "probing_warm_p50_ms",
        "probing_warm_p50_target_ms",
        "<=",
        PROBING_P50_TARGET_MS,
    ),
    (
        "BENCH_assignment_speed.json",
        "after_publish_p50_ms",
        "after_publish_p50_target_ms",
        "<=",
        AFTER_PUBLISH_P50_TARGET_MS,
    ),
    (
        "BENCH_serving_throughput.json",
        "gate_speedup",
        "min_required_speedup",
        ">=",
        SERVING_MIN_SPEEDUP,
    ),
    (
        "BENCH_serving_throughput.json",
        "late_over_steady",
        "min_late_over_steady",
        ">=",
        MIN_LATE_OVER_STEADY,
    ),
    (
        "BENCH_serving_throughput.json",
        "full_stream_answers_per_sec",
        "min_full_stream_answers_per_sec",
        ">=",
        MIN_FULL_STREAM_ANSWERS_PER_SEC,
    ),
    (
        "BENCH_serving_throughput.json",
        "full_stream_log_flattens",
        "max_full_stream_log_flattens",
        "<=",
        MAX_FULL_STREAM_LOG_FLATTENS,
    ),
    (
        "BENCH_serving_throughput.json",
        "max_ingest_stall_ms",
        "max_allowed_ingest_stall_ms",
        "<=",
        MAX_INGEST_STALL_MS,
    ),
    (
        "BENCH_serving_throughput.json",
        "open_world_fraction",
        "min_open_world_fraction",
        ">=",
        MIN_OPEN_WORLD_FRACTION,
    ),
    (
        "BENCH_serving_throughput.json",
        "journaled_answers_per_sec",
        "min_journaled_answers_per_sec",
        ">=",
        MIN_JOURNALED_ANSWERS_PER_SEC,
    ),
    (
        "BENCH_serving_throughput.json",
        "checkpoint_bytes_per_answer",
        "max_checkpoint_bytes_per_answer",
        "<=",
        MAX_CHECKPOINT_BYTES_PER_ANSWER,
    ),
    (
        "BENCH_serving_throughput.json",
        "attributed_wall_fraction",
        "min_attributed_wall_fraction",
        ">=",
        MIN_ATTRIBUTED_WALL_FRACTION,
    ),
    (
        "BENCH_scale_sparse.json",
        "peak_memory_mb",
        "max_allowed_peak_memory_mb",
        "<=",
        MAX_PEAK_MEMORY_MB,
    ),
    (
        "BENCH_scale_sparse.json",
        "total_wall_s",
        "max_allowed_wall_s",
        "<=",
        MAX_SCALE_WALL_S,
    ),
    (
        "BENCH_scale_sparse.json",
        "oracle_max_param_diff",
        "max_oracle_param_diff",
        "<=",
        MAX_ORACLE_PARAM_DIFF,
    ),
    (
        "BENCH_scenario_matrix.json",
        "clean_equivalence_delta",
        "max_clean_equivalence_delta",
        "<=",
        MAX_CLEAN_EQUIVALENCE_DELTA,
    ),
    (
        "BENCH_scenario_matrix.json",
        "spam_detection_recall",
        "min_spam_detection_recall",
        ">=",
        MIN_SPAM_DETECTION_RECALL,
    ),
    (
        "BENCH_scenario_matrix.json",
        "spam_detection_precision",
        "min_spam_detection_precision",
        ">=",
        MIN_SPAM_DETECTION_PRECISION,
    ),
    (
        "BENCH_scenario_matrix.json",
        "spam_false_positive_rate",
        "max_spam_false_positive_rate",
        "<=",
        MAX_SPAM_FALSE_POSITIVE_RATE,
    ),
    (
        "BENCH_scenario_matrix.json",
        "drift_decayed_margin",
        "min_drift_decayed_margin",
        ">=",
        MIN_DRIFT_DECAYED_MARGIN,
    ),
]

#: Fields one artifact must record equal, as ``(file, field, other field)``.
#: ``bench_serving_throughput.py``'s restart decodes exactly the journal
#: records it replays: opening the journal checks CRCs without decoding, and
#: replay decodes nothing the checkpoint already covers (decoding every
#: retained record twice read 3856 against 968 replayed on perfbench
#: ``stream``).
EQUAL_FIELDS = [
    (
        "BENCH_serving_throughput.json",
        "recover_records_decoded",
        "recover_replayed_events",
    ),
]


def main() -> int:
    failures: list[str] = []
    payloads: dict[str, dict] = {}
    for name in sorted({gate[0] for gate in GATES + EQUAL_FIELDS}):
        path = RESULTS_DIR / name
        if not path.exists():
            failures.append(f"{name}: missing — did its benchmark run?")
            continue
        payloads[name] = json.loads(path.read_text(encoding="utf-8"))

    for name, metric, threshold_key, direction, threshold in GATES:
        payload = payloads.get(name)
        if payload is None:
            continue
        if metric not in payload:
            failures.append(f"{name}: missing {metric!r}")
            continue
        if threshold_key in payload and float(payload[threshold_key]) != threshold:
            failures.append(
                f"{name}: records {threshold_key} = {payload[threshold_key]}, "
                f"but the gate is {threshold} (thresholds live in check_gates.py)"
            )
        value = float(payload[metric])
        ok = value >= threshold if direction == ">=" else value <= threshold
        status = "ok" if ok else "REGRESSED"
        print(f"{name}: {metric} = {value} {direction} {threshold} ... {status}")
        if not ok:
            failures.append(
                f"{name}: {metric} = {value} violates {metric} {direction} "
                f"{threshold} ({threshold_key})"
            )

    for name, metric, other in EQUAL_FIELDS:
        payload = payloads.get(name)
        if payload is None:
            continue
        missing = [key for key in (metric, other) if key not in payload]
        if missing:
            failures.append(f"{name}: missing {missing[0]!r}")
            continue
        ok = payload[metric] == payload[other]
        status = "ok" if ok else "REGRESSED"
        print(
            f"{name}: {metric} = {payload[metric]} == {other} = "
            f"{payload[other]} ... {status}"
        )
        if not ok:
            failures.append(
                f"{name}: {metric} = {payload[metric]} differs from "
                f"{other} = {payload[other]}"
            )

    if failures:
        print("\nperf gates regressed:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("all recorded perf gates hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
