"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {stream,campaign,offline} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` repeats the workload (set-up + timed phase, fresh program
objects each time) as often as ``--seconds`` plans for, at least twice, and
prints the end-to-end metrics.
``--trace 1`` runs the workload once plainly and once with every layer's
public calls wrapped (whatever ``--seconds`` says), prints the per-layer
table and prints the per-layer metrics.  Either way the last line of
standard output is one JSON object::

    {"correct": true, "attempted": 15041, "failed": 0,
     "metrics": {"answers_per_s": {"value": 2073.2, "unit": "answers/s"}, ...}}

``--tiny`` runs the self-test sizes instead of the benchmark sizes.  The
metric definitions, the layer map and how to read the trace are in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import threading
import time
from pathlib import Path

import pb_trace

ROOT = Path(__file__).resolve().parent.parent

#: Upper bound on repetitions in one run, whatever ``--seconds`` asks for.
MAX_REPS = 50


def _units(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of ``BENCHMARK.json``."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in benchmark[section]}


def _fastest(per_rep: list[list[float]]) -> list[float]:
    """Element-wise minimum over repetitions.

    Repetitions of one seed do identical work in the same order, so the k-th
    segment of every repetition is the same computation.  On a
    shared virtual machine a fixed CPU loop runs ~45% slower for seconds at a
    time while a neighbour is busy; that interference only ever adds time,
    and it rarely hits the same segment in every repetition.
    A stall the program causes itself recurs in every repetition at the same
    place, so the minimum keeps it.  Repetitions that did not line up (which
    the accuracy check would also flag) are pooled instead.
    """
    if len({len(samples) for samples in per_rep}) == 1:
        return [min(values) for values in zip(*per_rep)]
    return [value for samples in per_rep for value in samples]


def _paired(runs: list[list[tuple[float, float]]]) -> list[float]:
    """Request latencies (ms) at the host's fastest speed in the run.

    ``runs`` holds ``(ms, reference ms)`` per request, one list per
    repetition or read-out; the k-th request of each is the same
    computation.  A request's ratio to the reference request timed just
    before it hardly depends on how fast the host ran at that moment.  A
    request's latency is the median of its ratios over the runs times the
    reference request's fastest time (the same computation each time, so
    its minimum over thousands of calls is the host's fastest speed).  The
    fastest occurrence of each request would need every request to catch a
    quiet moment of the host; this needs one reference call to.  Runs that
    did not line up are pooled instead.
    """
    scale = min((reference for samples in runs for _, reference in samples), default=0.0)
    if len({len(samples) for samples in runs}) == 1:
        ratios = [
            statistics.median(request / reference for request, reference in pairs)
            for pairs in zip(*runs)
        ]
    else:
        ratios = [request / reference for samples in runs for request, reference in samples]
    return [ratio * scale for ratio in ratios]


def _warm_up(workloads, name: str, seed: int) -> None:
    """One untimed tiny repetition so imports and first calls are paid here."""
    workload = workloads.WORKLOADS[name](seed, workloads.TINY_SIZES[name])
    workload.prepare()
    try:
        workload.repetition()
        workload.setup_only()
    finally:
        workload.cleanup()


def _checks(reps) -> dict[str, str]:
    failures: dict[str, str] = {}
    for index, rep in enumerate(reps):
        for check, detail in rep.failures.items():
            failures.setdefault(f"rep {index}: {check}", detail)
    accuracies = {rep.accuracy for rep in reps}
    if len(accuracies) != 1 or not all(0.0 < value <= 1.0 for value in accuracies):
        failures["accuracy repeats"] = str(sorted(accuracies))
    return failures


def _ready_workload(workloads, name: str, seed: int, tiny: bool):
    """The workload with its inputs generated, after the warm-up."""
    if tiny:
        workload = workloads.WORKLOADS[name](seed, workloads.TINY_SIZES[name])
    else:
        _warm_up(workloads, name, seed)
        workload = workloads.WORKLOADS[name](seed)
    workload.prepare()
    return workload


def measure(workloads, name: str, seed: int, seconds: float, tiny: bool) -> dict:
    """The end-to-end run: repeat for ``seconds``, report robust summaries."""
    clock = {"start": time.perf_counter()}
    workload = _ready_workload(workloads, name, seed, tiny)
    clock["warm-up and inputs"] = time.perf_counter()
    # Repetitions are planned from --seconds alone, so two versions of the
    # program are always compared over the same number of repetitions.
    planned = min(MAX_REPS, max(2, round(seconds / workload.size.rep_seconds)))
    reps = []
    setups = []
    try:
        for _ in range(planned):
            rep = workload.repetition()
            reps.append(rep)
            setups.append(rep.setup_s)
            # Extra set-ups sit between repetitions, and one more read-out of
            # the same estimate follows the first of them, so their samples
            # span the whole run rather than one stretch of host load.
            for index in range(workload.size.setups_per_rep):
                setups.append(workload.setup_only())
                if index == 0 and rep.read_out is not None:
                    rep.read_out.run()
    finally:
        workload.cleanup()
    clock["repetitions"] = time.perf_counter()

    latency_runs = [
        samples for rep in reps if rep.read_out is not None for samples in rep.read_out.runs
    ] or [rep.requests for rep in reps]
    latencies = _paired(latency_runs)
    values = {
        "answers_per_s": reps[0].answers / sum(_fastest([rep.segments_s for rep in reps])),
        "assign_p50_ms": pb_trace.percentile(latencies, 50),
        "assign_p99_ms": pb_trace.percentile(latencies, 99),
        "accuracy": reps[0].accuracy,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rep.peak_rss_mb for rep in reps),
    }
    failures = _checks(reps)
    for metric, value in values.items():
        if not (math.isfinite(value) and value > 0):
            failures[f"{metric} measured"] = str(value)
    units = _units("end_to_end")

    print(
        f"workload {name}, seed {seed}: {len(reps)} repetitions, {len(setups)} set-ups, "
        f"{len(latency_runs)} x {len(latencies)} assignment requests"
    )
    for metric, value in values.items():
        print(f"  {metric:<14} {value:>12.6g} {units[metric]}")
    print(f"  set-up s: {[round(value, 4) for value in setups]}")
    print(f"  program s per repetition: {[round(sum(rep.segments_s), 4) for rep in reps]}")
    for key, value in {**reps[-1].observed, **reps[-1].notes}.items():
        print(f"  {key}: {value:g}")
    phases = list(clock)
    print(
        "  wall s: "
        + ", ".join(
            f"{phase} {clock[phase] - clock[previous]:.1f}"
            for previous, phase in zip(phases, phases[1:])
        )
    )
    return _result(reps, failures, values, units)


def trace(workloads, name: str, seed: int, tiny: bool) -> dict:
    """The traced run: one plain and one traced repetition, per-layer table."""
    workload = _ready_workload(workloads, name, seed, tiny)
    recorder = pb_trace.SpanRecorder()
    try:
        # Unpaired: reference requests would show up in the layer table.
        plain = workload.repetition(paired=False)
        traced = workload.repetition(recorder, paired=False)
    finally:
        workload.cleanup()
    summary = pb_trace.summarize(
        recorder,
        traced.window,
        threading.get_ident(),
        quarter_bounds=traced.quarter_bounds or None,
    )
    overhead = (traced.window[1] - traced.window[0]) - (plain.window[1] - plain.window[0])
    units = _units("per_layer")
    values = dict.fromkeys(units, 0.0)
    values.update(summary.metrics)
    values.update(traced.observed)
    values["trace.overhead_s"] = overhead
    values["trace.unattributed_frac"] = summary.unattributed_frac
    reps = [plain, traced]
    failures = _checks(reps)
    if not summary.reconciled:
        failures["trace reconciles"] = f"{summary.unattributed_frac:+.2%} unattributed"
    path = recorder.write_chrome(
        workloads.OUT_DIR / f"trace-{name}-seed{seed}.json"
    )
    print(f"workload {name}, seed {seed}: traced repetition (spans in {path})")
    print(pb_trace.render(summary, overhead))
    for key, value in traced.notes.items():
        print(f"  {key}: {value:g}")
    return _result(reps, failures, values, units)


def _result(reps, failures, values, units) -> dict:
    read_outs = [rep.read_out for rep in reps if rep.read_out is not None]
    counters = [*read_outs, *(r.reference for r in read_outs if r.reference is not None)]
    for counter in counters:
        for check, detail in counter.failures.items():
            failures.setdefault(check, detail)
    for check, detail in failures.items():
        print(f"  CHECK FAILED {check}: {detail}")
    return {
        "correct": not failures,
        "attempted": sum(rep.attempted for rep in reps)
        + sum(counter.attempted for counter in counters),
        "failed": sum(rep.failed for rep in reps) + sum(counter.failed for counter in counters),
        "metrics": {
            metric: {"value": float(values[metric]), "unit": unit}
            for metric, unit in units.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("stream", "campaign", "offline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "benchmarks" / "bench_common.py").is_file():
        print(
            f"perfbench: {ROOT} is not a checkout of the repository "
            "(src/repro and benchmarks/bench_common.py are required)",
            file=sys.stderr,
        )
        return 2
    import pb_workloads

    if args.trace:
        result = trace(pb_workloads, args.workload, args.seed, args.tiny)
    else:
        result = measure(pb_workloads, args.workload, args.seed, args.seconds, args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
