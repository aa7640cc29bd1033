"""Serving telemetry: phase-attributed traces and the metrics registry.

Runs one online serving session with the unified telemetry substrate
(:mod:`repro.obs`) fully enabled — the programmatic equivalent of::

    repro-poi serve-sim --metrics-dir DIR --metrics-interval 5 --trace \
        --metrics-summary

and then shows how to *read* the three things the instrumentation answers:

1. **Where does the wall time go as the stream ages?**  The report's phase
   breakdown splits the stream into quarters and attributes each quarter's
   wall clock to pipeline stages (guard / journal / apply / refresh /
   publish / assign).  A growing ``refresh`` share late in the stream is the
   throughput-decay signature; a growing ``apply`` share means the
   incremental updates themselves are the cost.
2. **What did each component do?**  Counters and histograms land in one
   :class:`~repro.obs.metrics.MetricsRegistry` — journal append latency
   (fsync-labelled), snapshot publishes, EM sweeps and early-exited
   entities, assignment latency percentiles from exact bounded histograms.
3. **What happened, span by span?**  With tracing on, the most recent spans
   are retained in a bounded ring and exported as Chrome ``trace_event``
   JSON — load ``trace.json`` in ``chrome://tracing`` or Perfetto to see the
   pipeline lane by lane.

Run with::

    python examples/serving_telemetry.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from repro import generate_beijing_dataset
from repro.framework.experiment import build_platform, build_worker_pool
from repro.serving import IngestConfig, OnlineServingService, ServingConfig

BUDGET = 240


def main() -> None:
    dataset = generate_beijing_dataset(seed=7)
    pool = build_worker_pool(dataset, seed=2016)
    platform = build_platform(
        dataset, budget=BUDGET, worker_pool=pool, workers_per_round=5, seed=2016
    )

    metrics_dir = Path(tempfile.mkdtemp(prefix="serving-telemetry-"))
    config = ServingConfig(
        ingest=IngestConfig(max_batch_answers=32, full_refresh_interval=120),
        seed=2016,
        metrics_dir=metrics_dir,
        metrics_interval=5,
        trace=True,
    )
    service = OnlineServingService(platform, config=config)
    try:
        report = service.run()
    finally:
        service.close()

    print(report.summary())

    # 1. The phase breakdown, programmatically: which stage dominates the
    #    final stream quarter, and how much wall time the spans explain.
    phases = report.phases
    last = phases.quarters[-1]
    dominant = max(phases.stages, key=last.share)
    print(
        f"\nlast-quarter dominant stage: {dominant} "
        f"({last.share(dominant):.0%} of that quarter's wall time); "
        f"spans attribute {phases.attributed_fraction:.0%} of the run overall"
    )

    # 2. The registry: exact-count histograms and component counters.
    metrics = service.metrics
    assign = metrics.get("assign_latency_seconds")
    print(
        f"assignment latency from the registry histogram: "
        f"p50 {assign.percentile(50.0) * 1e3:.2f} ms, "
        f"p95 {assign.percentile(95.0) * 1e3:.2f} ms "
        f"over {assign.count} requests"
    )
    publishes = metrics.get("snapshot_publishes_total")
    print(f"snapshot publishes: {int(publishes.value) if publishes else 0}")

    # 3. The on-disk artifacts the CLI flags produce.
    snapshots = [
        json.loads(line)
        for line in (metrics_dir / "metrics.jsonl").read_text().splitlines()
    ]
    trace_events = json.loads((metrics_dir / "trace.json").read_text())
    print(
        f"\nexported to {metrics_dir}: {len(snapshots)} metrics.jsonl snapshots "
        f"(stamped with rounds/answers), metrics.prom, and trace.json with "
        f"{len(trace_events['traceEvents'])} span events "
        f"(open in chrome://tracing or Perfetto)"
    )


if __name__ == "__main__":
    main()
