"""Hostile-stream scenario matrix: accuracy, throughput and detection gates.

Runs every named serving scenario (:mod:`repro.framework.scenarios`) through
the online serving subsystem at a fixed seed and writes
``benchmarks/results/BENCH_scenario_matrix.json`` — one row per scenario
(final labelling accuracy, wall-clock throughput, trust-ladder outcome,
detection precision/recall against the pool's ground-truth adversary set)
plus the three robustness gates ``check_gates.py`` re-enforces from the
artifact:

* **clean equivalence** — the all-honest scenario with the reputation
  tracker *on* must reproduce the reputation-blind run's accuracy to within
  ``1e-6``.  The tracker quarantines nobody on a clean stream, so its weights
  stay 1.0 and the two runs are bit-identical; any drift here means the trust
  layer is taxing honest traffic.
* **spam detection** — with 25% of the pool replaced by always-wrong and
  coin-flip spammers, the reputation ladder must quarantine at least 90% of
  the injected adversaries at 90%+ precision (equivalently: at most 10% of
  the quarantined set may be honest).
* **drift adaptation** — on the practice-curve drift stream (every honest
  worker starts as a near-coin novice and ramps to competence), serving with
  exponentially-decayed sufficient statistics must beat the identical stream
  served with frozen (``stat_decay=1.0``) statistics by a recorded accuracy
  margin: forgetting the misleading novice-phase evidence is the whole point
  of the decay machinery.

The matrix is deliberately small (five scenarios, ~1.5k answers each) so it
runs on every CI push next to the perf gates.
"""

from __future__ import annotations

import json
import time

from bench_common import RESULTS_DIR
from check_gates import (
    MAX_CLEAN_EQUIVALENCE_DELTA,
    MAX_SPAM_FALSE_POSITIVE_RATE,
    MIN_DRIFT_DECAYED_MARGIN,
    MIN_SPAM_DETECTION_PRECISION,
    MIN_SPAM_DETECTION_RECALL,
)

from repro.framework.scenarios import SCENARIO_NAMES, build_scenario
from repro.serving.service import OnlineServingService

SEED = 42


def _run_scenario(name: str, **overrides):
    scenario = build_scenario(name, seed=SEED, **overrides)
    service = OnlineServingService(
        platform=scenario.platform, config=scenario.config
    )
    started = time.perf_counter()
    report = service.run()
    wall = time.perf_counter() - started
    return scenario, report, wall


def _scenario_row(scenario, report, wall: float) -> dict:
    trust = report.trust
    row = {
        "description": scenario.description,
        "accuracy": report.final_accuracy,
        "answers": report.answers_ingested,
        "wall_seconds": wall,
        "answers_per_second": report.answers_ingested / wall if wall > 0 else 0.0,
        "assign_p95_ms": report.assign_p95_ms,
    }
    if trust is not None:
        pool_size = len(scenario.platform.worker_pool)
        honest = pool_size - trust.adversaries
        false_positives = trust.quarantined - trust.true_positives
        row.update(
            {
                "adversaries": trust.adversaries,
                "quarantined": trust.quarantined,
                "detection_recall": trust.detection_recall,
                "detection_precision": trust.detection_precision,
                "false_positive_rate": (
                    false_positives / honest if honest else 0.0
                ),
                "tier_transitions": trust.transitions,
                "blocked_requests": trust.blocked_requests,
                "rejected_events": trust.rejected_events,
            }
        )
    return row


def test_scenario_matrix_gates():
    rows: dict[str, dict] = {}
    for name in SCENARIO_NAMES:
        scenario, report, wall = _run_scenario(name)
        rows[name] = _scenario_row(scenario, report, wall)

    # Control arms for the two differential gates.
    _, blind_report, _ = _run_scenario("clean", reputation=False)
    _, frozen_report, _ = _run_scenario("drift", stat_decay=1.0)

    clean_delta = abs(rows["clean"]["accuracy"] - blind_report.final_accuracy)
    drift_margin = rows["drift"]["accuracy"] - frozen_report.final_accuracy

    payload = {
        "seed": SEED,
        "scenarios": rows,
        "clean_reputation_blind_accuracy": blind_report.final_accuracy,
        "clean_equivalence_delta": clean_delta,
        "max_clean_equivalence_delta": MAX_CLEAN_EQUIVALENCE_DELTA,
        "spam_detection_recall": rows["spam"]["detection_recall"],
        "min_spam_detection_recall": MIN_SPAM_DETECTION_RECALL,
        "spam_detection_precision": rows["spam"]["detection_precision"],
        "min_spam_detection_precision": MIN_SPAM_DETECTION_PRECISION,
        "spam_false_positive_rate": rows["spam"]["false_positive_rate"],
        "max_spam_false_positive_rate": MAX_SPAM_FALSE_POSITIVE_RATE,
        "drift_decayed_accuracy": rows["drift"]["accuracy"],
        "drift_frozen_accuracy": frozen_report.final_accuracy,
        "drift_decayed_margin": drift_margin,
        "min_drift_decayed_margin": MIN_DRIFT_DECAYED_MARGIN,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / "BENCH_scenario_matrix.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\n=== scenario_matrix ===\n{json.dumps(payload, indent=2)}\n")

    assert clean_delta <= MAX_CLEAN_EQUIVALENCE_DELTA, (
        "reputation tracking perturbed the clean stream: "
        f"accuracy delta {clean_delta} vs the reputation-blind arm"
    )
    assert rows["spam"]["detection_recall"] >= MIN_SPAM_DETECTION_RECALL, (
        f"spam recall {rows['spam']['detection_recall']:.2f} "
        f"below {MIN_SPAM_DETECTION_RECALL}"
    )
    assert rows["spam"]["detection_precision"] >= MIN_SPAM_DETECTION_PRECISION, (
        f"spam precision {rows['spam']['detection_precision']:.2f} "
        f"below {MIN_SPAM_DETECTION_PRECISION}"
    )
    assert (
        rows["spam"]["false_positive_rate"] <= MAX_SPAM_FALSE_POSITIVE_RATE
    ), (
        f"spam false-positive rate {rows['spam']['false_positive_rate']:.2f} "
        f"above {MAX_SPAM_FALSE_POSITIVE_RATE}"
    )
    assert drift_margin > MIN_DRIFT_DECAYED_MARGIN, (
        f"decayed statistics did not beat frozen on the drift stream "
        f"(margin {drift_margin:+.4f})"
    )
