"""Fixtures for the benchmark harness.

Every figure and table of the paper's evaluation section has one benchmark
module in this directory.  Each module both *times* the relevant computation
(via pytest-benchmark) and *prints / writes* the series or table the paper
reports (under ``benchmarks/results/``), so the reproduction can be read side
by side with the paper.

Two profiles are supported, selected with the ``REPRO_BENCH_PROFILE``
environment variable:

* ``quick`` (default) — scaled-down budgets so the whole harness finishes in
  minutes; the *shape* of every result is preserved.
* ``paper`` — the paper's sizes (1000-assignment budgets, 10k–50k-assignment
  scalability runs, both datasets everywhere).

The figure sweeps accept ``--jobs N`` (or ``REPRO_BENCH_JOBS=N``) to fan the
independent sweep units out over a process pool — results are identical to
the serial run, only the bench wall-clock changes.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# The gated speed benches time production code against the reference
# implementations in tests/oracles/.
sys.path.insert(1, str(Path(__file__).parent.parent / "tests"))

from bench_common import (  # noqa: E402  (path bootstrap above)
    BenchProfile,
    Campaign,
    collect_campaign,
    current_profile,
)

from repro.crowd.worker_pool import WorkerPoolSpec  # noqa: E402
from repro.data.generators import (  # noqa: E402
    generate_beijing_dataset,
    generate_china_dataset,
)
from repro.framework.experiment import build_worker_pool  # noqa: E402


def pytest_addoption(parser):
    parser.addoption(
        "--jobs",
        type=int,
        default=None,
        help=(
            "fan the figure sweeps (compare_inference_models / "
            "compare_assigners) out over this many worker processes "
            "(default: REPRO_BENCH_JOBS, else serial)"
        ),
    )


@pytest.fixture(scope="session")
def profile(request) -> BenchProfile:
    return current_profile(jobs=request.config.getoption("--jobs"))


@pytest.fixture(scope="session")
def beijing_campaign(profile: BenchProfile) -> Campaign:
    """The Beijing dataset with five answers per task (Deployment 1)."""
    return collect_campaign(generate_beijing_dataset(seed=7), profile)


@pytest.fixture(scope="session")
def china_campaign(profile: BenchProfile) -> Campaign:
    """The China dataset with five answers per task (Deployment 1)."""
    return collect_campaign(generate_china_dataset(seed=11), profile)


@pytest.fixture(scope="session")
def campaigns(profile: BenchProfile, beijing_campaign: Campaign, china_campaign: Campaign):
    """Both Deployment-1 corpora, keyed by dataset name."""
    return {"Beijing": beijing_campaign, "China": china_campaign}


@pytest.fixture(scope="session")
def inference_comparisons(profile: BenchProfile, campaigns):
    """Figure 9 / 12 data: MV vs EM vs IM accuracy and runtime per budget.

    Computed once per session and shared by the accuracy bench (Figure 9) and
    the runtime bench (Figure 12).  In the quick profile only Beijing is run;
    the paper profile runs both datasets.
    """
    from repro.framework.experiment import (
        compare_inference_models,
        default_inference_factories,
    )

    names = ["Beijing", "China"] if profile.name == "paper" else ["Beijing"]
    results = {}
    for name in names:
        campaign = campaigns[name]
        budgets = [b for b in profile.inference_budgets if b <= len(campaign.answers)]
        factories = default_inference_factories(
            campaign.dataset, campaign.worker_pool, campaign.distance_model
        )
        results[name] = compare_inference_models(
            campaign.dataset,
            campaign.answers,
            budgets,
            factories,
            seed=profile.seed,
            jobs=profile.jobs,
        )
    return results


@pytest.fixture(scope="session")
def assignment_comparisons(profile: BenchProfile):
    """Figure 11 / Table II data: Random vs SF vs AccOpt campaigns.

    Runs the full online framework once per assignment strategy.  Quick profile
    uses a reduced budget on Beijing only; the paper profile reproduces the
    1000-assignment deployments on both datasets.
    """
    from repro.core.inference import InferenceConfig
    from repro.framework.config import FrameworkConfig
    from repro.framework.experiment import compare_assigners

    names = ["Beijing", "China"] if profile.name == "paper" else ["Beijing"]
    datasets = {
        "Beijing": generate_beijing_dataset(seed=7),
        "China": generate_china_dataset(seed=11),
    }
    config = FrameworkConfig(
        budget=profile.assignment_budget,
        tasks_per_worker=2,
        workers_per_round=profile.workers_per_round,
        evaluation_checkpoints=profile.assignment_checkpoints,
        full_refresh_interval=100,
        inference=InferenceConfig(max_iterations=40),
    )
    results = {}
    for name in names:
        dataset = datasets[name]
        pool = build_worker_pool(
            dataset,
            spec=WorkerPoolSpec(num_workers=profile.num_workers),
            seed=profile.seed,
        )
        results[name] = compare_assigners(
            dataset, config, worker_pool=pool, seed=profile.seed, jobs=profile.jobs
        )
    return results
