"""One production engine per job: the reference engines stay out of ``repro``.

EM, the incremental update, AccOpt scoring and Dawid–Skene each run one
production engine; their per-record / scalar specifications live in
``tests/oracles/`` and are reached only from tests and benchmarks.  These
tests pin that:

* every switch that used to select a reference path refuses ``"reference"``
  with a typed error naming the choices that remain;
* settings that no longer exist are rejected as unknown keywords;
* importing ``repro`` and every submodule never loads the oracles, and the
  scalar accuracy module is gone from the package;
* each oracle replaces exactly the production method it specifies.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from oracles import (
    ReferenceAccOptAssigner,
    ReferenceDawidSkene,
    ReferenceIncrementalUpdater,
    ReferenceInference,
)
from repro.assign import ACCOPT_ENGINES, build_assigner
from repro.assign.accopt import AccOptAssigner
from repro.baselines.dawid_skene import DawidSkeneInference
from repro.cli import main
from repro.core.incremental import IncrementalUpdater
from repro.core.inference import EM_ENGINES, InferenceConfig, LocationAwareInference
from repro.framework.experiment import default_assigner_factories
from repro.serving import IngestConfig, ServingConfig

REMAINING = ("vectorized", "sparse")


def test_engine_sets_hold_only_production_engines():
    assert EM_ENGINES == ACCOPT_ENGINES == REMAINING


def _inference_config(dataset, pool, distance_model):
    return InferenceConfig(engine="reference")


def _build_assigner(dataset, pool, distance_model):
    return build_assigner(
        "accopt",
        dataset.tasks,
        pool.workers,
        distance_model=distance_model,
        engine="reference",
    )


def _accopt_assigner(dataset, pool, distance_model):
    return AccOptAssigner(
        dataset.tasks, pool.workers, distance_model, engine="reference"
    )


def _serving_config(dataset, pool, distance_model):
    return ServingConfig(assigner_engine="reference")


@pytest.mark.parametrize(
    "construct",
    [_inference_config, _build_assigner, _accopt_assigner, _serving_config],
    ids=["InferenceConfig", "build_assigner", "AccOptAssigner", "ServingConfig"],
)
def test_reference_engine_is_rejected_with_the_remaining_choices(
    construct, small_dataset, worker_pool, distance_model
):
    with pytest.raises(ValueError) as excinfo:
        construct(small_dataset, worker_pool, distance_model)
    message = str(excinfo.value)
    assert "'reference'" in message
    assert all(repr(engine) in message for engine in REMAINING), message


@pytest.mark.parametrize("subcommand", ["campaign", "serve-sim"])
def test_cli_rejects_reference_assigner_engine(subcommand, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([subcommand, "--assigner-engine", "reference"])
    assert excinfo.value.code == 2  # argparse usage error
    error = capsys.readouterr().err
    assert "invalid choice: 'reference'" in error
    assert all(repr(engine) in error for engine in REMAINING), error


@pytest.mark.parametrize(
    "construct",
    [
        lambda model: IngestConfig(sufficient_stats=True),
        lambda model: IngestConfig(settle_defer_batches=2),
        lambda model: IngestConfig(local_convergence_threshold=0.005),
        lambda model: IncrementalUpdater(model, sufficient_stats=True),
        lambda model: IncrementalUpdater(model, settle_defer_batches=2),
        lambda model: default_assigner_factories(
            None, None, None, accopt_engine="vectorized"
        ),
    ],
    ids=[
        "IngestConfig.sufficient_stats",
        "IngestConfig.settle_defer_batches",
        "IngestConfig.local_convergence_threshold",
        "IncrementalUpdater.sufficient_stats",
        "IncrementalUpdater.settle_defer_batches",
        "default_assigner_factories.accopt_engine",
    ],
)
def test_removed_settings_are_unknown_keywords(
    construct, small_dataset, worker_pool, distance_model
):
    model = LocationAwareInference(
        small_dataset.tasks, worker_pool.workers, distance_model
    )
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        construct(model)


def test_importing_repro_never_loads_the_oracles():
    # The oracles are importable in the child (tests/ is on its path), so any
    # production import of them would succeed — and show up in sys.modules.
    code = (
        "import importlib, pkgutil, sys\n"
        "import repro\n"
        "for module in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    importlib.import_module(module.name)\n"
        "leaked = sorted(n for n in sys.modules if n.split('.')[0] == 'oracles')\n"
        "assert not leaked, leaked\n"
    )
    src = Path(repro.__file__).resolve().parents[1]
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(tests)]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_scalar_accuracy_module_left_the_package():
    assert importlib.util.find_spec("repro.core.accuracy") is None


@pytest.mark.parametrize(
    "oracle, production, method",
    [
        (ReferenceInference, LocationAwareInference, "run_em"),
        (ReferenceIncrementalUpdater, IncrementalUpdater, "apply"),
        (ReferenceAccOptAssigner, AccOptAssigner, "assign"),
        (ReferenceDawidSkene, DawidSkeneInference, "_run_em"),
    ],
    ids=["em", "incremental", "accopt", "dawid_skene"],
)
def test_each_oracle_replaces_its_production_method(oracle, production, method):
    assert issubclass(oracle, production)
    assert getattr(oracle, method) is not getattr(production, method)
