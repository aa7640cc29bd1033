"""Crowdsourcing platform simulator replacing the paper's ChinaCrowds deployment.

The inference and assignment algorithms only observe (worker id, worker
locations, task id, binary label answers).  This package produces that
interaction log synthetically:

* :mod:`repro.crowd.worker_pool` — latent worker profiles (inherent quality,
  distance sensitivity, declared locations);
* :mod:`repro.crowd.answer_model` — the generative answering process, which
  samples answers from the same bell-shaped accuracy family the paper's model
  assumes (plus optional noise so the model is not handed its own data);
* :mod:`repro.crowd.arrival` — worker arrival processes (who shows up asking for
  tasks in each round);
* :mod:`repro.crowd.budget` — budget accounting (one unit per assigned task);
* :mod:`repro.crowd.platform` — the HIT lifecycle tying everything together.
"""

from repro.crowd.worker_pool import (
    ADVERSARY_ARCHETYPES,
    WorkerPool,
    WorkerPoolSpec,
    WorkerProfile,
)
from repro.crowd.answer_model import AnswerModelError, AnswerSimulator, QualityDrift
from repro.crowd.arrival import (
    ChurnArrival,
    DiurnalPattern,
    UniformRandomArrival,
    WorkerArrivalProcess,
)
from repro.crowd.budget import Budget, BudgetExhaustedError
from repro.crowd.platform import CrowdPlatform

__all__ = [
    "ADVERSARY_ARCHETYPES",
    "WorkerPool",
    "WorkerPoolSpec",
    "WorkerProfile",
    "AnswerModelError",
    "AnswerSimulator",
    "QualityDrift",
    "WorkerArrivalProcess",
    "ChurnArrival",
    "DiurnalPattern",
    "UniformRandomArrival",
    "Budget",
    "BudgetExhaustedError",
    "CrowdPlatform",
]
