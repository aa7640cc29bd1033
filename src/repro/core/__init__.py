"""The paper's core contribution.

* :mod:`repro.core.distance_functions` — the bell-shaped distance quality
  functions ``f_λ(d) = (1 + e^{-λ d²}) / 2`` and the fixed distance-function set
  ``F`` (Definitions 3–4).
* :mod:`repro.core.params` — the model parameters ``P(z_{t,k})``,
  ``P(i_w)``, ``P(d_w)`` and ``P(d_t)`` in one row-aligned, array-backed
  estimate type (:class:`~repro.core.params.ArrayParameterStore`) with id
  accessors that give unseen entities the footnote-3 priors.
* :mod:`repro.core.inference` — the location-aware graphical model and its EM
  parameter estimation (Section III).
* :mod:`repro.core.em_kernel` — the batched NumPy EM engine every fit and
  incremental update runs on.
* :mod:`repro.core.incremental` — the incremental EM update applied between
  full re-runs (Section III-D).
* :mod:`repro.core.accuracy_kernel` — the batched ΔAcc scoring kernels for
  hypothetical assignments (Equations 15–20, Lemmas 1–2) that AccOpt runs on.
* :mod:`repro.core.assignment` — the :class:`TaskAssigner` interface shared by
  every assignment strategy (the AccOpt implementation itself lives in
  :mod:`repro.assign.accopt`).

Each job has one production engine.  The per-record / per-label
specifications these engines are equivalence-tested against (EM, the
incremental update, Section IV-B's accuracy pairs) live with the tests, in
``tests/oracles/``, together with the id-keyed parameter form they read.
"""

from repro.core.distance_functions import (
    BellShapedFunction,
    DistanceFunctionSet,
    PAPER_FUNCTION_SET,
)
from repro.core.params import ArrayParameterStore
from repro.core.em_kernel import AnswerTensor
from repro.core.inference import (
    EM_ENGINES,
    InferenceConfig,
    InferenceResult,
    LocationAwareInference,
)
from repro.core.incremental import IncrementalUpdater
from repro.core.assignment import TaskAssigner


__all__ = [
    "BellShapedFunction",
    "DistanceFunctionSet",
    "PAPER_FUNCTION_SET",
    "AnswerTensor",
    "ArrayParameterStore",
    "EM_ENGINES",
    "InferenceConfig",
    "InferenceResult",
    "LocationAwareInference",
    "IncrementalUpdater",
    "TaskAssigner",
]
