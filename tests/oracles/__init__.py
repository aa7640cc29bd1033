"""Reference implementations the production engines are tested against.

Each module is the paper's math written one record, one label or one
observation at a time — slow, but close enough to the equations to read as a
specification.  The package lives with the tests because no production code
path runs it: ``src/`` keeps one engine per job, and the equivalence suites
(and the gated speed benchmarks) build one side from ``repro`` and the other
from here.

* :mod:`oracles.params` — the id-keyed parameter form the per-record
  oracles read (:class:`~oracles.params.ModelParameters` of per-entity
  dataclasses, with its one-entity-at-a-time Figure 10 measure) and its
  conversions to and from :class:`~repro.core.params.ArrayParameterStore`;
* :mod:`oracles.em` — per-record location-aware EM (Eqs. 12 and 14),
  :class:`ReferenceInference`;
* :mod:`oracles.incremental` — the per-record incremental update,
  :class:`ReferenceIncrementalUpdater`;
* :mod:`oracles.accuracy` — Section IV-B's accuracy pairs, Lemma 2's
  recursion and its exponential enumeration, and the kernel's greedy commit
  as whole-slice expressions (:func:`~oracles.accuracy.add_worker_expression`);
* :mod:`oracles.accopt` — the scalar greedy Algorithm 1,
  :class:`ReferenceAccOptAssigner`;
* :mod:`oracles.dawid_skene` — the per-observation Dawid–Skene baseline,
  :class:`ReferenceDawidSkene`;
* :mod:`oracles.distance` — the dense ``workers × tasks`` normalised-distance
  matrix, from point lists in worker blocks,
  :func:`~oracles.distance.normalised_distance_matrix`;
* :mod:`oracles.probe` — the serving frontend's trust-probe pick, one
  scalar distance per task, :func:`nearest_unanswered_task`;
* :mod:`oracles.tensor` — the answer log read back out of a tensor one row
  at a time, :func:`export_answers`;
* :mod:`oracles.validation` — the per-value probability checks and clamp the
  id-keyed parameters and the per-record EM apply.

Import with ``tests/`` on ``sys.path`` (pytest does this for the test suite;
``benchmarks/conftest.py`` does it for the benchmarks).
"""

from oracles.accopt import ReferenceAccOptAssigner
from oracles.dawid_skene import ReferenceDawidSkene
from oracles.distance import normalised_distance_matrix
from oracles.em import ReferenceInference
from oracles.incremental import ReferenceIncrementalUpdater
from oracles.probe import nearest_unanswered_task
from oracles.tensor import export_answers

__all__ = [
    "ReferenceAccOptAssigner",
    "ReferenceDawidSkene",
    "ReferenceIncrementalUpdater",
    "ReferenceInference",
    "export_answers",
    "normalised_distance_matrix",
    "nearest_unanswered_task",
]
