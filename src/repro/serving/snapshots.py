"""Versioned, immutable parameter snapshots for the online serving path.

The ingestion layer mutates the inference model continuously (incremental EM
between periodic full re-fits), but the assignment frontend must never observe
a half-applied update.  :class:`SnapshotStore` decouples the two with a
copy-on-write publish protocol:

* :meth:`SnapshotStore.publish` is the only way an estimate reaches readers:
  it freezes a full copy of the
  :class:`~repro.core.params.ArrayParameterStore` (every array read-only) and
  stamps it with a monotonically increasing version id — writers keep
  mutating their own store, readers keep whatever version they already hold.
  A writer that built the store for this publish alone hands it over with
  ``copy=False`` (the ingestion layer does, on every flush);
* retention is bounded (:attr:`SnapshotStore.max_snapshots`): publishing past
  the cap drops the oldest versions, mirroring a production parameter server
  that keeps a short history for rollback;
* :meth:`ParameterSnapshot.save` / :func:`load_snapshot` persist a snapshot to
  disk as a plain ``.npz`` archive (no pickling) so a service can restore its
  parameters across restarts; versions keep increasing across a restore.
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.core.em_kernel import AnswerColumns
from repro.core.params import ArrayParameterStore
from repro.data.io import (
    task_from_entry,
    task_to_entry,
    worker_from_entry,
    worker_to_entry,
)
from repro.data.models import Task, Worker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.inference import LocationAwareInference
    from repro.obs.metrics import MetricsRegistry


class ParameterSnapshot:
    """One immutable, versioned copy of all model parameters.

    :attr:`store` is a frozen :class:`~repro.core.params.ArrayParameterStore`
    (every array read-only) that no writer holds.  The assignment frontend
    hands it to its task assigner; read-outs go through the store's id
    accessors.
    """

    __slots__ = (
        "version",
        "store",
        "published_at",
        "published_wall",
        "source",
    )

    def __init__(
        self,
        version: int,
        store: ArrayParameterStore,
        published_at: float = 0.0,
        source: str = "publish",
    ) -> None:
        if version < 0:
            raise ValueError(f"version must be non-negative, got {version}")
        self.version = version
        self.store = store
        self.published_at = published_at
        #: Monotonic wall-clock stamp of creation, for snapshot-age-at-serve.
        self.published_wall = time.monotonic()
        self.source = source

    def __repr__(self) -> str:
        return (
            f"ParameterSnapshot(version={self.version}, "
            f"workers={self.store.num_workers}, tasks={self.store.num_tasks}, "
            f"source={self.source!r})"
        )

    def as_model(self) -> ArrayParameterStore:
        """:attr:`store` (kept for callers of the former dict view)."""
        return self.store

    def save(self, path: str | Path) -> Path:
        """Persist the snapshot (parameters + version metadata) as ``.npz``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = self.store.to_npz_dict()
        payload["snapshot_version"] = np.asarray(self.version, dtype=np.int64)
        payload["published_at"] = np.asarray(self.published_at, dtype=float)
        with open(path, "wb") as handle:
            np.savez(handle, **payload)
        return path


def load_snapshot(path: str | Path) -> ParameterSnapshot:
    """Restore a snapshot written by :meth:`ParameterSnapshot.save`.

    The archive is integrity-checked on the way in (readable ``.npz``, all
    required arrays present, the store's ragged layout and probability ranges
    coherent); any violation raises
    :class:`~repro.serving.SnapshotIntegrityError` naming the file, instead
    of handing a half-read store to the serving path.
    """
    from repro.serving import SnapshotIntegrityError

    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            store = ArrayParameterStore.from_npz_dict(data).validate()
            version = int(np.asarray(data["snapshot_version"]))
            published_at = float(np.asarray(data["published_at"]))
    except SnapshotIntegrityError:
        raise
    except Exception as error:
        raise SnapshotIntegrityError(
            f"snapshot file {path} is unreadable or inconsistent: {error}. "
            "The file is corrupt or was not written by ParameterSnapshot.save; "
            "restore it from a backup or republish a snapshot."
        ) from error
    return ParameterSnapshot(
        version=version, store=store.freeze(), published_at=published_at, source="restore"
    )


class SnapshotStore:
    """Bounded history of published parameter snapshots, newest last."""

    def __init__(
        self,
        max_snapshots: int = 8,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        if max_snapshots <= 0:
            raise ValueError(f"max_snapshots must be positive, got {max_snapshots}")
        self._max_snapshots = max_snapshots
        self._metrics = metrics
        self._snapshots: list[ParameterSnapshot] = []
        self._next_version = 0
        # One writer (the ingest thread) and many readers (assignment
        # frontends, the pipelined refresh worker's launch site): every
        # publish/adopt and every history read holds this.
        self._mutex = threading.Lock()
        # Degraded mode: set by the ingestion supervisor when updates keep
        # failing; readers keep serving the latest retained snapshot and the
        # frontend counts those serves as stale instead of raising.
        self._degraded_reason: str | None = None
        self._degraded_marks = 0

    def __len__(self) -> int:
        return len(self._snapshots)

    @property
    def max_snapshots(self) -> int:
        return self._max_snapshots

    @property
    def versions(self) -> list[int]:
        """Retained version ids, oldest first (strictly increasing)."""
        return [snapshot.version for snapshot in self._snapshots]

    @property
    def next_version(self) -> int:
        return self._next_version

    def bind_metrics(self, metrics: "MetricsRegistry") -> None:
        """Mirror publishes and degraded marks into ``metrics``."""
        self._metrics = metrics

    def publish(
        self,
        store: ArrayParameterStore,
        published_at: float = 0.0,
        source: str = "publish",
        copy: bool = True,
    ) -> ParameterSnapshot:
        """Copy-on-write publish of ``store`` as the next version.

        With ``copy=True`` (the default) the caller's store stays writable and
        is never aliased: the snapshot owns a frozen copy, so a reader holding
        version ``v`` is unaffected by any update applied after ``v`` was
        published.  A caller handing over a store it will never touch again
        (the ingestion layer's full-publish path) can pass ``copy=False`` to
        transfer ownership and skip the copy; the store is frozen in place
        either way.
        """
        with self._mutex:
            snapshot = ParameterSnapshot(
                version=self._next_version,
                store=(store.copy() if copy else store).freeze(),
                published_at=published_at,
                source=source,
            )
            if self._metrics is not None:
                self._metrics.counter("snapshot_publishes_total").inc()
            self._next_version = snapshot.version + 1
            return self._append(snapshot)

    def _append(self, snapshot: ParameterSnapshot) -> ParameterSnapshot:
        self._snapshots.append(snapshot)
        if len(self._snapshots) > self._max_snapshots:
            del self._snapshots[: len(self._snapshots) - self._max_snapshots]
        return snapshot

    def adopt(self, snapshot: ParameterSnapshot) -> ParameterSnapshot:
        """Insert a restored snapshot and keep versions monotonic.

        Used when a service restarts from disk: the loaded snapshot keeps its
        original version id and every later publish strictly increases from
        there.
        """
        with self._mutex:
            if self._snapshots and snapshot.version <= self._snapshots[-1].version:
                raise ValueError(
                    f"cannot adopt version {snapshot.version}: latest retained "
                    f"version is {self._snapshots[-1].version}"
                )
            self._next_version = max(self._next_version, snapshot.version + 1)
            return self._append(snapshot)

    # ---------------------------------------------------------- degraded mode
    @property
    def degraded(self) -> bool:
        """Whether the writer declared the latest snapshot stale (updates failing)."""
        return self._degraded_reason is not None

    @property
    def degraded_reason(self) -> str | None:
        return self._degraded_reason

    @property
    def degraded_marks(self) -> int:
        """How many times the store entered degraded mode over its lifetime."""
        return self._degraded_marks

    def mark_degraded(self, reason: str) -> None:
        """Declare the retained snapshots stale: the update path is failing.

        Readers are *not* cut off — the whole point of degraded mode is that
        the last good snapshot keeps serving — but the frontend counts serves
        made in this state (``FrontendStats.stale_serves``).  Idempotent while
        already degraded (one failure storm is one mark).
        """
        with self._mutex:
            if self._degraded_reason is None:
                self._degraded_marks += 1
                if self._metrics is not None:
                    self._metrics.counter("snapshot_degraded_marks_total").inc()
            self._degraded_reason = reason

    def clear_degraded(self) -> None:
        """Leave degraded mode: a publish succeeded, snapshots are fresh again."""
        self._degraded_reason = None

    def latest(self) -> ParameterSnapshot | None:
        """The most recently published snapshot, or ``None`` before the first."""
        with self._mutex:
            return self._snapshots[-1] if self._snapshots else None

    def get(self, version: int) -> ParameterSnapshot:
        """The retained snapshot with exactly ``version``; ``KeyError`` if evicted."""
        with self._mutex:
            for snapshot in reversed(self._snapshots):
                if snapshot.version == version:
                    return snapshot
            raise KeyError(
                f"snapshot version {version} is not retained "
                f"(have {self.versions}, retention {self._max_snapshots})"
            )


@dataclass
class CheckpointState:
    """Everything a checkpoint persists to rebuild the live serving state.

    ``store`` is the latest *published* snapshot's parameter store (live rows
    plus carried-over entities), ``columns`` are the live tensor's
    :meth:`~repro.core.em_kernel.AnswerTensor.columns` (rebuilding a tensor
    from them is array-for-array equal to the crashed run's), and
    ``workers``/``tasks`` carry the metadata of the entities the inference
    model *learned* after it was built, in registration order
    (:meth:`~repro.core.inference.LocationAwareInference.learned_entities`):
    a resumed session re-registers them on top of the startup universe its
    caller supplies, whose :attr:`startup_digest` the archive records.
    ``journal_seq`` is the newest journal record reflected in this state;
    recovery replays strictly after it.  ``arrival_epochs`` (row-aligned
    with ``columns``) and ``decay_epoch`` are the decayed-statistic ages,
    ``None`` when decay is off.
    """

    store: ArrayParameterStore
    journal_seq: int
    snapshot_version: int
    published_at: float
    columns: AnswerColumns
    #: :attr:`~repro.core.inference.LocationAwareInference.startup_digest`
    #: of the model that wrote the checkpoint.
    startup_digest: str
    workers: list[Worker] = field(default_factory=list)
    tasks: list[Task] = field(default_factory=list)
    answers_since_full_refresh: int = 0
    counters: dict = field(default_factory=dict)
    decay_epoch: int = 0
    arrival_epochs: np.ndarray | None = None
    #: Free-form JSON-serializable state carried by optional subsystems
    #: (reputation tiers, guard quarantine totals).
    extra: dict = field(default_factory=dict)


#: Version of the checkpoint archive layout; :meth:`CheckpointManager.load`
#: refuses any other.
CHECKPOINT_FORMAT = 3

#: Archive key of each answer column, and the dtype it is stored as.
_COLUMN_KEYS = {
    "worker_ids": ("answers_worker_ids", np.str_),
    "task_ids": ("answers_task_ids", np.str_),
    "num_labels": ("answers_num_labels", np.int64),
    "a_worker": ("answers_a_worker", np.int64),
    "a_task": ("answers_a_task", np.int64),
    "responses": ("answers_responses", np.int8),
}


#: Compact JSON for checkpoint text; the encoded values are plain trees.
_JSON = json.JSONEncoder(separators=(",", ":"), check_circular=False)


def _json_bytes(value: object) -> np.ndarray:
    """``value`` as compact JSON text in a ``uint8`` array (1 byte per char)."""
    return np.frombuffer(_JSON.encode(value).encode("utf-8"), dtype=np.uint8)


def _json_list_bytes(items: Sequence, to_entry: Callable[[object], dict]) -> np.ndarray:
    """The JSON list of ``to_entry(item)`` over ``items``, 128 entries at a time.

    Only one chunk of entries is alive at once, so encoding thousands of
    them never promotes their short-lived containers into the garbage
    collector's oldest generation (whose full collection, triggered inside
    a save, cost more than the encoding itself).
    """
    chunks = (
        _JSON.encode([to_entry(item) for item in items[start : start + 128]])[1:-1]
        for start in range(0, len(items), 128)
    )
    text = "[" + ",".join(chunks) + "]"
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8)


def _array(data: "np.lib.npyio.NpzFile", key: str, dtype, ndim: int = 1) -> np.ndarray:
    """Archive member ``key``, refused unless it has ``dtype`` and ``ndim``."""
    if key not in data.files:
        raise ValueError(f"missing array {key!r}")
    array = data[key]
    kind_ok = (
        array.dtype.kind == "U" if dtype is np.str_ else array.dtype == np.dtype(dtype)
    )
    if not kind_ok or array.ndim != ndim:
        raise ValueError(
            f"array {key!r} is {array.dtype} with shape {array.shape}, expected "
            f"{np.dtype(dtype)} with {ndim} dimension(s)"
        )
    return array


def _json_array(data: "np.lib.npyio.NpzFile", key: str) -> object:
    return json.loads(_array(data, key, np.uint8).tobytes().decode("utf-8"))


def _scalar(data: "np.lib.npyio.NpzFile", key: str, dtype) -> np.ndarray:
    return _array(data, key, dtype, ndim=0)[()]


def _load_columns(data: "np.lib.npyio.NpzFile") -> AnswerColumns:
    arrays = {
        name: _array(data, key, dtype) for name, (key, dtype) in _COLUMN_KEYS.items()
    }
    return AnswerColumns(
        worker_ids=tuple(arrays.pop("worker_ids").tolist()),
        task_ids=tuple(arrays.pop("task_ids").tolist()),
        **arrays,
    ).validate()


def _check_columns(state: CheckpointState, inference: "LocationAwareInference") -> None:
    """Cross-check the columns against the universe they restore into.

    That universe is ``inference``'s startup registries plus the
    checkpoint's learned entities.
    """
    columns = state.columns
    labels = {task_id: task.num_labels for task_id, task in inference.tasks.items()}
    labels.update((task.task_id, task.num_labels) for task in state.tasks)
    for task_id, count in zip(columns.task_ids, columns.num_labels.tolist()):
        if labels.get(task_id) != count:
            raise ValueError(
                f"tensor task {task_id!r} has {count} labels, the restored "
                f"universe {labels.get(task_id)}"
            )
    known = inference.workers.keys() | {worker.worker_id for worker in state.workers}
    unknown = [worker_id for worker_id in columns.worker_ids if worker_id not in known]
    if unknown:
        raise ValueError(
            f"tensor worker {unknown[0]!r} is not in the restored universe"
        )
    if state.arrival_epochs is not None and state.arrival_epochs.shape != (
        columns.num_answers,
    ):
        raise ValueError(
            f"arrival_epochs has shape {state.arrival_epochs.shape}, the "
            f"columns {columns.num_answers} rows"
        )


class CheckpointManager:
    """Durable, CRC-guarded checkpoints with bounded retention.

    One checkpoint is a single ``.npz`` archive and a ``.crc`` sidecar holding
    the CRC32 of the archive bytes.  The archive holds the parameter store's
    arrays, the live tensor's answer columns (id tables, per-task label
    counts, per-answer worker/task indices, ``int8`` responses), the decay
    arrival epochs, scalars, the startup universe's digest, and UTF-8 JSON
    bytes for the metadata of the entities learned after startup (the
    journal's entry codec) and the small counter/extra dicts; nothing in it
    is per-answer text, and a save or load costs O(learned entities) in
    metadata, none for a closed-world run.  :meth:`save` encodes the archive
    in memory, takes its CRC from those bytes and writes archive-then-sidecar,
    so a crash mid-checkpoint leaves a file that fails its CRC (or has none)
    and is skipped by :meth:`load_latest` — falling back to the previous
    checkpoint rather than restoring garbage.  :meth:`load` also refuses
    archives of another :data:`CHECKPOINT_FORMAT` and columns that fail
    validation against the universe they restore into.

    ``fsync=True`` (the journal's fsync policy) makes each save durable
    against OS crashes: archive, sidecar and directory are fsync'd before
    older checkpoints are pruned, and so before the ingestor truncates the
    journal segments the new checkpoint covers.
    """

    def __init__(
        self, directory: str | Path, keep: int = 3, fsync: bool = False
    ) -> None:
        if keep <= 0:
            raise ValueError(f"keep must be positive, got {keep}")
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._keep = keep
        self._fsync = fsync
        self.saves = 0

    @property
    def directory(self) -> Path:
        return self._directory

    def checkpoint_paths(self) -> list[Path]:
        """Existing checkpoint archives, oldest first."""
        return sorted(self._directory.glob("ckpt-*.npz"))

    def oldest_covered_seq(self) -> int:
        """Journal seq covered by the *oldest retained* checkpoint (0 if none).

        The journal may only be truncated up to this point: recovery skips
        corrupt checkpoints newest-first, so every retained checkpoint must
        still find its journal tail intact to be a usable fallback.
        """
        paths = self.checkpoint_paths()
        if not paths:
            return 0
        try:
            return int(paths[0].stem.split("-", 1)[1])
        except (IndexError, ValueError):
            return 0

    def save(self, state: CheckpointState) -> Path:
        """Persist ``state`` as ``ckpt-<journal_seq>.npz`` (+ CRC sidecar)."""
        path = self._directory / f"ckpt-{state.journal_seq:010d}.npz"
        payload = state.store.to_npz_dict()
        payload["format"] = np.asarray(CHECKPOINT_FORMAT, dtype=np.int64)
        payload["journal_seq"] = np.asarray(state.journal_seq, dtype=np.int64)
        payload["snapshot_version"] = np.asarray(
            state.snapshot_version, dtype=np.int64
        )
        payload["published_at"] = np.asarray(state.published_at, dtype=float)
        payload["answers_since_full_refresh"] = np.asarray(
            state.answers_since_full_refresh, dtype=np.int64
        )
        for name, (key, dtype) in _COLUMN_KEYS.items():
            payload[key] = np.asarray(getattr(state.columns, name), dtype=dtype)
        if state.arrival_epochs is not None:
            payload["decay_epoch"] = np.asarray(state.decay_epoch, dtype=np.int64)
            payload["arrival_epochs"] = np.asarray(
                state.arrival_epochs, dtype=np.int64
            )
        payload["startup_digest"] = np.asarray(state.startup_digest, dtype=np.str_)
        payload["workers_json"] = _json_list_bytes(state.workers, worker_to_entry)
        payload["tasks_json"] = _json_list_bytes(state.tasks, task_to_entry)
        payload["counters_json"] = _json_bytes(state.counters)
        payload["extra_json"] = _json_bytes(state.extra)
        archive = io.BytesIO()
        np.savez(archive, **payload)
        data = archive.getbuffer()
        sidecar = path.with_suffix(".npz.crc")
        self._write(path, data)
        self._write(sidecar, f"{zlib.crc32(data):08x}\n".encode("ascii"))
        if self._fsync:
            descriptor = os.open(self._directory, os.O_RDONLY)
            try:
                os.fsync(descriptor)
            finally:
                os.close(descriptor)
        self.saves += 1
        self._prune()
        return path

    def _write(self, path: Path, data: bytes | memoryview) -> None:
        with open(path, "wb") as handle:
            handle.write(data)
            if self._fsync:
                handle.flush()
                os.fsync(handle.fileno())

    def load(
        self, path: str | Path, inference: "LocationAwareInference"
    ) -> CheckpointState:
        """Load one checkpoint, raising on any CRC, format or content violation.

        ``inference`` is the freshly built model the checkpoint restores into.
        Its :attr:`~repro.core.inference.LocationAwareInference.startup_digest`
        must equal the archive's, or
        :class:`~repro.serving.StartupUniverseError` is raised (the caller's
        universe is wrong, not the file); the columns are then checked
        against its startup universe plus the archive's learned entities.
        """
        from repro.serving import (
            CheckpointCorruptionError,
            ServingStateError,
            StartupUniverseError,
        )

        path = Path(path)
        sidecar = path.with_suffix(".npz.crc")
        if not sidecar.exists():
            raise CheckpointCorruptionError(
                f"checkpoint {path.name} has no CRC sidecar — the save was "
                "interrupted before the checkpoint became durable; an older "
                "checkpoint (or a full journal replay) will be used instead."
            )
        try:
            expected = int(sidecar.read_text(encoding="utf-8").strip(), 16)
        except ValueError as error:
            raise CheckpointCorruptionError(
                f"checkpoint {path.name} has an unreadable CRC sidecar: {error}"
            ) from error
        raw = path.read_bytes()
        actual = zlib.crc32(raw)
        if actual != expected:
            raise CheckpointCorruptionError(
                f"checkpoint {path.name} fails its CRC "
                f"({actual:08x} != {expected:08x}) — the file is torn or "
                "rotten; recovery falls back to the previous checkpoint."
            )
        try:
            with np.load(io.BytesIO(raw), allow_pickle=False) as data:
                version = (
                    int(_scalar(data, "format", np.int64))
                    if "format" in data.files
                    else None
                )
                if version != CHECKPOINT_FORMAT:
                    raise CheckpointCorruptionError(
                        f"checkpoint {path.name} has format {version}, this "
                        f"build reads format {CHECKPOINT_FORMAT} only; "
                        "recovery falls back to an older checkpoint or a "
                        "full journal replay."
                    )
                digest = str(_scalar(data, "startup_digest", np.str_))
                if digest != inference.startup_digest:
                    raise StartupUniverseError(
                        f"checkpoint {path.name} was written over another "
                        f"startup universe (digest {digest}, this model's "
                        f"{inference.startup_digest}): rebuild the inference "
                        "model over the workers and tasks the crashed run "
                        "started with."
                    )
                state = CheckpointState(
                    store=ArrayParameterStore.from_npz_dict(data).validate(),
                    journal_seq=int(_scalar(data, "journal_seq", np.int64)),
                    snapshot_version=int(_scalar(data, "snapshot_version", np.int64)),
                    published_at=float(_scalar(data, "published_at", np.float64)),
                    columns=_load_columns(data),
                    workers=[
                        worker_from_entry(entry)
                        for entry in _json_array(data, "workers_json")
                    ],
                    tasks=[
                        task_from_entry(entry) for entry in _json_array(data, "tasks_json")
                    ],
                    startup_digest=digest,
                    answers_since_full_refresh=int(
                        _scalar(data, "answers_since_full_refresh", np.int64)
                    ),
                    counters=_json_array(data, "counters_json"),
                    extra=_json_array(data, "extra_json"),
                )
                if "arrival_epochs" in data.files:
                    state.decay_epoch = int(_scalar(data, "decay_epoch", np.int64))
                    state.arrival_epochs = _array(data, "arrival_epochs", np.int64)
            _check_columns(state, inference)
        except ServingStateError:
            raise
        except Exception as error:
            raise CheckpointCorruptionError(
                f"checkpoint {path.name} passed its CRC but fails validation "
                f"({error}) — the content is damaged; recovery falls back to "
                "the previous checkpoint."
            ) from error
        return state

    def load_latest(
        self, inference: "LocationAwareInference"
    ) -> tuple[CheckpointState | None, int]:
        """The newest loadable checkpoint, skipping corrupt ones.

        Returns ``(state, corrupt_skipped)``; ``state`` is ``None`` when no
        checkpoint is usable (cold start).  ``inference`` is passed to
        :meth:`load`; a :class:`~repro.serving.StartupUniverseError` is not
        corruption and propagates.
        """
        from repro.serving import CheckpointCorruptionError

        skipped = 0
        for path in reversed(self.checkpoint_paths()):
            try:
                return self.load(path, inference), skipped
            except CheckpointCorruptionError:
                skipped += 1
        return None, skipped

    def _prune(self) -> None:
        paths = self.checkpoint_paths()
        for path in paths[: max(0, len(paths) - self._keep)]:
            path.unlink(missing_ok=True)
            path.with_suffix(".npz.crc").unlink(missing_ok=True)
