"""Versioned, immutable parameter snapshots for the online serving path.

The ingestion layer mutates the inference model continuously (incremental EM
between periodic full re-fits), but the assignment frontend must never observe
a half-applied update.  :class:`SnapshotStore` decouples the two with a
copy-on-write publish protocol:

* :meth:`SnapshotStore.publish` deep-copies the
  :class:`~repro.core.params.ArrayParameterStore`, marks every array read-only
  and stamps the copy with a monotonically increasing version id — writers keep
  mutating their own store, readers keep whatever version they already hold;
* :meth:`SnapshotStore.publish_delta` is the **O(changed) publish**: instead
  of a full store copy, the new version records only a
  :class:`~repro.core.params.StoreDelta` (the dirty rows since the previous
  publish) on top of the previous snapshot as its immutable base.  The full
  array form is **materialised lazily** — on the first read of
  :attr:`ParameterSnapshot.store` the delta chain is applied onto the nearest
  materialised ancestor in one pass — so publishes a reader never looks at
  cost O(changed rows), and a read costs at most what a full-copy publish
  used to.  Chains are bounded (:attr:`SnapshotStore.max_delta_chain`):
  every so many delta publishes the new snapshot is materialised eagerly,
  keeping both materialisation latency and retained-history memory bounded;
* retention is bounded (:attr:`SnapshotStore.max_snapshots`): publishing past
  the cap drops the oldest versions, mirroring a production parameter server
  that keeps a short history for rollback (delta snapshots keep their base
  chain alive until materialised);
* :meth:`ParameterSnapshot.save` / :func:`load_snapshot` persist a snapshot to
  disk as a plain ``.npz`` archive (no pickling) so a service can restore its
  parameters across restarts; versions keep increasing across a restore.
"""

from __future__ import annotations

import json
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.params import ArrayParameterStore, ModelParameters, StoreDelta
from repro.data.io import (
    answers_from_dict,
    answers_to_dict,
    tasks_from_dict,
    tasks_to_dict,
    workers_from_dict,
    workers_to_dict,
)
from repro.data.models import Answer, Task, Worker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry


class ParameterSnapshot:
    """One immutable, versioned copy of all model parameters.

    A snapshot is either **materialised** (it owns a frozen
    :class:`~repro.core.params.ArrayParameterStore`) or a **delta** recorded
    on top of a base snapshot; accessing :attr:`store` materialises a delta
    snapshot on first read by applying the delta chain onto the nearest
    materialised ancestor.  Either way the arrays handed out are frozen
    (read-only).  The assignment frontend hands :attr:`store` itself to its
    task assigner.  Consumers that need the id-oriented
    :class:`~repro.core.params.ModelParameters` view (accuracy read-outs,
    offline tools) call :meth:`as_model`, which converts lazily and caches.
    """

    __slots__ = (
        "version",
        "published_at",
        "published_wall",
        "source",
        "num_workers",
        "num_tasks",
        "_store",
        "_base",
        "_delta",
        "_model",
        "_lock",
    )

    def __init__(
        self,
        version: int,
        store: ArrayParameterStore | None = None,
        published_at: float = 0.0,
        source: str = "publish",
        base: "ParameterSnapshot | None" = None,
        delta: StoreDelta | None = None,
    ) -> None:
        if version < 0:
            raise ValueError(f"version must be non-negative, got {version}")
        if (store is None) == (base is None or delta is None):
            raise ValueError(
                "a snapshot needs either a store or a (base, delta) pair"
            )
        self.version = version
        self.published_at = published_at
        #: Monotonic wall-clock stamp of creation, for snapshot-age-at-serve.
        self.published_wall = time.monotonic()
        self.source = source
        self._store = store
        self._base = base
        self._delta = delta
        if store is not None:
            self.num_workers = store.num_workers
            self.num_tasks = store.num_tasks
        else:
            self.num_workers = delta.num_workers
            self.num_tasks = delta.num_tasks
        self._model: ModelParameters | None = None
        # Reentrant: as_model() materialises the store under the same lock.
        self._lock = threading.RLock()

    def __repr__(self) -> str:
        kind = "delta" if self._store is None else "full"
        return (
            f"ParameterSnapshot(version={self.version}, "
            f"workers={self.num_workers}, tasks={self.num_tasks}, "
            f"source={self.source!r}, {kind})"
        )

    @property
    def materialized(self) -> bool:
        """Whether the full array form already exists (no chain walk on read)."""
        return self._store is not None

    @property
    def store(self) -> ArrayParameterStore:
        """The full array form of this version, materialising it on first read.

        For a delta snapshot this copies the nearest materialised ancestor
        once and applies every delta up the chain (oldest first) — O(universe)
        on the first read, cached afterwards, and never paid for versions no
        reader looks at.  Every delta is row/shape-validated against the base
        as it is applied; a chain that does not fit its base raises
        :class:`~repro.serving.SnapshotIntegrityError` instead of patching
        the wrong rows.

        Thread-safe: concurrent first reads materialise once, under the
        snapshot's own lock (the lock-free fast path covers every later
        read — ``_store`` is only ever written while holding the lock and
        never reset).
        """
        store = self._store
        if store is not None:
            return store
        with self._lock:
            if self._store is None:
                from repro.serving import SnapshotIntegrityError

                # Walk the base chain capturing (version, delta) pairs.  An
                # ancestor may be materialising concurrently under its *own*
                # lock (it sets ``_store`` first, then clears ``_base`` and
                # ``_delta``), so each node's fields are captured base/delta
                # before store: if the store read comes back non-None the
                # captured pair is simply unused — the materialised array
                # already includes that delta.
                deltas: list[tuple[int, StoreDelta]] = [(self.version, self._delta)]
                node = self._base
                while True:
                    base = node._base
                    delta = node._delta
                    store = node._store
                    if store is not None:
                        base_version = node.version
                        out = store.copy()
                        break
                    deltas.append((node.version, delta))
                    node = base
                for version, delta in reversed(deltas):
                    try:
                        delta.apply(out)
                    except (ValueError, IndexError) as error:
                        raise SnapshotIntegrityError(
                            f"materialising snapshot version {self.version} failed: "
                            f"the delta of version {version} does not fit "
                            f"its base (version {base_version}): {error}. The "
                            "delta chain is inconsistent — republish a full "
                            "snapshot instead of reading this version."
                        ) from error
                self._store = out.freeze()
                self._base = None
                self._delta = None
            return self._store

    def as_model(self) -> ModelParameters:
        """The dict-of-dataclasses view of this snapshot (converted once).

        The returned object is shared between callers; treat it as read-only,
        like the snapshot itself.  Thread-safe: concurrent first calls convert
        once (double-checked under the snapshot lock).
        """
        model = self._model
        if model is not None:
            return model
        with self._lock:
            if self._model is None:
                self._model = self.store.to_model()
            return self._model

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

    #: Delta publishes allowed before the next one is materialised eagerly:
    #: bounds both the first-read materialisation latency and the memory held
    #: by unmaterialised history, at an amortised O(universe / cap) copy cost
    #: per publish.
    max_delta_chain = 16

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
        self._chain_length = 0
        # One writer (the ingest thread) and many readers (assignment
        # frontends, the pipelined refresh worker's launch site): every
        # publish/adopt and every history read holds this.  Reentrant because
        # publish_delta() reads latest() while publishing.
        self._mutex = threading.RLock()
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
        """Mirror publish kinds, chain depth, and degraded marks into ``metrics``."""
        self._metrics = metrics

    def _note_publish(self, kind: str) -> None:
        if self._metrics is not None:
            self._metrics.counter("snapshot_publishes_total", kind=kind).inc()
            self._metrics.gauge("snapshot_delta_chain_depth").set(self._chain_length)

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
            self._chain_length = 0
            self._note_publish("full")
            return self._append(snapshot)

    def publish_delta(
        self,
        delta: StoreDelta,
        published_at: float = 0.0,
        source: str = "incremental",
    ) -> ParameterSnapshot:
        """O(changed) publish: record only the dirty rows on the latest base.

        The new version shares everything with the previous snapshot except
        the rows carried by ``delta``; the full array form is materialised
        only when (and if) a reader asks for it.  Requires a published base
        over the same entity universe — callers fall back to :meth:`publish`
        on the first publish or whenever the universe changed.
        """
        with self._mutex:
            base = self.latest()
            if base is None:
                raise ValueError("cannot publish a delta before any full snapshot")
            if (base.num_workers, base.num_tasks) != (
                delta.num_workers,
                delta.num_tasks,
            ):
                raise ValueError(
                    f"delta universe {delta.num_workers} workers / {delta.num_tasks} "
                    f"tasks does not match the latest snapshot "
                    f"({base.num_workers} / {base.num_tasks})"
                )
            snapshot = ParameterSnapshot(
                version=self._next_version,
                published_at=published_at,
                source=source,
                base=base,
                delta=delta,
            )
            self._append(snapshot)
            self._chain_length += 1
            if self._chain_length >= self.max_delta_chain:
                snapshot.store  # materialise eagerly: bound the chain
                self._chain_length = 0
            self._note_publish("delta")
            return snapshot

    def _append(self, snapshot: ParameterSnapshot) -> ParameterSnapshot:
        self._next_version = snapshot.version + 1
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
            self._snapshots.append(snapshot)
            self._next_version = max(self._next_version, snapshot.version + 1)
            self._chain_length = 0
            if len(self._snapshots) > self._max_snapshots:
                del self._snapshots[: len(self._snapshots) - self._max_snapshots]
            return snapshot

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
    plus carried-over entities), ``answers`` is the live tensor's answer log
    exported in row order (rebuilding a tensor from it is bit-equal to the
    crashed run's — see
    :meth:`~repro.core.em_kernel.AnswerTensor.export_answers`), and
    ``workers``/``tasks`` carry the metadata of every entity registered in the
    inference model, so a resumed session can re-register mid-stream arrivals
    the startup universe never knew.  ``journal_seq`` is the newest journal
    record reflected in this state; recovery replays strictly after it.
    """

    store: ArrayParameterStore
    journal_seq: int
    snapshot_version: int
    published_at: float
    answers: list[Answer] = field(default_factory=list)
    workers: list[Worker] = field(default_factory=list)
    tasks: list[Task] = field(default_factory=list)
    answers_since_full_refresh: int = 0
    counters: dict = field(default_factory=dict)
    #: Free-form JSON-serializable state carried by optional subsystems
    #: (decayed-statistic epochs, reputation tiers, guard quarantine totals).
    #: Absent from checkpoints written before these subsystems existed —
    #: loading such a file yields an empty dict.
    extra: dict = field(default_factory=dict)


class CheckpointManager:
    """Durable, CRC-guarded checkpoints with bounded retention.

    One checkpoint is a single ``.npz`` archive (the parameter store's arrays
    plus JSON strings for the answer log, entity metadata and counters) and a
    ``.crc`` sidecar holding the CRC32 of the archive bytes.  :meth:`save`
    writes archive-then-sidecar, so a crash mid-checkpoint leaves a file that
    fails its CRC (or has none) and is skipped by :meth:`load_latest` —
    falling back to the previous checkpoint rather than restoring garbage.
    """

    def __init__(self, directory: str | Path, keep: int = 3) -> None:
        if keep <= 0:
            raise ValueError(f"keep must be positive, got {keep}")
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._keep = keep
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
        payload["journal_seq"] = np.asarray(state.journal_seq, dtype=np.int64)
        payload["snapshot_version"] = np.asarray(
            state.snapshot_version, dtype=np.int64
        )
        payload["published_at"] = np.asarray(state.published_at, dtype=float)
        payload["answers_since_full_refresh"] = np.asarray(
            state.answers_since_full_refresh, dtype=np.int64
        )
        from repro.data.models import AnswerSet as _AnswerSet

        payload["answers_json"] = np.asarray(
            json.dumps(answers_to_dict(_AnswerSet(state.answers))), dtype=np.str_
        )
        payload["workers_json"] = np.asarray(
            json.dumps(workers_to_dict(state.workers)), dtype=np.str_
        )
        payload["tasks_json"] = np.asarray(
            json.dumps(tasks_to_dict(state.tasks)), dtype=np.str_
        )
        payload["counters_json"] = np.asarray(
            json.dumps(state.counters), dtype=np.str_
        )
        payload["extra_json"] = np.asarray(
            json.dumps(state.extra), dtype=np.str_
        )
        with open(path, "wb") as handle:
            np.savez(handle, **payload)
        crc = zlib.crc32(path.read_bytes())
        path.with_suffix(".npz.crc").write_text(f"{crc:08x}\n", encoding="utf-8")
        self.saves += 1
        self._prune()
        return path

    def load(self, path: str | Path) -> CheckpointState:
        """Load one checkpoint, raising on any CRC or content violation."""
        from repro.serving import CheckpointCorruptionError

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
        actual = zlib.crc32(path.read_bytes())
        if actual != expected:
            raise CheckpointCorruptionError(
                f"checkpoint {path.name} fails its CRC "
                f"({actual:08x} != {expected:08x}) — the file is torn or "
                "rotten; recovery falls back to the previous checkpoint."
            )
        try:
            with np.load(path, allow_pickle=False) as data:
                store = ArrayParameterStore.from_npz_dict(data).validate()
                journal_seq = int(np.asarray(data["journal_seq"]))
                snapshot_version = int(np.asarray(data["snapshot_version"]))
                published_at = float(np.asarray(data["published_at"]))
                since_refresh = int(np.asarray(data["answers_since_full_refresh"]))
                answers = list(
                    answers_from_dict(json.loads(str(np.asarray(data["answers_json"]))))
                )
                workers = workers_from_dict(
                    json.loads(str(np.asarray(data["workers_json"])))
                )
                tasks = tasks_from_dict(
                    json.loads(str(np.asarray(data["tasks_json"])))
                )
                counters = json.loads(str(np.asarray(data["counters_json"])))
                extra = (
                    json.loads(str(np.asarray(data["extra_json"])))
                    if "extra_json" in data.files
                    else {}
                )
        except CheckpointCorruptionError:
            raise
        except Exception as error:
            raise CheckpointCorruptionError(
                f"checkpoint {path.name} passed its CRC but cannot be decoded "
                f"({error}) — the format is damaged or from an incompatible "
                "version; recovery falls back to the previous checkpoint."
            ) from error
        return CheckpointState(
            store=store,
            journal_seq=journal_seq,
            snapshot_version=snapshot_version,
            published_at=published_at,
            answers=answers,
            workers=workers,
            tasks=tasks,
            answers_since_full_refresh=since_refresh,
            counters=counters,
            extra=extra,
        )

    def load_latest(self) -> tuple[CheckpointState | None, int]:
        """The newest loadable checkpoint, skipping corrupt ones.

        Returns ``(state, corrupt_skipped)``; ``state`` is ``None`` when no
        checkpoint is usable (cold start).
        """
        from repro.serving import CheckpointCorruptionError

        skipped = 0
        for path in reversed(self.checkpoint_paths()):
            try:
                return self.load(path), skipped
            except CheckpointCorruptionError:
                skipped += 1
        return None, skipped

    def _prune(self) -> None:
        paths = self.checkpoint_paths()
        for path in paths[: max(0, len(paths) - self._keep)]:
            path.unlink(missing_ok=True)
            path.with_suffix(".npz.crc").unlink(missing_ok=True)
