"""Checkpoint/restart state for the simulated convergence loop.

Long-running Level-3 jobs on thousands of core groups cannot afford to lose
the whole run to one failed CG, so the executor periodically snapshots the
algorithm state — ``(iteration, centroids)`` is everything Lloyd needs: the
assignments are a pure function of ``(X, C)``, and the Lloyd iteration
itself draws no random numbers.  The snapshot's modelled I/O cost (a
burst-buffer write priced as ``latency + nbytes / bandwidth``) is charged
to the ledger's ``checkpoint`` category; restoring after a fault charges
the mirror read to ``recovery``.

Checkpoints always live in memory (that is the restart point the modelled
recovery policies roll back to), and can additionally be made **durable**:
pass ``checkpoint_dir=`` and every snapshot is persisted to disk as an
atomic write-tmp → fsync → rename ``.npz``, so a killed *host process* can
``resume=`` from the last snapshot and continue bit-identically.  Durability
changes nothing about the modelled cost accounting — host I/O is real time,
not simulated Sunway time.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError, IntegrityError
from ..runtime.chaos import ChaosInjector
from ..runtime.integrity import manifest_digests, resolve_integrity
from ..runtime.ledger import LedgerProtocol

#: Default modelled burst-buffer bandwidth for checkpoint I/O (bytes/s).
DEFAULT_CHECKPOINT_BW = 1e9
#: Default per-snapshot latency (seconds) — metadata + sync overhead.
DEFAULT_CHECKPOINT_LATENCY = 1e-3

#: Filename of the durable snapshot inside ``checkpoint_dir``.
CHECKPOINT_FILENAME = "checkpoint.npz"

#: On-disk snapshot layout version.  Bumped when the npz field set changes
#: incompatibly; ``load_checkpoint`` accepts snapshots without the field
#: (pre-versioning legacy) and rejects unknown versions.  Version 1 added
#: the field itself plus the SHA-256 integrity manifest.
CHECKPOINT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CheckpointConfig:
    """Cadence and cost parameters of the checkpoint stream.

    Parameters
    ----------
    every:
        Snapshot every ``every`` successful iterations (None disables
        periodic snapshots; the free epoch-0 snapshot of the initial
        centroids is always kept so ``replan`` has a floor to restart from).
    bandwidth:
        Modelled I/O bandwidth in bytes/s.
    latency:
        Fixed per-snapshot overhead in seconds.
    """

    every: Optional[int] = None
    bandwidth: float = DEFAULT_CHECKPOINT_BW
    latency: float = DEFAULT_CHECKPOINT_LATENCY

    def __post_init__(self) -> None:
        if self.every is not None and self.every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1 or None, got {self.every}"
            )
        if not self.bandwidth > 0:
            raise ConfigurationError(
                f"checkpoint bandwidth must be > 0, got {self.bandwidth}"
            )
        if self.latency < 0:
            raise ConfigurationError(
                f"checkpoint latency must be >= 0, got {self.latency}"
            )

    def io_seconds(self, nbytes: int) -> float:
        """Modelled time to move one ``nbytes`` snapshot (either way)."""
        return self.latency + nbytes / self.bandwidth


@dataclass(frozen=True)
class Checkpoint:
    """One saved snapshot of the convergence-loop state."""

    iteration: int
    centroids: np.ndarray

    @property
    def nbytes(self) -> int:
        return int(self.centroids.nbytes)


def load_checkpoint(directory: str,
                    integrity: Optional[str] = None) -> Optional[Checkpoint]:
    """Load and verify the durable snapshot from ``directory`` (None if absent).

    The atomic-rename write protocol guarantees that whatever file exists
    is a *complete* write — a process killed mid-write leaves only the
    previous snapshot (or its orphaned ``.tmp``, which is ignored).  It does
    **not** guarantee the bytes are intact: disks rot and the chaos layer's
    ``bitflip_checkpoint`` flips bits post-rename.  Every way a damaged file
    can surface — truncated/garbage zip container, bad member CRC, missing
    fields — maps to a typed :class:`~repro.errors.IntegrityError` carrying
    the offending ``path``; only host-environment failures (permissions,
    I/O errors) stay :class:`~repro.errors.ConfigurationError`.

    Version-1 snapshots embed a ``schema_version`` field (absent on legacy
    files, which are accepted; unknown versions are rejected) and a SHA-256
    manifest over every payload array, verified unless the resolved
    ``integrity`` mode — explicit argument beats ``REPRO_INTEGRITY`` beats
    ``"off"`` — is ``"off"``.
    """
    path = os.path.join(directory, CHECKPOINT_FILENAME)
    if not os.path.exists(path):
        return None
    mode = resolve_integrity(integrity)
    try:
        with np.load(path) as data:
            if "schema_version" in data.files:
                version = int(data["schema_version"])
                if version > CHECKPOINT_SCHEMA_VERSION:
                    raise ConfigurationError(
                        f"cannot load checkpoint from {path!r}: snapshot "
                        f"schema version {version} is newer than the "
                        f"supported {CHECKPOINT_SCHEMA_VERSION}"
                    )
            arrays = {"iteration": np.asarray(data["iteration"]),
                      "centroids": np.asarray(data["centroids"])}
            if mode != "off" and "manifest" in data.files:
                stored = json.loads(str(data["manifest"][()]))
                if manifest_digests(arrays) != stored:
                    raise IntegrityError(
                        f"cannot load checkpoint from {path!r}: SHA-256 "
                        f"manifest mismatch (snapshot bytes were corrupted "
                        f"on disk after writing)",
                        path=path, location="checkpoint",
                    )
            return Checkpoint(
                iteration=int(arrays["iteration"]),
                centroids=np.array(arrays["centroids"]),
            )
    except (zipfile.BadZipFile, KeyError, ValueError, EOFError) as e:
        raise IntegrityError(
            f"cannot load checkpoint from {path!r}: corrupted or truncated "
            f"snapshot ({e})",
            path=path, location="checkpoint",
        ) from None
    except OSError as e:
        raise ConfigurationError(
            f"cannot load checkpoint from {path!r}: {e}"
        ) from None


def _null_record(kind: str, detail: str, seconds: float = 0.0) -> None:
    """Event sink for stores wired to chaos but not to a host-event log."""


class CheckpointStore:
    """Holds the latest snapshot and charges its modelled I/O.

    The store keeps only the most recent checkpoint (the restart point);
    ``n_saved`` counts how many periodic snapshots were taken so benchmarks
    can report checkpoint overhead per cadence.  With ``directory`` set,
    every snapshot is additionally persisted to
    ``directory/checkpoint.npz`` via atomic write-tmp → fsync → rename, so
    a killed process can resume from disk.
    """

    def __init__(self, config: CheckpointConfig,
                 ledger: LedgerProtocol,
                 directory: Optional[str] = None,
                 chaos: Optional[ChaosInjector] = None,
                 integrity: str = "off",
                 record: Optional[Callable[[str, str, float], None]] = None,
                 ) -> None:
        self.config = config
        self.ledger = ledger
        self.directory = directory
        #: Chaos seam: after every durable write the injector may flip one
        #: bit of the npz on disk (``bitflip_checkpoint``), keyed by the
        #: write counter so replays are deterministic.
        self.chaos = chaos
        self.integrity = resolve_integrity(integrity or "off")
        self._record = record
        self._writes = 0
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
        self.last: Optional[Checkpoint] = None
        self.n_saved = 0

    @property
    def enabled(self) -> bool:
        """Whether periodic snapshots are taken at all."""
        return self.config.every is not None

    @property
    def durable(self) -> bool:
        """Whether snapshots are persisted to disk."""
        return self.directory is not None

    def _persist(self, checkpoint: Checkpoint) -> None:
        """Atomically write the snapshot: tmp file → fsync → rename.

        ``os.replace`` is atomic on POSIX, so a reader (or a resumed run)
        never sees a torn snapshot no matter when the writer dies.  Every
        snapshot carries its schema version and a SHA-256 manifest over the
        payload arrays, so ``load_checkpoint`` can tell post-write bit rot
        from a clean legacy file.  The chaos injector's checkpoint hook runs
        *after* the rename — it models corruption of the durable copy, not
        a torn write (the rename protocol already excludes those).
        """
        assert self.directory is not None
        path = os.path.join(self.directory, CHECKPOINT_FILENAME)
        tmp = path + ".tmp"
        arrays = {"iteration": np.asarray(np.int64(checkpoint.iteration)),
                  "centroids": np.asarray(checkpoint.centroids)}
        manifest = json.dumps(manifest_digests(arrays), sort_keys=True)
        with open(tmp, "wb") as fh:
            np.savez(fh, iteration=arrays["iteration"],
                     centroids=arrays["centroids"],
                     schema_version=np.int64(CHECKPOINT_SCHEMA_VERSION),
                     manifest=manifest)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        write_id = self._writes
        self._writes += 1
        if self.chaos is not None:
            self.chaos.on_checkpoint_write(write_id, path,
                                           self._record or _null_record)

    def save_initial(self, centroids: np.ndarray) -> None:
        """Record the free epoch-0 snapshot of the initial centroids.

        The initial centroids are already resident everywhere after the
        setup broadcast, so this costs nothing — it just guarantees that
        ``restore`` always has a state to fall back to.
        """
        self.last = Checkpoint(iteration=0,
                               centroids=np.array(centroids, copy=True))
        if self.durable:
            self._persist(self.last)

    def adopt(self, checkpoint: Checkpoint) -> None:
        """Seed the store with a snapshot loaded from disk (resume path).

        No modelled charge and no re-persist: the snapshot already exists
        durably, and resuming is a host-side act outside the simulated
        machine's cost model.
        """
        self.last = Checkpoint(iteration=int(checkpoint.iteration),
                               centroids=np.array(checkpoint.centroids,
                                                  copy=True))

    def resume(self, C: np.ndarray) -> Tuple[np.ndarray, int]:
        """Load, verify and adopt the durable snapshot (``resume=True``).

        Returns the centroids to start from and the iteration they were
        taken at: ``(C, 0)`` — a cold start from the passed centroids —
        when the directory holds no snapshot yet.  The snapshot must match
        ``C``'s shape and is cast to its dtype.  A resume or cold start is
        recorded as one ``resume`` (or ``integrity``) host event.
        """
        record = self._record or _null_record
        try:
            snapshot = load_checkpoint(self.directory, integrity=self.integrity)
        except IntegrityError as exc:
            # Under repair a rotted snapshot is survivable: fall back to a
            # cold start (the same thing an empty directory means).  verify
            # and off surface the damage — a wrong-bytes resume would
            # silently diverge.
            if self.integrity != "repair":
                raise
            record("integrity",
                   f"durable snapshot failed verification ({exc}); "
                   f"cold start")
            return C, 0
        if snapshot is None:
            record("resume", f"no snapshot in {self.directory!r}; cold start")
            return C, 0
        if snapshot.centroids.shape != C.shape:
            raise ConfigurationError(
                f"checkpoint in {self.directory!r} holds centroids of shape "
                f"{snapshot.centroids.shape}, but this run uses {C.shape}"
            )
        self.adopt(snapshot)
        record("resume", f"resumed from {self.directory!r} at iteration "
               f"{snapshot.iteration}")
        restored = np.array(snapshot.centroids, copy=True).astype(
            C.dtype, copy=False)
        return restored, int(snapshot.iteration)

    def maybe_save(self, iteration: int, centroids: np.ndarray) -> bool:
        """Snapshot if the cadence says so; charge the write.

        Returns True when a snapshot was taken.
        """
        if self.config.every is None or iteration % self.config.every != 0:
            return False
        self.last = Checkpoint(iteration=iteration,
                               centroids=np.array(centroids, copy=True))
        self.n_saved += 1
        self.ledger.charge("checkpoint", "checkpoint.save",
                           self.config.io_seconds(self.last.nbytes))
        if self.durable:
            self._persist(self.last)
        return True

    def restore(self) -> Checkpoint:
        """Return the latest snapshot, charging the read to ``recovery``."""
        if self.last is None:
            raise ConfigurationError(
                "no checkpoint available to restore from "
                "(setup never ran save_initial)"
            )
        self.ledger.charge("recovery", "recovery.restore_checkpoint",
                           self.config.io_seconds(self.last.nbytes))
        return self.last
