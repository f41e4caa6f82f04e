"""End-to-end data-integrity layer: ABFT checksums for silent corruption.

The chaos layer (:mod:`repro.runtime.chaos`) can now flip bits *silently* —
in a reduction partial between task exit and combine, in a shared-arena
segment between publish and task start, or in a checkpoint npz on disk.
Nothing raises; the numbers are simply wrong.  This module is the matching
detection/repair side:

* **Partials** — every typed reduction carrier
  (:class:`~repro.runtime.reduce.BlockPartial` and its subclass) exposes
  ``_integrity_payload()``; :func:`seal_partial` stamps a CRC32
  over the payload bytes (exact single-bit-flip detection) plus, for the
  sums-bearing carriers, an ABFT check row ``sums.sum(axis=0)``.
  :func:`verify_partial` recomputes and raises
  :class:`~repro.errors.IntegrityError` on mismatch;
  :func:`verify_combine` checks that a combine preserved the additive
  check row up to reduction-arithmetic tolerance (floating reassociation
  forbids a bitwise comparison — the CRC is the exact detector, the
  check row the algebraic one).
* **Shared arrays** — :func:`crc32_array` is the checksum engines record
  at ``share()`` time and re-verify before dispatching tasks; the process
  engine additionally threads it through ``ArrayRef.crc`` so workers
  verify segments on task entry.
* **Checkpoints** — :func:`manifest_digests` builds the SHA-256 manifest
  ``CheckpointStore`` embeds in every npz, verified by ``load_checkpoint``.

Modes
-----
``"off"``
    No sealing, no verification: the clean path is bit-for-bit the
    pre-integrity code path.
``"verify"``
    Seal + verify everywhere; detection raises :class:`IntegrityError`
    (a transient :class:`~repro.errors.FaultError`, so supervised runs
    escalate through the ordinary recovery policies).
``"repair"``
    As ``verify``, but the engine first recomputes the corrupted block
    under the existing ``TaskPolicy`` budget and restores corrupted shared
    segments from their retained sources; only persistent corruption
    escalates.

The mode is resolved like every other runtime knob: explicit argument
beats the registered ``REPRO_INTEGRITY`` environment variable beats the
``"off"`` default (:func:`resolve_integrity`).
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..analysis.envvars import ENV_INTEGRITY, read_str
from ..errors import ConfigurationError, IntegrityError

__all__ = [
    "INTEGRITY_MODES",
    "checksum_payload",
    "crc32_array",
    "manifest_digests",
    "resolve_integrity",
    "seal_partial",
    "sha256_array",
    "verified_combine",
    "verify_combine",
    "verify_partial",
]

#: Recognised integrity modes, in increasing order of intervention.
INTEGRITY_MODES: Tuple[str, ...] = ("off", "verify", "repair")


def resolve_integrity(integrity: Optional[str] = None) -> str:
    """Resolve an integrity mode: explicit arg > ``REPRO_INTEGRITY`` > off.

    Mirrors ``resolve_engine``/``resolve_chaos``: engine *constructors*
    never consult the environment (an explicitly built engine stays
    ``"off"`` unless told otherwise); only ``resolve_engine`` and the
    facade route through this resolver with ``integrity=None``.
    """
    if integrity is None:
        integrity = read_str(ENV_INTEGRITY) or "off"
    if integrity not in INTEGRITY_MODES:
        raise ConfigurationError(
            f"integrity mode must be one of {INTEGRITY_MODES}, "
            f"got {integrity!r}"
        )
    return integrity


# ---------------------------------------------------------------------------
# checksums


def crc32_array(array: np.ndarray) -> int:
    """CRC32 over an array's raw bytes (shape/dtype-independent content)."""
    contiguous = np.ascontiguousarray(array)
    return zlib.crc32(contiguous)  # type: ignore[arg-type]


def sha256_array(array: np.ndarray) -> str:
    """Hex SHA-256 over an array's raw bytes plus its shape/dtype header."""
    contiguous = np.ascontiguousarray(array)
    digest = hashlib.sha256()
    digest.update(repr((contiguous.shape, contiguous.dtype.str)).encode())
    digest.update(contiguous)
    return digest.hexdigest()


def manifest_digests(arrays: Dict[str, np.ndarray]) -> Dict[str, str]:
    """Per-array SHA-256 digests for a checkpoint manifest, in key order."""
    return {key: sha256_array(np.asarray(arrays[key])) for key in sorted(arrays)}


def checksum_payload(items: Sequence[Any]) -> int:
    """CRC32 chained over a heterogeneous payload tuple.

    Arrays contribute their shape/dtype header and raw bytes; scalars
    contribute a canonical byte encoding; ``None`` a fixed marker.  The
    chaining makes the checksum sensitive to field order, so two payloads
    that merely permute the same arrays do not collide.
    """
    crc = 0
    for item in items:
        if item is None:
            crc = zlib.crc32(b"\x00<none>", crc)
        elif isinstance(item, np.ndarray):
            contiguous = (item if item.flags.c_contiguous
                          else np.ascontiguousarray(item))
            # Cheap header: dtype code + dimension sizes.  This runs per
            # payload array on every seal/verify, so no repr round-trips.
            header = contiguous.dtype.str.encode() + struct.pack(
                f"<{contiguous.ndim}q", *contiguous.shape)
            crc = zlib.crc32(header, crc)
            crc = zlib.crc32(contiguous, crc)  # type: ignore[arg-type]
        elif isinstance(item, (bool, int, np.integer)):
            crc = zlib.crc32(b"\x01" + str(int(item)).encode(), crc)
        elif isinstance(item, (float, np.floating)):
            crc = zlib.crc32(np.float64(item).tobytes(), crc)
        else:
            crc = zlib.crc32(repr(item).encode(), crc)
    return crc


# ---------------------------------------------------------------------------
# partial seal / verify


def _payload_of(partial: Any) -> Optional[Tuple[Any, ...]]:
    fn = getattr(partial, "_integrity_payload", None)
    if fn is None:
        return None
    payload: Tuple[Any, ...] = fn()
    return payload


def seal_partial(partial: Any) -> Any:
    """Stamp ABFT checksum fields onto a typed carrier, in place.

    No-op for objects without an ``_integrity_payload`` (plain tuples and
    arrays stay uncovered — only the typed carriers participate) and for
    carriers that are already sealed: a carrier is sealed once, where it
    is made, and re-sealing after the chaos seam would launder corruption
    into a fresh checksum.
    """
    payload = _payload_of(partial)
    if payload is None or getattr(partial, "crc", None) is not None:
        return partial
    partial.crc = checksum_payload(payload)
    sums = getattr(partial, "sums", None)
    if sums is not None and hasattr(partial, "check_row"):
        partial.check_row = np.asarray(sums).sum(axis=0)
    return partial


def verify_partial(partial: Any, where: str = "partial") -> None:
    """Recompute a sealed carrier's CRC32 and raise on mismatch.

    Unsealed carriers (``crc is None``) and non-carrier objects pass
    vacuously — sealing only happens when integrity is on, so this
    function is safe to call unconditionally.
    """
    payload = _payload_of(partial)
    if payload is None:
        return
    crc = getattr(partial, "crc", None)
    if crc is None:
        return
    if checksum_payload(payload) != int(crc):
        raise IntegrityError(
            f"CRC32 mismatch in {where}: "
            f"{type(partial).__name__} payload was corrupted after sealing",
            location=where,
        )


def verify_combine(a: Any, b: Any, combined: Any, where: str = "combine") -> None:
    """Check that a combine preserved the additive ABFT check row.

    ``combined.sums`` must equal ``a.check_row + b.check_row`` column-wise
    up to reduction-arithmetic tolerance.  Exact equality is impossible —
    the combined row is re-derived by a differently associated sum — so
    the tolerance scales with the operands' magnitude and dtype; gross
    corruption of the sums matrix *between* verification and combine is
    what this catches, while single bit flips are caught exactly by the
    CRC in :func:`verify_partial`.
    """
    row_a = getattr(a, "check_row", None)
    row_b = getattr(b, "check_row", None)
    sums = getattr(combined, "sums", None)
    if row_a is None or row_b is None or sums is None:
        return
    expected = np.asarray(row_a) + np.asarray(row_b)
    actual = np.asarray(sums).sum(axis=0)
    if expected.shape != actual.shape:
        raise IntegrityError(
            f"ABFT check row shape mismatch in {where}: "
            f"{expected.shape} vs {actual.shape}",
            location=where,
        )
    scale = float(np.abs(expected).max(initial=0.0)) + 1.0
    rows = max(1, int(np.asarray(sums).shape[0]))
    tol = float(np.finfo(actual.dtype).eps) * 64.0 * rows * scale
    if float(np.abs(actual - expected).max(initial=0.0)) > tol:
        raise IntegrityError(
            f"ABFT check row not preserved by {where}: combine dropped or "
            f"corrupted mass in the sums matrix",
            location=where,
        )


def verified_combine(combine: Callable[[Any, Any], Any], a: Any, b: Any,
                     where: str = "combine") -> Any:
    """Combine two verified partials, check row preservation, and seal.

    The operands' CRCs are not re-hashed: the engine's inline fold, the
    only caller, feeds leaves CRC-verified at the map boundary or merge
    results it built one statement earlier.  The per-node ABFT check row
    still validates every merge algebraically, so gross corruption of a
    slot is caught; the fold verifies the winner's CRC at the end.
    """
    combined = combine(a, b)
    verify_combine(a, b, combined, where=where)
    return seal_partial(combined)
