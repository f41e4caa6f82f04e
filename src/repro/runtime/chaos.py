"""Seeded host-chaos injection at the execution-engine seam.

PR 2's :mod:`repro.runtime.faults` injects faults into the *simulated*
Sunway machine (modelled DMA errors, CG deaths, collective timeouts).  This
module injects faults into the *host* process actually running the numerics
— the block tasks the :class:`~repro.runtime.engine.ExecutionEngine` maps —
so the robustness layer of PR 4 can be exercised end to end:

``task_exception``
    The block task raises :class:`~repro.errors.ChaosError` instead of
    running.  The engine's bounded-retry ladder must absorb it.

``slow_task``
    The block task sleeps ``delay`` real seconds before running, turning it
    into a straggler for the per-task timeout / speculative re-execution
    path.

``nan_result``
    The block task's returned partial is corrupted with a NaN.  The engine
    cannot see this; the per-iteration numerical guard must catch the
    poisoned centroids and the recovery policy roll the iteration back.

``worker_kill``
    The OS worker process running the task SIGKILLs itself before the task
    body runs — a real crash, not a simulated one.  Only the process
    engine (:mod:`repro.runtime.process_engine`) has workers to kill, so
    the kind is a no-op under the serial and thread engines; the process
    engine's supervisor must detect the death, respawn the worker, and
    re-run the task.  ``kills=N`` fires on the task's first N attempts —
    ``kills >= TaskPolicy.quarantine_after`` makes a *poison task* that
    kills every worker touching it until the engine quarantines it to
    inline serial execution.

``worker_hang``
    The worker SIGSTOPs itself before the task body runs, stalling its
    heartbeat thread with it; the process engine's heartbeat timeout must
    flag the worker as hung, SIGKILL it, and take the same
    respawn/re-run path.  ``kills`` bounds the stalls like worker_kill.

``bitflip_partial``
    A single low-order mantissa bit of the task's returned partial is
    flipped — *silently*.  Unlike ``nan_result`` the corruption stays
    finite, so the numerical guard never trips: only the integrity
    layer's ABFT checksums (:mod:`repro.runtime.integrity`) can see it.
    ``kills=N`` keeps re-corrupting the task's first N attempts, so a
    persistent-corruption escalation can be staged deterministically.

``bitflip_arena``
    One mantissa byte of a shared operand is corrupted between
    publish and task start — in the :class:`~repro.runtime.shm.SharedArena`
    segment under the process engine, in the in-process shared copy
    otherwise.  Fires per *share id* (engine ``share()`` calls count from
    0), targeted with ``@id`` or stochastic with ``p=``.

``bitflip_checkpoint``
    One bit of the checkpoint npz just written by ``CheckpointStore`` is
    flipped on disk.  Fires per *write id* (persisted checkpoints count
    from 0).  Detection is the npz SHA-256 manifest verified by
    ``load_checkpoint``.

Determinism: every firing decision is a pure function of
``(plan seed, spec index, task id)`` — task ids are assigned at submission
time in fixed order — so a chaos plan replays bit-identically across
engines, worker counts, and thread interleavings.  Chaos only ever fires on
a task's *first* attempt (attempt 0): retries and speculative re-runs are
clean, which is exactly the transient-fault model the retry ladder is built
for.  The worker_* kinds are the one refinement: they fire while
``attempt < kills`` (default 1), because killing a worker *is* the failed
attempt — the re-run on a fresh worker is the clean retry.

Selection: attach a :class:`ChaosInjector` to an engine (``engine.chaos``),
or export ``REPRO_CHAOS`` with the compact grammar below and let
:func:`~repro.runtime.engine.resolve_engine` attach one — this is how the
CI chaos leg runs the whole test suite under injected host faults.
"""

from __future__ import annotations

import copy
import os
import signal
import time
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from ..analysis.envvars import ENV_CHAOS, read_str
from ..errors import ChaosError, ConfigurationError
from .plans import SeededPlan

#: Chaos kinds a :class:`ChaosSpec` may carry.  The worker_* kinds act on
#: real OS worker processes, so they only fire inside the process engine's
#: workers (see :meth:`ChaosInjector.worker_before_task`).
CHAOS_KINDS = ("task_exception", "slow_task", "nan_result",
               "worker_kill", "worker_hang",
               "bitflip_partial", "bitflip_arena", "bitflip_checkpoint")

#: Kinds that crash/stall a worker process rather than perturb a task.
WORKER_KINDS = ("worker_kill", "worker_hang")

#: Silent-data-corruption kinds: they raise nothing and keep values finite,
#: so only the integrity layer (repro.runtime.integrity) can detect them.
BITFLIP_KINDS = ("bitflip_partial", "bitflip_arena", "bitflip_checkpoint")


@dataclass(frozen=True)
class ChaosSpec:
    """One scheduled or stochastic host fault.

    Parameters
    ----------
    kind:
        One of :data:`CHAOS_KINDS`.
    task_id:
        Fire deterministically on this exact task id (ids count engine
        submissions from 0; ``bitflip_arena`` counts ``share()`` calls and
        ``bitflip_checkpoint`` counts checkpoint writes instead).  ``None``
        fires stochastically per task with ``probability``.
    probability:
        Per-task firing probability for specs with ``task_id=None``.
    delay:
        ``slow_task`` only: real seconds the afflicted task sleeps.
    kills:
        ``worker_kill``/``worker_hang``: the fault fires while the
        task's attempt number is below this bound, so one task can take
        down (or stall) up to ``kills`` workers before succeeding.  At
        ``kills >= TaskPolicy.quarantine_after`` the task is poison: the
        process engine must quarantine it to inline serial execution.
        ``bitflip_partial`` reuses the bound the same way: the task's
        first ``kills`` attempts each return a corrupted partial, so
        ``kills > TaskPolicy.max_retries`` models persistent corruption
        that must escalate past in-place repair.
    """

    kind: str
    task_id: Optional[int] = None
    probability: float = 0.0
    delay: float = 0.05
    kills: int = 1

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise ConfigurationError(
                f"unknown chaos kind {self.kind!r}; "
                f"expected one of {CHAOS_KINDS}"
            )
        if self.task_id is not None and self.task_id < 0:
            raise ConfigurationError(
                f"chaos task_id must be >= 0, got {self.task_id}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"chaos probability must be in [0, 1], "
                f"got {self.probability}"
            )
        if self.task_id is None and self.probability == 0.0:
            raise ConfigurationError(
                f"a stochastic {self.kind} chaos spec needs probability > 0 "
                f"(or target it with task_id=t)"
            )
        if self.delay < 0:
            raise ConfigurationError(
                f"chaos delay must be >= 0, got {self.delay}"
            )
        if self.kills < 1:
            raise ConfigurationError(
                f"chaos kills must be >= 1, got {self.kills}"
            )


class ChaosPlan(SeededPlan):
    """A seeded schedule of host faults, replayable bit-for-bit.

    The plan is immutable and stateless: firing decisions are a pure
    function of ``(seed, spec index, task id)``, so one plan can drive many
    concurrent engines without shared-stream races.
    """

    spec_type = ChaosSpec
    json_key = "chaos"
    noun = "chaos"
    at_field = "task_id"
    options = {"p": ("probability", float), "delay": ("delay", float),
               "kills": ("kills", int)}


def parse_chaos_plan(text: str, seed: int = 0) -> ChaosPlan:
    """Parse the compact chaos-plan grammar (or a ``@file`` reference).

    Grammar (:mod:`repro.runtime.plans`, shared with
    :func:`~repro.runtime.faults.parse_fault_plan`): semicolon-separated
    events, each ``kind[@task][:key=val,...]``:

    * ``task_exception@7`` — the task with id 7 raises on its first attempt,
    * ``task_exception:p=0.02`` — each task raises with probability 0.02,
    * ``slow_task:p=0.01,delay=0.2`` — stragglers sleeping 0.2 s,
    * ``nan_result@3`` — task 3's returned partial is NaN-poisoned,
    * ``worker_kill:p=0.05`` — process-engine workers SIGKILL themselves
      before 5% of first attempts (``kills=3`` makes the afflicted tasks
      kill up to 3 workers each — poison at the default quarantine bound),
    * ``worker_hang@2`` — the worker running task 2 SIGSTOPs itself (the
      heartbeat timeout must reap it),
    * ``bitflip_partial:p=0.02`` — 2% of first attempts return a partial
      with one mantissa bit silently flipped (``kills=N`` re-corrupts the
      first N attempts),
    * ``bitflip_arena@1`` — the second ``share()`` call's segment is
      corrupted between publish and task start,
    * ``bitflip_checkpoint:p=1`` — every checkpoint npz written gets one
      bit flipped on disk,
    * ``seed=42`` — seed the stochastic draws.

    ``@path.json`` loads a :meth:`ChaosPlan.to_json` file instead.
    """
    return ChaosPlan.parse(text, seed)


ChaosLike = Union["ChaosInjector", ChaosPlan, str, None]


def _corrupt_first_array(result, corrupt: Callable[[np.ndarray], None]):
    """Return ``result`` with ``corrupt`` applied to a copy of its first
    float ndarray, or ``result`` itself when it carries none.

    Engine block tasks return float partials: ``(sums, counts)`` tuples, a
    lone array, or a partial object carrying a ``sums`` array (e.g.
    :class:`repro.runtime.reduce.BlockPartial`).  The corruption copies
    before writing, so a retried task — which recomputes from the pristine
    inputs — is unaffected; and, crucially for the integrity layer, a
    copied partial object keeps its now-stale checksum fields, exactly like
    real in-transit corruption would.
    """
    def damaged(value: object) -> Optional[np.ndarray]:
        if isinstance(value, np.ndarray) \
                and np.issubdtype(value.dtype, np.floating) and value.size:
            bad = value.copy()
            corrupt(bad)
            return bad
        return None

    if isinstance(result, tuple):
        for i, value in enumerate(result):
            bad = damaged(value)
            if bad is not None:
                return result[:i] + (bad,) + result[i + 1:]
        return result
    bad = damaged(getattr(result, "sums", None))
    if bad is not None:
        partial = copy.copy(result)
        partial.sums = bad
        return partial
    bad = damaged(result)
    return result if bad is None else bad


def _poison_first_array(result):
    """Return ``result`` with a NaN written into its first float ndarray."""
    def poison(bad: np.ndarray) -> None:
        bad.flat[0] = np.nan
    return _corrupt_first_array(result, poison)


def _mantissa_offset(rng: np.random.Generator, nbytes: int,
                     itemsize: int) -> int:
    """A byte offset that lands in an element's low-order mantissa bytes.

    Little-endian IEEE floats keep the sign/exponent bits in the top two
    bytes, so restricting the flip to bytes ``[0, itemsize - 2)`` of one
    element keeps the corrupted value finite — *silent* corruption that
    the NaN guard can never see, only checksums.
    """
    n_elems = max(1, nbytes // max(1, itemsize))
    elem = int(rng.integers(n_elems))
    byte = int(rng.integers(max(1, itemsize - 2)))
    return min(elem * itemsize + byte, nbytes - 1)


def _flip_bit_at(buffer: np.ndarray, offset: int, bit: int) -> None:
    """XOR one bit of a writable array viewed as raw bytes."""
    raw = buffer.reshape(-1).view(np.uint8)
    raw[offset] ^= np.uint8(1 << bit)


def _bitflip_first_array(result, rng: np.random.Generator):
    """Return ``result`` with one mantissa bit of its first float array
    flipped, or ``result`` unchanged when it carries no float array."""
    def flip(bad: np.ndarray) -> None:
        offset = _mantissa_offset(rng, bad.nbytes, bad.dtype.itemsize)
        _flip_bit_at(bad, offset, int(rng.integers(8)))
    return _corrupt_first_array(result, flip)


class ChaosInjector:
    """Fires a :class:`ChaosPlan` from the engine's task hooks.

    The engine calls :meth:`before_task` as an attempt starts and
    :meth:`after_task` on its result.  Both receive the engine's
    ``record(kind, detail, seconds)`` callback so every firing lands in the
    run's ``host_events``.
    """

    def __init__(self, plan: ChaosPlan,
                 sleeper: Callable[[float], None] = time.sleep) -> None:
        if isinstance(plan, str):
            plan = parse_chaos_plan(plan)
        self.plan = plan
        self._sleep = sleeper

    def _fires(self, spec_index: int, spec: ChaosSpec, task_id: int) -> bool:
        if spec.task_id is not None:
            return spec.task_id == task_id
        # Fresh generator per decision: no shared stream for racing threads
        # to perturb, so the outcome depends only on the ids.
        u = np.random.default_rng(
            [self.plan.seed, spec_index, task_id]).random()
        return u < spec.probability

    def before_task(self, task_id: int, attempt: int,
                    record: Callable[[str, str, float], None]) -> None:
        """Pre-execution hook: may sleep (straggler) or raise ChaosError."""
        if attempt != 0:  # retries and speculative re-runs are clean
            return
        for i, spec in enumerate(self.plan.specs):
            if spec.kind == "slow_task" and self._fires(i, spec, task_id):
                record("chaos", f"slow_task: task {task_id} delayed "
                       f"{spec.delay:g}s", spec.delay)
                self._sleep(spec.delay)
        for i, spec in enumerate(self.plan.specs):
            if spec.kind == "task_exception" and self._fires(i, spec, task_id):
                record("chaos", f"task_exception: task {task_id} killed",
                       0.0)
                raise ChaosError(
                    f"injected task_exception on task {task_id} (attempt 0)",
                    task_id=task_id, kind="task_exception",
                )

    def worker_before_task(self, task_id: int, attempt: int,
                           record: Callable[[str, str, float], None]) -> None:
        """Worker-process-side pre-execution hook (process engine only).

        The worker_* kinds act here, on the real OS process running the
        task: ``worker_kill`` SIGKILLs it, ``worker_hang`` SIGSTOPs it
        (stalling the heartbeat thread with it).  A dying worker cannot
        record anything — the parent-side supervisor records the
        ``worker_lost``/``worker_respawn`` host events when it detects the
        death.  Ordinary task kinds then run via :meth:`before_task`,
        which ignores the worker_* kinds, so the same plan drives the
        serial and thread engines with the worker faults inert.
        """
        for i, spec in enumerate(self.plan.specs):
            if spec.kind not in WORKER_KINDS or attempt >= spec.kills:
                continue
            if not self._fires(i, spec, task_id):
                continue
            if spec.kind == "worker_kill":
                os.kill(os.getpid(), signal.SIGKILL)
            else:  # worker_hang: the parent's heartbeat timeout reaps us
                os.kill(os.getpid(), signal.SIGSTOP)
        self.before_task(task_id, attempt, record)

    def after_task(self, task_id: int, attempt: int, result: object,
                   record: Callable[[str, str, float], None]) -> object:
        """Post-execution hook: may NaN-poison or silently bitflip the
        returned partial.

        ``nan_result`` keeps the attempt-0-only transient model;
        ``bitflip_partial`` fires while ``attempt < kills`` so persistent
        corruption (corrupt on every recompute) can be staged.
        """
        for i, spec in enumerate(self.plan.specs):
            if spec.kind == "nan_result" and attempt == 0 \
                    and self._fires(i, spec, task_id):
                poisoned = _poison_first_array(result)
                if poisoned is not result:
                    record("chaos",
                           f"nan_result: task {task_id} partial poisoned",
                           0.0)
                    result = poisoned
            elif spec.kind == "bitflip_partial" and attempt < spec.kills \
                    and self._fires(i, spec, task_id):
                rng = np.random.default_rng(
                    [self.plan.seed, i, task_id, 7, attempt])
                flipped = _bitflip_first_array(result, rng)
                if flipped is not result:
                    record("chaos",
                           f"bitflip_partial: task {task_id} partial "
                           f"corrupted (attempt {attempt})", 0.0)
                    result = flipped
        return result

    def on_share(self, share_id: int, key: str, nbytes: int, itemsize: int,
                 record: Callable[[str, str, float], None]) -> Optional[int]:
        """Shared-operand hook: a byte offset to corrupt, or None.

        Called by ``ExecutionEngine.share`` after publishing; the engine
        owns the corruption mechanics (in-process copy vs arena segment),
        this hook only makes the seeded decision and picks a mantissa
        byte so the damage stays finite and silent.
        """
        for i, spec in enumerate(self.plan.specs):
            if spec.kind != "bitflip_arena":
                continue
            if not self._fires(i, spec, share_id):
                continue
            rng = np.random.default_rng([self.plan.seed, i, share_id, 11])
            offset = _mantissa_offset(rng, nbytes, itemsize)
            record("chaos",
                   f"bitflip_arena: shared operand {key!r} (share "
                   f"{share_id}) corrupted at byte {offset}", 0.0)
            return offset
        return None

    def on_checkpoint_write(self, write_id: int, path: str,
                            record: Callable[[str, str, float], None]) -> bool:
        """Checkpoint hook: flip one bit of a just-written npz on disk.

        Called by ``CheckpointStore`` after the atomic replace; ``write_id``
        counts persisted checkpoints from 0.  Returns True when the file
        was corrupted.
        """
        fired = False
        for i, spec in enumerate(self.plan.specs):
            if spec.kind != "bitflip_checkpoint":
                continue
            if not self._fires(i, spec, write_id):
                continue
            rng = np.random.default_rng([self.plan.seed, i, write_id, 13])
            try:
                size = os.path.getsize(path)
                if size <= 0:
                    continue
                offset = int(rng.integers(size))
                with open(path, "r+b") as fh:
                    fh.seek(offset)
                    byte = fh.read(1)
                    if not byte:
                        continue
                    fh.seek(offset)
                    fh.write(bytes([byte[0] ^ (1 << int(rng.integers(8)))]))
            except OSError:
                continue
            record("chaos",
                   f"bitflip_checkpoint: write {write_id} ({path}) "
                   f"corrupted at byte offset", 0.0)
            fired = True
        return fired


def resolve_chaos(chaos: ChaosLike = None) -> Optional[ChaosInjector]:
    """Build (or pass through) a chaos injector.

    ``chaos=None`` consults ``REPRO_CHAOS``; an empty or whitespace-only
    value counts as unset and returns None (no injection).
    """
    if isinstance(chaos, ChaosInjector):
        return chaos
    if chaos is None:
        raw = read_str(ENV_CHAOS)
        if raw is None:
            return None
        chaos = raw
    if isinstance(chaos, str):
        chaos = parse_chaos_plan(chaos)
    if isinstance(chaos, ChaosPlan):
        return ChaosInjector(chaos) if chaos else None
    raise ConfigurationError(
        f"chaos must be a ChaosInjector, ChaosPlan, spec string, or None; "
        f"got {type(chaos).__name__}"
    )
