"""Pluggable execution engine: how per-block work runs on the *host*.

Everything in :mod:`repro.core` charges **modelled** Sunway seconds; this
module decides how the simulator's own numerics are scheduled on the machine
actually running the Python process.  The Assign+Accumulate dataflow of every
partition level is embarrassingly parallel over sample blocks — the paper's
whole point — so the executors hand each block to an
:class:`ExecutionEngine` and merge the per-block ``(sums, counts)`` partials
in fixed block order.

Three engines ship:

``serial``
    A plain in-process loop.  The reference engine.

``thread``
    A shared :class:`~concurrent.futures.ThreadPoolExecutor`.  The block
    kernels are NumPy/BLAS calls that release the GIL, so block-sharded
    GEMM assignment scales on real cores without any pickling or forking.

``process``
    Forked OS workers reading shared-memory operands zero-copy, with a
    crash supervisor (heartbeats, respawn, poison-task quarantine) — see
    :mod:`repro.runtime.process_engine`.

Determinism contract: an engine only changes *scheduling*, never results.
Every engine runs the identical per-block function over the identical block
list and returns results in submission order; because the callers merge the
float partials in that fixed order, centroids, assignments, modelled ledger
seconds, and fault-event replays are bit-identical across engines and
worker counts.  ``tests/runtime/test_engine.py`` enforces this.

Host robustness: every task runs under a :class:`TaskPolicy`, and the
supervision that does not depend on the scheduling lives once, in
:class:`ExecutionEngine` — the map preamble (task ids, shared-operand
verification, the inline path), the bounded retry ladder with exponential
backoff and deterministic jitter, and the sticky degradation to inline
serial execution once a pool is exhausted.  Each pooled engine keeps only
what its own failure unit needs: the thread engine times out futures,
writes off hung slots and quarantines pool threads; the process engine
watches heartbeats, respawns dead workers and quarantines poison tasks.
Every re-run executes the *identical pure block function*, so the
determinism contract survives: only scheduling changes, never numbers.
Modelled :class:`~repro.errors.FaultError` faults are exempt from engine
retries — they belong to the simulated machine and flow straight to the
recovery policies of :mod:`repro.core.recovery`.

Selection: ``HierarchicalKMeans(..., engine="thread", workers=4)``, the same
knobs on every executor and on :func:`~repro.core.lloyd.lloyd`, or the
``REPRO_ENGINE`` / ``REPRO_WORKERS`` environment variables (read only when
no explicit ``engine=`` is given — this is how CI runs the whole test suite
under the thread engine).  ``REPRO_CHAOS`` attaches a seeded host-chaos
injector (see :mod:`repro.runtime.chaos`) the same way.
"""

from __future__ import annotations

import atexit
import os
import sys
import threading
import time
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

import numpy as np

from ..analysis.envvars import (
    ENV_ENGINE,
    ENV_TASK_RETRIES,
    ENV_TASK_TIMEOUT,
    ENV_WORKERS,
    read_float,
    read_int,
    read_str,
)
from ..errors import (
    ConfigurationError,
    FaultError,
    IntegrityError,
    TaskTimeoutError,
)
from .integrity import (
    crc32_array,
    resolve_integrity,
    seal_partial,
    verified_combine,
    verify_partial,
)
from .reduce import (
    CombineFn,
    ReduceLike,
    combine_partials,
    resolve_reduce,
    validate_schedule,
)

#: Names accepted by :func:`resolve_engine`.
ENGINES = ("serial", "thread", "process")

_T = TypeVar("_T")
_R = TypeVar("_R")

@dataclass(frozen=True)
class TaskPolicy:
    """Retry/timeout/quarantine policy for one block task on the host.

    Parameters
    ----------
    max_retries:
        Extra attempts allowed per task after the first one fails (0
        disables retries).
    backoff_s:
        Real seconds of the first backoff delay.
    backoff_factor:
        Multiplier applied to the delay on each subsequent retry.
    jitter:
        Fractional jitter added to each delay.  The jitter is a pure
        function of ``(task_id, attempt)`` — not of the wall clock or a
        shared RNG stream — so replays are bit-identical across engines,
        worker counts, and processes.
    timeout_s:
        Per-task wall-clock timeout in real seconds (None disables).  On
        the thread engine a task that exceeds it is speculatively re-run
        inline — the straggler's slot is marked hung and its eventual
        result discarded.  On the process engine the supervisor kills
        the worker running it and re-queues the task, like any other
        worker death.  Inline (serial / degraded) execution cannot be
        preempted, so timeouts are not enforced there.
    quarantine_after:
        On the thread engine, failures on one pool thread before that
        thread is quarantined.  On the process engine, worker deaths
        caused by one task before that task is quarantined to inline
        execution (poison quarantine).  The serial engine has neither.
    """

    max_retries: int = 2
    backoff_s: float = 0.01
    backoff_factor: float = 2.0
    jitter: float = 0.25
    timeout_s: Optional[float] = None
    quarantine_after: int = 3

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_s < 0 or self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"need backoff_s >= 0 and backoff_factor >= 1, got "
                f"backoff_s={self.backoff_s}, factor={self.backoff_factor}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ConfigurationError(
                f"timeout_s must be > 0 or None, got {self.timeout_s}"
            )
        if self.quarantine_after < 1:
            raise ConfigurationError(
                f"quarantine_after must be >= 1, got {self.quarantine_after}"
            )

    def backoff_delay(self, task_id: int, attempt: int) -> float:
        """Deterministically jittered delay before retry ``attempt`` (1-based)."""
        base = self.backoff_s * self.backoff_factor ** (attempt - 1)
        if base == 0.0 or self.jitter == 0.0:
            return base
        # Seeded by (task_id, attempt): stable across processes, unlike
        # hash(), and no shared RNG stream for threads to race on.
        u = np.random.default_rng([task_id, attempt]).random()
        return base * (1.0 + self.jitter * u)


def resolve_task_policy(policy: Optional[TaskPolicy] = None) -> TaskPolicy:
    """Pass through an explicit policy, else build one from the environment.

    ``REPRO_TASK_RETRIES`` and ``REPRO_TASK_TIMEOUT`` override the
    defaults; empty or whitespace-only values count as unset.
    """
    if policy is not None:
        return policy
    retries = read_int(ENV_TASK_RETRIES)
    timeout = read_float(ENV_TASK_TIMEOUT)
    defaults = TaskPolicy()
    return TaskPolicy(
        max_retries=defaults.max_retries if retries is None else retries,
        timeout_s=defaults.timeout_s if timeout is None else timeout,
    )


def _cpu_count() -> int:
    """The host's CPUs: the default pool width, and what BLAS budgets split."""
    return os.cpu_count() or 1


def _resolve_workers(workers: Optional[int]) -> int:
    """A pool width: ``None`` means one worker per CPU; below 1 is an error."""
    if workers is None:
        return _cpu_count()
    workers = int(workers)
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    return workers


def blas_share(workers: int) -> int:
    """BLAS threads for each of ``workers`` concurrent kernel runners: an
    even split of the host's CPUs, at least one."""
    return max(1, _cpu_count() // workers)


class _QuarantinedSlot(Exception):
    """Internal: a quarantined pool thread refused a task (re-run inline)."""


class _SharedEntry:
    """Bookkeeping for one published shared operand (integrity mode only)."""

    __slots__ = ("source", "value", "crc", "verified")

    def __init__(self, source: np.ndarray, value: Any, crc: int) -> None:
        self.source = source
        self.value = value
        self.crc = crc
        self.verified = False


class ExecutionEngine(ABC):
    """Maps a function over work items; subclasses choose the scheduling."""

    #: Registry name of the engine ("serial", "thread", ...).
    name: str = ""
    #: Host threads the engine may occupy (1 for the serial engine).
    workers: int = 1

    def __init__(self, policy: Optional[TaskPolicy] = None,
                 chaos=None, integrity: Optional[str] = None) -> None:
        self.policy = resolve_task_policy(policy)
        #: Optional :class:`~repro.runtime.chaos.ChaosInjector` perturbing
        #: task execution at this seam (None = no chaos).
        self.chaos = chaos
        #: Integrity mode ("off" | "verify" | "repair").  Constructors never
        #: consult the environment — like chaos, ``REPRO_INTEGRITY`` is
        #: applied only by :func:`resolve_engine` — so explicitly built
        #: engines stay "off" unless told otherwise.
        self.integrity = resolve_integrity(integrity or "off")
        self._events: List[Tuple[str, str, float]] = []
        self._events_lock = threading.Lock()
        self._task_counter = 0
        self._counter_lock = threading.Lock()
        self._share_counter = 0
        self._shared: Dict[str, _SharedEntry] = {}
        self._last_map_ids: range = range(0)
        self._degraded = False

    @abstractmethod
    def map(self, fn: Callable[[_T], _R], items: Iterable[_T]) -> List[_R]:
        """Apply ``fn`` to every item; results in submission order.

        Implementations must not reorder results — callers rely on the
        fixed order to merge float partials deterministically.  Each
        engine delegates to :meth:`_map_tasks`, handing it the pool run
        its scheduling needs.
        """

    def blas_threads(self) -> Optional[int]:
        """BLAS threads the fitting process may use while this engine runs.

        :meth:`~repro.core.executor_base.LevelExecutor.run` holds the
        process at this budget (:func:`repro.runtime.blas.limit`) for the
        iteration loop and the final re-label.  None — the serial and any
        single-worker engine — leaves BLAS untouched.
        """
        return None

    @property
    def degraded(self) -> bool:
        """True once the engine has fallen back to inline serial execution."""
        return self._degraded

    def _degrade(self, reason: str) -> None:
        """Fall back (stickily) to inline serial execution for every map."""
        self._degraded = True
        self._record(
            "degraded_serial",
            f"{self.name} pool exhausted ({reason}); falling back to "
            f"inline serial execution",
        )

    def share(self, key: str, array: np.ndarray) -> Any:
        """Publish a large read-only operand for the tasks of coming maps.

        The in-process engines share by reference — the array itself comes
        back and tasks receive it untouched.  The process engine publishes
        into its :class:`~repro.runtime.shm.SharedArena` (via
        :meth:`_publish`) and returns a compact
        :class:`~repro.runtime.shm.ArrayRef` instead; block tasks resolve
        either form with :func:`repro.runtime.shm.as_ndarray`.  The
        published array must not be mutated in place while tasks may still
        read it (replace it and re-``share`` instead).

        This is also the silent-corruption seam: a ``bitflip_arena`` chaos
        spec may flip one byte of the *published* value here (never of the
        caller's source array), and under ``integrity != "off"`` the
        engine records a CRC32 of the pristine source and re-verifies the
        published bytes before the next :meth:`map` dispatches tasks.
        """
        crc: Optional[int] = None
        prev = self._shared.get(key)
        if prev is not None and prev.source is not array:
            prev = None
        if self.integrity != "off" and isinstance(array, np.ndarray):
            # Identity re-publish (the per-iteration X): the source bytes
            # are unchanged, so the recorded checksum carries over without
            # another CRC pass.
            crc = prev.crc if prev is not None else crc32_array(array)
        shared = self._publish(key, array, crc)
        share_id = self._share_counter
        self._share_counter += 1
        corrupted = False
        if self.chaos is not None and isinstance(array, np.ndarray):
            offset = self.chaos.on_share(
                share_id, key, array.nbytes, array.dtype.itemsize,
                self._record)
            if offset is not None:
                corrupted = True
                shared = self._corrupt_shared(key, shared, int(offset))
        if crc is not None:
            entry = _SharedEntry(array, shared, crc)
            if prev is not None:
                # When the published value is unchanged too, so is its
                # verified state.
                same_value = (shared is prev.value
                              or (not isinstance(shared, np.ndarray)
                                  and shared == prev.value))
                entry.verified = (prev.verified and not corrupted
                                  and same_value)
            self._shared[key] = entry
        return shared

    def _publish(self, key: str, array: np.ndarray,
                 crc: Optional[int]) -> Any:
        """Engine-specific publication; in-process engines share by
        reference.  ``crc`` is the source's CRC32 (None when integrity is
        off)."""
        return array

    # -- shared-operand integrity --------------------------------------------

    def _corrupt_shared(self, key: str, shared: Any, offset: int) -> Any:
        """Apply an injected byte flip to the published value (chaos seam).

        In-process engines corrupt a *copy* so the caller's source array
        stays pristine (that is what repair restores from); the process
        engine overrides this to poke the shared-memory segment instead.
        """
        if not isinstance(shared, np.ndarray):
            return shared
        bad = np.array(shared, copy=True)
        raw = bad.reshape(-1).view(np.uint8)
        raw[min(offset, raw.size - 1)] ^= np.uint8(1)
        return bad

    def _shared_view(self, key: str, entry: _SharedEntry) -> np.ndarray:
        """The bytes tasks will actually read for a published operand."""
        return entry.value

    def _repair_shared(self, key: str, entry: _SharedEntry) -> None:
        """Restore a corrupted published value from its pristine source."""
        if isinstance(entry.value, np.ndarray) \
                and entry.value is not entry.source:
            np.copyto(entry.value, entry.source)

    def _verify_shared(self) -> None:
        """CRC-check every published operand before dispatching tasks.

        Runs at the top of :meth:`map` under ``integrity != "off"``.  Each
        published generation is verified once (re-sharing re-arms the
        check).  ``verify`` raises :class:`~repro.errors.IntegrityError`;
        ``repair`` restores the segment from the retained source array and
        records the repair as host events.
        """
        if self.integrity == "off" or not self._shared:
            return
        for key in sorted(self._shared):
            entry = self._shared[key]
            if entry.verified:
                continue
            if crc32_array(self._shared_view(key, entry)) != entry.crc:
                self._record(
                    "integrity",
                    f"CRC32 mismatch in shared operand {key!r}: published "
                    f"bytes differ from the source array",
                )
                if self.integrity != "repair":
                    raise IntegrityError(
                        f"shared operand {key!r} failed CRC32 verification "
                        f"before task start",
                        location=f"share:{key}",
                    )
                self._repair_shared(key, entry)
                if crc32_array(self._shared_view(key, entry)) != entry.crc:
                    raise IntegrityError(
                        f"shared operand {key!r} still corrupt after repair "
                        f"from source",
                        location=f"share:{key}",
                    )
                self._record(
                    "integrity_repair",
                    f"shared operand {key!r} restored from its source array",
                )
            entry.verified = True

    # -- map/combine/reduce contract ----------------------------------------

    def reduce_partials(self, partials: Sequence[Any],
                        combine: CombineFn = combine_partials,
                        topology: ReduceLike = None) -> Any:
        """Fold ordered partials inline, in the topology's merge order.

        The topology's schedule is a pure function of ``len(partials)``
        (see :mod:`repro.runtime.reduce`), so the merge order — and hence
        the bits — never depends on the engine or on thread timing.  Every
        topology folds here, in the caller: a reduce issues **no** task
        ids and runs **no** chaos hooks, so task ids count map tasks only.

        Under integrity each merge re-validates its ABFT check row and
        seals its result (:func:`~repro.runtime.integrity.verified_combine`)
        and the winner's CRC is verified once at the end.  Operands are not
        re-hashed: leaves were CRC-verified at the map boundary and merge
        results never leave this frame.

        ``combine`` must be pure and non-mutating.  Combines never charge
        the ledger — the executors charge modelled reduction costs in
        canonical order outside engine tasks (reprolint W602).
        """
        slots: List[Any] = list(partials)
        if not slots:
            raise ConfigurationError("cannot reduce zero partials")
        schedule = resolve_reduce(topology).schedule(len(slots))
        winner = validate_schedule(schedule, len(slots))
        verifying = self.integrity != "off"
        for dst, src in schedule:
            if verifying:
                slots[dst] = verified_combine(combine, slots[dst],
                                              slots[src], where="fold")
            else:
                slots[dst] = combine(slots[dst], slots[src])
            slots[src] = None
        if verifying:
            verify_partial(slots[winner], where="final fold")
        return slots[winner]

    def map_reduce(self, fn: Callable[[_T], Any], items: Iterable[_T],
                   combine: CombineFn = combine_partials,
                   topology: ReduceLike = None,
                   return_partials: bool = False) -> Any:
        """Map ``fn`` over ``items`` and reduce the partials in one seam.

        Equivalent to ``reduce_partials(self.map(fn, items), combine,
        topology)``, with every sealed leaf CRC-verified (and, under
        repair, recomputed) between the two.  Only the map issues task ids,
        one per item, whatever the topology.  With ``return_partials=True``
        the result is the pair ``(reduced, partials)`` for callers whose
        cost model also needs the individual per-block partials.  This is
        the canonical merge path for every Assign+Accumulate call site —
        reprolint rule W601 flags hand-rolled accumulation loops over
        ``engine.map`` results.
        """
        work: Sequence[_T] = list(items)
        partials = self.map(fn, work)
        if self.integrity != "off":
            partials = self._verify_map_partials(fn, work, partials)
        reduced = self.reduce_partials(partials, combine, topology)
        if return_partials:
            return reduced, partials
        return reduced

    def _verify_map_partials(self, fn: Callable[[_T], Any],
                             work: Sequence[_T],
                             partials: List[Any]) -> List[Any]:
        """Verify every sealed leaf partial; recompute corrupt ones under
        repair.

        Detection localises corruption to a single block, so repair re-runs
        exactly that block's task — at attempt >= 1, where the attempt-
        gated chaos kinds are clean unless the plan models *persistent*
        corruption (``kills > 1``).  The recompute budget is the ordinary
        ``TaskPolicy.max_retries``; exhausting it records an
        ``integrity_quarantine`` event and escalates the (transient)
        :class:`~repro.errors.IntegrityError` to the caller's recovery
        policy — checkpoint rollback or replanning.
        """
        task_ids = list(self._last_map_ids)
        out = list(partials)
        for index, partial in enumerate(out):
            try:
                verify_partial(partial, where=f"map partial {index}")
                continue
            except IntegrityError:
                task_id = task_ids[index] if index < len(task_ids) else -1
                self._record(
                    "integrity",
                    f"corrupt partial detected in map output "
                    f"(partial {index}, task {task_id})",
                )
                if self.integrity != "repair":
                    raise
            out[index] = self._repair_partial(fn, work[index], task_id, index)
        return out

    def _repair_partial(self, fn: Callable[[_T], Any], item: _T,
                        task_id: int, index: int) -> Any:
        """Recompute one corrupt block under the TaskPolicy budget."""
        budget = max(1, self.policy.max_retries)
        for attempt in range(1, budget + 1):
            candidate = self._run_serial_task(fn, item, task_id,
                                              start_attempt=attempt)
            try:
                verify_partial(candidate,
                               where=f"recomputed partial {index}")
            except IntegrityError:
                continue
            self._record(
                "integrity_repair",
                f"partial {index} (task {task_id}) recomputed cleanly on "
                f"attempt {attempt}",
            )
            return candidate
        self._record(
            "integrity_quarantine",
            f"partial {index} (task {task_id}) still corrupt after "
            f"{budget} recomputes; escalating to the recovery policy",
        )
        raise IntegrityError(
            f"persistent corruption in partial {index} (task {task_id}): "
            f"{budget} recomputes all failed verification",
            location=f"partial:{index}",
        )

    # -- host-event plumbing -------------------------------------------------

    def _record(self, kind: str, detail: str, seconds: float = 0.0) -> None:
        with self._events_lock:
            self._events.append((kind, detail, float(seconds)))

    def drain_events(self) -> List[Tuple[str, str, float]]:
        """Return and clear pending ``(kind, detail, seconds)`` host events."""
        with self._events_lock:
            events, self._events = self._events, []
        return events

    # -- task execution ------------------------------------------------------

    def _issue_task_ids(self, n: int) -> range:
        """Globally-ordered task ids, assigned at submission time.

        Ids are a pure function of submission order, never of completion
        order, so chaos decisions and retry jitter keyed on them replay
        identically across engines and worker counts.
        """
        with self._counter_lock:
            start = self._task_counter
            self._task_counter += n
        return range(start, start + n)

    def _map_tasks(self, fn: Callable[[_T], _R], items: Iterable[_T],
                   pool_map: Optional[Callable[..., List[_R]]] = None
                   ) -> List[_R]:
        """The map every engine runs: the preamble, then inline or pooled.

        Lists the items, issues their task ids, and verifies the shared
        operands before any task starts.  A single-worker engine, a map of
        at most one item, and a degraded engine run the tasks inline;
        otherwise ``pool_map(fn, work, task_ids)`` schedules them.
        """
        work: Sequence[_T] = list(items)
        task_ids = self._issue_task_ids(len(work))
        self._last_map_ids = task_ids
        self._verify_shared()
        if pool_map is None or self.workers == 1 or len(work) <= 1 \
                or self._degraded:
            return [self._run_serial_task(fn, item, tid)
                    for item, tid in zip(work, task_ids)]
        return pool_map(fn, work, task_ids)

    def _attempt(self, fn: Callable[[_T], _R], item: _T, task_id: int,
                 attempt: int) -> _R:
        """One attempt at one task, with the chaos hooks around it.

        Under ``integrity != "off"`` the result is sealed (ABFT checksum
        stamped) *between* task execution and the post-task chaos hook:
        a ``bitflip_partial`` corruption therefore lands on an
        already-sealed carrier, exactly like corruption in transit, and
        the stale checksum betrays it downstream.
        """
        if self.chaos is not None:
            self.chaos.before_task(task_id, attempt, self._record)
        result = fn(item)
        if self.integrity != "off":
            seal_partial(result)
        if self.chaos is not None:
            result = self.chaos.after_task(task_id, attempt, result,
                                           self._record)
        return result

    def _retry_step(self, exc: Exception, task_id: int, attempt: int) -> None:
        """Admit retry ``attempt`` (1-based) of a failed task, or re-raise.

        The one retry rule of every engine: past ``policy.max_retries``
        the original exception propagates; otherwise the deterministic
        backoff is recorded as a ``task_retry`` event and slept.
        """
        if attempt > self.policy.max_retries:
            raise exc
        delay = self.policy.backoff_delay(task_id, attempt)
        self._record(
            "task_retry",
            f"task {task_id} attempt {attempt} after "
            f"{type(exc).__name__}: {exc}",
            delay,
        )
        if delay > 0:
            time.sleep(delay)

    def _run_serial_task(self, fn: Callable[[_T], _R], item: _T,
                         task_id: int, start_attempt: int = 0) -> _R:
        """Inline execution with the bounded-retry policy (no timeout).

        ``start_attempt`` lets a pooled engine continue a task's ladder
        inline after pool-side failures: chaos hooks are attempt-gated, so
        a re-run at attempt ``n`` sees exactly what a pool re-run would.
        """
        attempt = start_attempt
        while True:
            try:
                return self._attempt(fn, item, task_id, attempt)
            except FaultError:
                # Modelled machine faults belong to the recovery policies,
                # not to host retries.
                raise
            except Exception as exc:
                attempt += 1
                self._retry_step(exc, task_id, attempt)


class SerialEngine(ExecutionEngine):
    """In-process loop — the reference scheduling."""

    name = "serial"
    workers = 1

    def map(self, fn: Callable[[_T], _R], items: Iterable[_T]) -> List[_R]:
        return self._map_tasks(fn, items)


# One shared pool per worker count.  Pools are processwide because
# ThreadPoolExecutor keeps its idle threads alive until shutdown: a pool per
# engine instance would leak a thread set per fit() call.
_POOLS: Dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def _shared_pool(workers: int) -> ThreadPoolExecutor:
    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=workers,
                thread_name_prefix=f"repro-engine-{workers}",
            )
            _POOLS[workers] = pool
        return pool


def shutdown_pools(wait: bool = True) -> None:
    """Shut down every shared pool (test teardown + interpreter exit).

    ``wait=False`` is used by the :mod:`atexit` hook so a straggler thread
    abandoned by a task timeout can never hang interpreter exit.  Also
    stops the process engine's worker pools and drains every live
    :class:`~repro.runtime.shm.SharedArena`, so a normal interpreter exit
    leaks no ``/dev/shm`` segment (a SIGKILL'd parent falls back to the
    stdlib resource tracker — see :mod:`repro.runtime.shm`).
    """
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=wait, cancel_futures=not wait)
    # The process engine and arena modules import this module at load time,
    # so reach them through sys.modules: importing them *here* would be
    # pointless when they were never loaded — and impossible from the
    # atexit hook, where fresh imports are forbidden.
    process_engine = sys.modules.get("repro.runtime.process_engine")
    if process_engine is not None:
        process_engine.shutdown_process_pools(wait=wait)
    shm = sys.modules.get("repro.runtime.shm")
    if shm is not None:
        shm.drain_arenas()


# Cached pools must never outlive the interpreter's will to exit: a hung
# worker slot (see ThreadEngine timeouts) would otherwise block the join.
atexit.register(shutdown_pools, wait=False)


class ThreadEngine(ExecutionEngine):
    """Thread-pool scheduling for the GIL-releasing block kernels.

    Parameters
    ----------
    workers:
        Pool width; ``None`` uses ``os.cpu_count()``.  ``workers=1``
        degenerates to the in-process loop (no pool is touched), so the
        engine is safe to select unconditionally.
    policy:
        :class:`TaskPolicy` for retries/timeouts/quarantine; None builds
        one from the ``REPRO_TASK_RETRIES``/``REPRO_TASK_TIMEOUT``
        environment.

    Robustness behaviour (all recorded as host events):

    * a failed task attempt is retried up to ``policy.max_retries`` times
      with jittered exponential backoff, inline in the collecting thread;
    * a task exceeding ``policy.timeout_s`` marks its slot hung, is
      speculatively re-run inline, and the straggler's result is discarded;
    * a slot that accumulates ``policy.quarantine_after`` failures is
      quarantined — it refuses further tasks, which re-run inline;
    * when hung + quarantined slots exhaust the pool, the engine
      degrades (stickily) to inline serial execution.

    None of this changes results: every re-run executes the identical
    pure block function, and results return in submission order.

    BLAS thread budget: the pool threads run the kernels in the fitting
    process, which a run therefore holds at ``max(1, cpu_count //
    workers)`` BLAS threads (:meth:`blas_threads`), so the pool threads
    split the cores instead of each spawning a BLAS thread per CPU.
    """

    name = "thread"

    def __init__(self, workers: Optional[int] = None,
                 policy: Optional[TaskPolicy] = None, chaos=None,
                 integrity: Optional[str] = None) -> None:
        super().__init__(policy=policy, chaos=chaos, integrity=integrity)
        self.workers = _resolve_workers(workers)
        self._state_lock = threading.Lock()
        self._slot_failures: Dict[int, int] = {}
        self._quarantined: set = set()
        self._hung = 0

    def blas_threads(self) -> Optional[int]:
        return blas_share(self.workers) if self.workers > 1 else None

    # -- pool-health bookkeeping --------------------------------------------

    @property
    def healthy_slots(self) -> int:
        """Worker slots neither hung on a straggler nor quarantined."""
        with self._state_lock:
            return self.workers - self._hung - len(self._quarantined)

    def _note_slot_failure(self) -> None:
        ident = threading.get_ident()
        with self._state_lock:
            count = self._slot_failures.get(ident, 0) + 1
            self._slot_failures[ident] = count
            if (count >= self.policy.quarantine_after
                    and ident not in self._quarantined):
                self._quarantined.add(ident)
                quarantined = True
            else:
                quarantined = False
        if quarantined:
            self._record(
                "quarantine",
                f"worker slot {ident} quarantined after {count} failures",
            )
        self._maybe_degrade()

    def _note_hung_slot(self) -> None:
        with self._state_lock:
            self._hung += 1
        self._maybe_degrade()

    def _maybe_degrade(self) -> None:
        if not self._degraded and self.healthy_slots < 1:
            self._degrade(f"{self.workers} workers, {self._hung} hung, "
                          f"{len(self._quarantined)} quarantined")

    # -- task execution ------------------------------------------------------

    def _pool_attempt(self, fn: Callable[[_T], _R], item: _T, task_id: int,
                      attempt: int) -> _R:
        # The quarantine check precedes the chaos hooks so a refused task
        # consumes no chaos decision — its re-run elsewhere sees the same
        # (task_id, attempt) and therefore the same injected behaviour.
        if threading.get_ident() in self._quarantined:
            raise _QuarantinedSlot()
        try:
            return self._attempt(fn, item, task_id, attempt)
        except FaultError:
            raise
        except Exception:
            self._note_slot_failure()
            raise

    def _collect(self, fn: Callable[[_T], _R], item: _T, task_id: int,
                 future) -> _R:
        """Resolve one task's attempt-0 future; every re-run goes inline.

        Only attempt 0 runs on the pool.  Re-runs execute inline in the
        collecting thread: deterministic, immune to further pool sickness,
        and exempt from timeouts (inline code cannot be preempted).
        """
        attempt = 0
        try:
            return future.result(timeout=self.policy.timeout_s)
        except _FuturesTimeout:
            self._note_hung_slot()
            self._record(
                "task_timeout",
                f"task {task_id} attempt {attempt} still running after "
                f"{self.policy.timeout_s:g}s; speculative re-run",
                self.policy.timeout_s or 0.0,
            )
            # The one timeout a task can meet already exceeds a zero
            # retry budget.
            if self.policy.max_retries == 0:
                raise TaskTimeoutError(
                    f"task {task_id} timed out after "
                    f"{self.policy.timeout_s:g}s and max_retries=0 allows "
                    f"no re-run"
                ) from None
            # Speculative re-execution: same (task_id, attempt) so a chaos
            # slow-block decision is not re-rolled; the straggler's
            # eventual result is simply discarded.
        except _QuarantinedSlot:
            pass  # not a real attempt: re-run at the same attempt number
        except FaultError:
            raise
        except Exception as exc:
            attempt = 1
            self._retry_step(exc, task_id, attempt)
        return self._run_serial_task(fn, item, task_id,
                                     start_attempt=attempt)

    def _map_on_pool(self, fn: Callable[[_T], _R], work: Sequence[_T],
                     task_ids: range) -> List[_R]:
        pool = _shared_pool(self.workers)
        futures = [pool.submit(self._pool_attempt, fn, item, tid, 0)
                   for item, tid in zip(work, task_ids)]
        # Collect in submission order regardless of completion order —
        # exactly the determinism contract.
        return [self._collect(fn, item, tid, fut)
                for item, tid, fut in zip(work, task_ids, futures)]

    def map(self, fn: Callable[[_T], _R], items: Iterable[_T]) -> List[_R]:
        return self._map_tasks(fn, items, self._map_on_pool)


#: Anything :func:`resolve_engine` accepts.
EngineLike = Union[str, ExecutionEngine, None]


def resolve_engine(engine: EngineLike = None,
                   workers: Optional[int] = None,
                   integrity: Optional[str] = None) -> ExecutionEngine:
    """Turn an engine name (or ready instance) into an :class:`ExecutionEngine`.

    ``engine=None`` consults ``REPRO_ENGINE`` (default ``"serial"``) and, if
    ``workers`` is also None, ``REPRO_WORKERS``; empty or whitespace-only
    values count as unset (CI matrices export empty strings for the legs
    that don't use a knob).  ``workers > 1`` alone implies the thread
    engine whether it arrives as an argument or via ``REPRO_WORKERS``, so
    ``HierarchicalKMeans(..., workers=4)`` and ``REPRO_WORKERS=4`` both do
    what they say.

    Engines built here (not instance passthrough) also consult
    ``REPRO_CHAOS`` and attach a seeded host-chaos injector when it is set
    — this is how the CI chaos leg runs the whole suite under injected
    host faults — and ``REPRO_INTEGRITY`` for the default integrity mode
    the same way.  An explicit ``integrity=`` always wins, including over
    a passed-through instance's current mode.

    ``engine="process"`` degrades gracefully rather than crash: on hosts
    without the fork start method, with ``workers=1``, or with a single
    CPU and no explicit worker count, the serial engine comes back
    carrying an ``engine_fallback`` host event.  An explicit ``workers>1``
    always gets a real process pool (oversubscription is how single-CPU
    CI exercises it).  A worker count below 1 is a
    :class:`~repro.errors.ConfigurationError` whatever the engine.
    """
    if isinstance(engine, ExecutionEngine):
        if workers is not None and workers != engine.workers:
            raise ConfigurationError(
                f"workers={workers} conflicts with the provided engine "
                f"instance ({engine.workers} workers); pass one or the other"
            )
        if integrity is not None:
            engine.integrity = resolve_integrity(integrity)
        return engine
    if engine is None:
        if workers is not None and workers > 1:
            engine = "thread"
        else:
            env_engine = read_str(ENV_ENGINE)
            if workers is None:
                workers = read_int(ENV_WORKERS)
            if env_engine is not None:
                engine = env_engine
            elif workers is not None and workers > 1:
                engine = "thread"
            else:
                engine = "serial"
    if workers is not None:
        workers = _resolve_workers(workers)
    from .chaos import resolve_chaos  # late import: chaos imports errors only
    chaos = resolve_chaos()
    mode = resolve_integrity(integrity)
    if engine == "serial":
        if workers is not None and workers > 1:
            raise ConfigurationError(
                f"the serial engine is single-threaded; workers={workers} "
                f"requires engine=\"thread\""
            )
        return SerialEngine(chaos=chaos, integrity=mode)
    if engine == "thread":
        return ThreadEngine(workers, chaos=chaos, integrity=mode)
    if engine == "process":
        # Late imports: process_engine imports this module at load time.
        from .process_engine import ProcessEngine, _fork_available
        if not _fork_available():
            fallback = SerialEngine(chaos=chaos, integrity=mode)
            fallback._record(
                "engine_fallback",
                "REPRO_ENGINE=process needs the fork start method, which "
                "this host lacks; degrading to the serial engine",
            )
            return fallback
        workers = _resolve_workers(workers)
        if workers == 1:
            fallback = SerialEngine(chaos=chaos, integrity=mode)
            fallback._record(
                "engine_fallback",
                f"engine=process with workers={workers} has no parallelism "
                f"to offer; degrading to the serial engine",
            )
            return fallback
        return ProcessEngine(workers, chaos=chaos, integrity=mode)
    raise ConfigurationError(
        f"engine must be an ExecutionEngine instance or one of {ENGINES}, "
        f"got {engine!r}"
    )
