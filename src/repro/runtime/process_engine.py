"""Crash-tolerant process-pool execution engine.

The thread engine breaks the serial ceiling only where NumPy releases the
GIL; this engine runs block tasks in real OS processes behind the same
:class:`~repro.runtime.engine.ExecutionEngine` seam.  Moving block tasks
into processes buys parallelism the GIL cannot touch — and failure modes
the thread engine can never see: workers SIGKILL'd by the OOM killer,
segfaults in native code, and poison tasks that kill every worker that
touches them.  This engine treats those as *expected events*, mirroring the
paper's premise (§IV–V) that a 10M-core run only completes because the host
layer survives component failure.

Data plane
----------

Workers are forked once per pool and fed over **per-worker duplex pipes**
(never a shared queue: a SIGKILL'd worker can die holding a shared queue's
cross-process lock, wedging every survivor — a dead worker's pipe is simply
discarded).  Large operands travel zero-copy: the engine's :meth:`share`
publishes ``X``/``C`` into a :class:`~repro.runtime.shm.SharedArena` and
tasks carry tiny :class:`~repro.runtime.shm.ArrayRef` handles; results come
back as compact :class:`~repro.runtime.reduce.BlockPartial` objects.
Results are collected in submission order and merged under the reduction
topology, so centroids, ledgers, and fault replays are bit-identical to the
serial engine — the same determinism contract every engine obeys.

Supervision (the headline robustness layer)
-------------------------------------------

* **Heartbeats** — every worker runs a daemon thread stamping a shared
  float64 slot with ``time.monotonic()`` every ``HEARTBEAT_INTERVAL``
  seconds.  CLOCK_MONOTONIC is system-wide, so the parent compares beats
  against its own clock.
* **Dead-worker detection** — the supervision loop watches worker
  exitcodes every tick; a worker whose beat goes stale past the heartbeat
  timeout (``REPRO_HEARTBEAT``) while it holds a task — e.g. SIGSTOP'd by
  ``worker_hang`` chaos — or whose task runs past ``TaskPolicy.timeout_s``
  is SIGKILL'd and treated as dead.
* **Bounded respawn with deterministic backoff** — a dead worker's slot is
  respawned after ``backoff_s * factor^min(streak-1, 6)`` seconds (streak
  resets on any completed task); the per-map respawn budget is
  ``quarantine_after * n_tasks + workers``, and exhausting it degrades the
  engine (stickily) to inline serial execution, like the thread engine's
  pool-exhaustion path.
* **Re-execution in canonical order** — tasks in flight on a dead worker
  re-queue by task id, so surviving workers pick them up in canonical
  submission order.
* **Poison-task quarantine** — a task that kills
  ``TaskPolicy.quarantine_after`` workers is quarantined: it runs inline in
  the parent (serial in-process fallback) and the run still completes.

Every decision lands in the run's host events (``worker_lost``,
``worker_respawn``, ``worker_hung``, ``poison_quarantine``,
``degraded_serial``), draining through the usual
:meth:`~repro.runtime.engine.ExecutionEngine.drain_events` →
:meth:`~repro.runtime.supervisor.RunSupervisor.absorb` path.

Error semantics match the thread engine, because both use the one retry
ladder of :class:`~repro.runtime.engine.ExecutionEngine`: an ordinary
exception raised by a task on a worker is retried inline in the parent
(worker deaths count towards its attempt number, not towards
``max_retries``); modelled :class:`~repro.errors.FaultError` faults pass
straight through to the recovery policies.  The map preamble, the
degrade path and the worker count are shared the same way; heartbeats,
respawn and poison quarantine are this engine's own, because its failure
unit is a worker process rather than a pool thread.  Chaos hooks run
*inside the worker* (attempt-0 only), which is what lets
``worker_kill``/``worker_hang`` crash real processes; the resulting
numbers are still bit-identical because every re-run executes the
identical pure block function.

Selection: ``engine="process"`` (facade/executors/lloyd/CLI) or
``REPRO_ENGINE=process``; worker count from ``workers=``/``REPRO_WORKERS``.
:func:`~repro.runtime.engine.resolve_engine` degrades to the serial engine
(with an ``engine_fallback`` host event, never a crash) when the fork
start method is unavailable, when ``workers=1``, or when the host has a
single CPU and no explicit worker count.  Callables must be module-level
(picklable) — reprolint rule W604 enforces this statically at every engine
call site.
"""

from __future__ import annotations

import bisect
import functools
import multiprocessing as mp
import threading
import time
from multiprocessing.connection import wait as _conn_wait
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
)

import numpy as np

from dataclasses import replace as _dc_replace

from ..analysis.envvars import ENV_HEARTBEAT, read_float
from ..errors import ConfigurationError, FaultError
from . import blas
from .chaos import ChaosInjector, ChaosPlan
from .engine import (
    ExecutionEngine,
    TaskPolicy,
    _resolve_workers,
    _SharedEntry,
    blas_share,
)
from .integrity import seal_partial
from .shm import SharedArena, make_heartbeats

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Real seconds between heartbeat writes in every worker.  Fixed processwide
#: (not per engine) so the shared pool serves engines with different
#: heartbeat *timeouts*; 20 stamps/second costs nothing measurable.
HEARTBEAT_INTERVAL = 0.05

#: Default parent-side heartbeat timeout (``REPRO_HEARTBEAT`` overrides).
DEFAULT_HEARTBEAT_TIMEOUT = 30.0

#: Poll tick of the supervision loop — bounds dead-worker detection latency.
_SUPERVISE_TICK = 0.05

#: Exponent cap for the respawn backoff (backoff_s * factor^cap at worst).
_RESPAWN_BACKOFF_CAP = 6


def _worker_main(slot: int, conn: Any, beats: np.ndarray,
                 interval: float, unshare: Sequence[Any],
                 blas_threads: int) -> None:
    """Worker-process loop: recv task, run it, send the result.

    Runs in a forked child.  ``beats`` is the parent's heartbeat view,
    inherited through fork (same mapping, no attach); the beat thread is a
    daemon so a wedged task body cannot block process exit, while a
    SIGSTOP freezes both threads — exactly what the hang detector needs.

    ``unshare`` holds the fork-inherited copies of parent-side pipe ends —
    this worker's own and its live siblings'.  They must be closed here:
    a worker holding (a copy of) the write end of its own pipe would never
    see EOF on ``recv()`` after a SIGKILL'd parent, and the whole pool
    would outlive the crash as orphans.

    ``blas_threads`` is the worker's BLAS budget, set before the first
    task whatever the parent's count was at the fork.
    """
    blas.pin_worker(blas_threads)
    for other in unshare:
        try:
            other.close()
        except OSError:  # pragma: no cover - already closed
            pass
    stop = threading.Event()

    def _beat() -> None:
        while not stop.is_set():
            beats[slot] = time.monotonic()
            stop.wait(interval)

    beats[slot] = time.monotonic()
    threading.Thread(target=_beat, name="repro-heartbeat",
                     daemon=True).start()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg[0] == "stop":
            break
        _, task_id, attempt, fn, item, plan, integrity = msg
        events: List[Tuple[str, str, float]] = []

        def _record(kind: str, detail: str, seconds: float = 0.0,
                    _events: List[Tuple[str, str, float]] = events) -> None:
            _events.append((kind, detail, float(seconds)))

        try:
            injector = ChaosInjector(plan) if plan is not None else None
            if injector is not None:
                # worker_kill/worker_hang act here: SIGKILL/SIGSTOP this
                # very process.  The parent's supervisor sees the death.
                injector.worker_before_task(task_id, attempt, _record)
            result = fn(item)
            if integrity != "off":
                # Seal before the post-task chaos seam, mirroring
                # ExecutionEngine._attempt: a bitflip (or pickle-transport
                # corruption on the way back) lands on a sealed carrier.
                seal_partial(result)
            if injector is not None:
                result = injector.after_task(task_id, attempt, result,
                                             _record)
            reply: Tuple[Any, ...] = ("ok", task_id, result, events)
        # reprolint: disable=E403 -- shipped to the parent (FaultError-ness included), whose ladder re-raises
        except BaseException as exc:
            reply = ("err", task_id, exc, events, isinstance(exc, FaultError))
        try:
            conn.send(reply)
        # reprolint: disable=E403 -- pickling fallback; no FaultError can originate here
        except Exception as send_exc:
            # Unpicklable result or exception: degrade to a described error
            # so the parent's retry ladder (not a hung recv) handles it.
            if reply[0] == "ok":
                conn.send(("err", task_id, RuntimeError(
                    f"task {task_id} returned an unpicklable result "
                    f"({type(send_exc).__name__}: {send_exc})"),
                    events, False))
            else:
                orig = reply[2]
                conn.send(("err", task_id, RuntimeError(
                    f"{type(orig).__name__}: {orig}"), events, reply[4]))
    try:
        conn.close()
    except OSError:  # pragma: no cover - teardown best-effort
        pass


class _Worker:
    """One pool slot's live process and its private duplex pipe."""

    __slots__ = ("slot", "process", "conn")

    def __init__(self, slot: int, process: Any, conn: Any) -> None:
        self.slot = slot
        self.process = process
        self.conn = conn


class _ProcessPool:
    """A fixed-width set of forked workers with per-slot pipes.

    Shared processwide (like the thread-engine pools): forking is paid once
    per interpreter, not once per ``fit()``.  ``lock`` serialises maps —
    one engine drives the workers at a time, so result messages can never
    interleave between maps.  Chaos plans travel inside each task message,
    keeping the pool itself chaos-agnostic and shareable.
    """

    def __init__(self, workers: int) -> None:
        self.width = int(workers)
        self.ctx = mp.get_context("fork")
        self.hb_shm, self.beats = make_heartbeats(self.width)
        self.lock = threading.Lock()
        self.broken = False
        self.slots: List[Optional[_Worker]] = []
        for i in range(self.width):
            self.slots.append(self._spawn(i))

    def _spawn(self, slot: int) -> _Worker:
        parent_conn, child_conn = self.ctx.Pipe()
        self.beats[slot] = time.monotonic()
        # The fork inherits every open parent-side pipe end — the new
        # worker's own and its live siblings'.  The child closes those
        # copies first thing (the `unshare` list), otherwise a SIGKILL'd
        # parent leaves workers whose recv() never reaches EOF.
        unshare = [parent_conn] + [
            worker.conn for worker in self.slots
            if worker is not None and worker.slot != slot
        ]
        process = self.ctx.Process(
            target=_worker_main,
            args=(slot, child_conn, self.beats, HEARTBEAT_INTERVAL, unshare,
                  blas_share(self.width)),
            name=f"repro-worker-{slot}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(slot, process, parent_conn)

    def _reap(self, worker: _Worker) -> None:
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=5.0)

    def respawn(self, slot: int) -> _Worker:
        """Replace the worker at ``slot`` (reaping any previous process)."""
        old = self.slots[slot]
        if old is not None:
            self._reap(old)
        fresh = self._spawn(slot)
        self.slots[slot] = fresh
        return fresh

    def shutdown(self, wait: bool = True) -> None:
        for worker in self.slots:
            if worker is None or not worker.process.is_alive():
                continue
            try:
                worker.conn.send(("stop",))
            except (OSError, ValueError):
                pass
        for worker in self.slots:
            if worker is None:
                continue
            worker.process.join(timeout=2.0 if wait else 0.2)
            self._reap(worker)
        self.slots = [None] * self.width
        try:
            self.hb_shm.close()
            self.hb_shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover
            pass


# One shared pool per worker count (see _ProcessPool docstring).  Drained by
# repro.runtime.engine.shutdown_pools alongside the thread pools.
_PROCESS_POOLS: Dict[int, _ProcessPool] = {}
_PROCESS_POOLS_LOCK = threading.Lock()


def _shared_process_pool(workers: int) -> _ProcessPool:
    with _PROCESS_POOLS_LOCK:
        pool = _PROCESS_POOLS.get(workers)
        if pool is None or pool.broken:
            if pool is not None:
                pool.shutdown(wait=False)
            pool = _ProcessPool(workers)
            _PROCESS_POOLS[workers] = pool
        return pool


def shutdown_process_pools(wait: bool = True) -> None:
    """Stop every shared worker pool and unlink its heartbeat segment."""
    with _PROCESS_POOLS_LOCK:
        pools = list(_PROCESS_POOLS.values())
        _PROCESS_POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=wait)


def _fork_available() -> bool:
    """True when this platform offers the fork start method workers need."""
    try:
        return "fork" in mp.get_all_start_methods()
    # reprolint: disable=E403 -- platform probe; no FaultError can originate here
    except Exception:  # pragma: no cover - platform-specific
        return False


def _picklable_callable(fn: Callable[..., Any]) -> bool:
    """True when ``fn`` pickles by reference (module-level, not a closure)."""
    probe: Any = fn
    while isinstance(probe, functools.partial):
        probe = probe.func
    qualname = getattr(probe, "__qualname__", "")
    return "<locals>" not in qualname and "<lambda>" not in qualname


class ProcessEngine(ExecutionEngine):
    """Process-pool scheduling with worker supervision (see module docs).

    Parameters
    ----------
    workers:
        Pool width; ``None`` uses ``os.cpu_count()``.  ``workers=1``
        degenerates to the in-process loop (no pool, no fork), so the
        engine is safe to select unconditionally.
    policy:
        :class:`~repro.runtime.engine.TaskPolicy`: ``max_retries`` bounds
        the inline re-runs of a task that raised, ``quarantine_after`` the
        worker deaths one task may cause, and ``timeout_s`` how long a
        worker may hold one task, as described above.
    chaos:
        Optional injector; its plan ships inside every task message so the
        hooks (including the worker_* kinds) run worker-side.
    heartbeat_s:
        Parent-side heartbeat timeout in real seconds; ``None`` consults
        ``REPRO_HEARTBEAT`` (default 30).  A worker holding a task whose
        heartbeat is older than this is presumed wedged and SIGKILL'd.

    BLAS thread budget: the kernels run in the workers, so a run holds the
    fitting process at one BLAS thread (:meth:`blas_threads`), and each
    worker sets itself to ``max(1, cpu_count // workers)`` when it starts,
    respawned workers included.
    """

    name = "process"

    def __init__(self, workers: Optional[int] = None,
                 policy: Optional[TaskPolicy] = None, chaos: Any = None,
                 heartbeat_s: Optional[float] = None,
                 integrity: Optional[str] = None) -> None:
        super().__init__(policy=policy, chaos=chaos, integrity=integrity)
        if not _fork_available():
            raise ConfigurationError(
                "the process engine needs the fork start method; "
                "resolve_engine degrades to serial on such hosts"
            )
        self.workers = _resolve_workers(workers)
        if heartbeat_s is None:
            heartbeat_s = read_float(ENV_HEARTBEAT)
        if heartbeat_s is None:
            heartbeat_s = DEFAULT_HEARTBEAT_TIMEOUT
        if not heartbeat_s > 0:
            raise ConfigurationError(
                f"heartbeat_s must be > 0, got {heartbeat_s}"
            )
        # Floor at a few beat intervals so a legal timeout cannot reap
        # perfectly healthy workers between stamps.
        self.heartbeat_s = max(float(heartbeat_s), 4 * HEARTBEAT_INTERVAL)
        self._arena = SharedArena(tag="engine")

    def blas_threads(self) -> Optional[int]:
        return 1 if self.workers > 1 else None

    # -- zero-copy operand publishing ----------------------------------------

    def _publish(self, key: str, array: np.ndarray,
                 crc: Optional[int]) -> Any:
        """Publish a large read-only operand; returns an ArrayRef handle.

        Tasks resolve the handle with :func:`repro.runtime.shm.as_ndarray`
        — a zero-copy attach in each worker.  Publishing the identical
        array object again is free; a same-shape replacement (the new
        centroids each iteration) rewrites the segment in place, which is
        safe because every map completes before the next publish.  Under
        ``integrity != "off"`` the handle carries the source's CRC32, so
        workers verify the segment bytes on task entry (memoised per
        ``(name, crc)`` generation — see :func:`repro.runtime.shm.as_ndarray`).
        """
        if self.workers == 1 or self._degraded:
            return array
        ref = self._arena.publish(key, array)
        return ref if crc is None else _dc_replace(ref, crc=crc)

    def _corrupt_shared(self, key: str, shared: Any, offset: int) -> Any:
        if isinstance(shared, np.ndarray):  # workers==1 / degraded inline
            return super()._corrupt_shared(key, shared, offset)
        self._arena.corrupt(key, offset)
        return shared

    def _shared_view(self, key: str, entry: _SharedEntry) -> np.ndarray:
        if isinstance(entry.value, np.ndarray):
            return entry.value
        view = self._arena.view(key)
        return view if view is not None else entry.source

    def _repair_shared(self, key: str, entry: _SharedEntry) -> None:
        if isinstance(entry.value, np.ndarray):
            super()._repair_shared(key, entry)
            return
        self._arena.repair(key)

    # -- map -----------------------------------------------------------------

    def map(self, fn: Callable[[_T], _R], items: Iterable[_T]) -> List[_R]:
        return self._map_tasks(fn, items, self._map_on_pool)

    def _map_on_pool(self, fn: Callable[[_T], _R], work: Sequence[_T],
                     task_ids: range) -> List[_R]:
        if not _picklable_callable(fn):
            raise ConfigurationError(
                f"the process engine ships callables to worker processes; "
                f"{getattr(fn, '__qualname__', fn)!r} is a lambda or "
                f"closure and cannot pickle — pass a module-level function "
                f"(reprolint rule W604)"
            )
        pool = _shared_process_pool(self.workers)
        with pool.lock:
            return self._run_on_pool(pool, fn, work, task_ids)

    # -- the supervised pool run ---------------------------------------------

    def _run_on_pool(self, pool: _ProcessPool, fn: Callable[[_T], _R],
                     work: Sequence[_T], task_ids: range) -> List[_R]:
        n = len(work)
        policy = self.policy
        plan: Optional[ChaosPlan] = (
            self.chaos.plan if self.chaos is not None else None)
        results: List[Any] = [None] * n
        attempts = [0] * n      # failed tries of any type (deaths included)
        deaths: Dict[int, int] = {}   # index -> workers killed by this task
        queue: List[int] = list(range(n))   # ascending = canonical order
        inflight: Dict[int, Tuple[int, float]] = {}  # slot -> (idx, t0)
        completed = 0
        respawns = 0
        respawn_streak = 0
        respawn_budget = policy.quarantine_after * n + pool.width

        def _finish_inline(idx: int) -> None:
            nonlocal completed
            results[idx] = self._run_serial_task(
                fn, work[idx], task_ids[idx], start_attempt=attempts[idx])
            completed += 1

        def _respawn_slot(slot: int) -> None:
            nonlocal respawns, respawn_streak
            respawns += 1
            respawn_streak += 1
            if respawns > respawn_budget:
                self._degrade(f"respawn budget of {respawn_budget} exhausted")
                pool.broken = True
                return
            # Deterministic backoff: pure function of the streak length,
            # no wall clock or RNG in the delay itself.
            delay = policy.backoff_s * policy.backoff_factor ** min(
                respawn_streak - 1, _RESPAWN_BACKOFF_CAP)
            if delay > 0:
                time.sleep(delay)
            fresh = pool.respawn(slot)
            self._record(
                "worker_respawn",
                f"worker {slot} respawned (pid {fresh.process.pid}) after "
                f"{delay:.3g}s backoff",
                delay,
            )

        def _worker_down(slot: int, worker: _Worker, why: str) -> None:
            nonlocal completed
            entry = inflight.pop(slot, None)
            pid = worker.process.pid
            code = worker.process.exitcode
            if entry is None:
                self._record(
                    "worker_lost",
                    f"worker {slot} (pid {pid}) {why} while idle "
                    f"(exitcode {code})",
                )
            else:
                idx, _ = entry
                tid = task_ids[idx]
                deaths[idx] = deaths.get(idx, 0) + 1
                attempts[idx] += 1
                self._record(
                    "worker_lost",
                    f"worker {slot} (pid {pid}) {why} running task {tid} "
                    f"(exitcode {code}; death {deaths[idx]} for this task)",
                )
                if deaths[idx] >= policy.quarantine_after:
                    self._record(
                        "poison_quarantine",
                        f"task {tid} killed {deaths[idx]} workers; "
                        f"quarantined to inline serial execution",
                    )
                    _finish_inline(idx)
                else:
                    # Back into the queue at its canonical position: the
                    # survivors re-execute in task-id order.
                    bisect.insort(queue, idx)
            _respawn_slot(slot)

        def _dispatch() -> None:
            for slot in range(pool.width):
                if not queue:
                    return
                if slot in inflight:
                    continue
                worker = pool.slots[slot]
                if worker is None or not worker.process.is_alive():
                    continue  # the sweep will respawn it
                idx = queue.pop(0)
                try:
                    worker.conn.send(("task", task_ids[idx], attempts[idx],
                                      fn, work[idx], plan, self.integrity))
                except OSError:
                    # Died between the liveness check and the send; requeue
                    # and let the sweep take the death path.
                    bisect.insort(queue, idx)
                    continue
                inflight[slot] = (idx, time.monotonic())

        def _sweep() -> None:
            now = time.monotonic()
            for slot in range(pool.width):
                worker = pool.slots[slot]
                if worker is None:
                    continue
                if not worker.process.is_alive():
                    _worker_down(slot, worker, "died")
                    continue
                entry = inflight.get(slot)
                if entry is None:
                    continue
                idx, t0 = entry
                freshness = now - max(float(pool.beats[slot]), t0)
                over_beat = freshness > self.heartbeat_s
                over_task = (policy.timeout_s is not None
                             and now - t0 > policy.timeout_s)
                if not over_beat and not over_task:
                    continue
                limit = (self.heartbeat_s if over_beat
                         else (policy.timeout_s or 0.0))
                self._record(
                    "worker_hung",
                    f"worker {slot} (pid {worker.process.pid}) "
                    f"unresponsive on task {task_ids[idx]} "
                    f"({'stale heartbeat' if over_beat else 'task timeout'}"
                    f" > {limit:g}s); killing it",
                    freshness,
                )
                worker.process.kill()
                worker.process.join(timeout=5.0)
                _worker_down(slot, worker, "was killed as hung")

        def _on_message(slot: int, msg: Tuple[Any, ...]) -> None:
            nonlocal completed, respawn_streak
            entry = inflight.pop(slot, None)
            if entry is None:  # pragma: no cover - defensive
                return
            idx, _ = entry
            tid = task_ids[idx]
            kind = msg[0]
            for event in msg[3]:
                self._record(*event)
            if kind == "ok":
                results[idx] = msg[2]
                completed += 1
                respawn_streak = 0
                return
            exc = msg[2]
            if msg[4]:  # modelled FaultError: recovery's business, no retry
                raise exc
            attempts[idx] += 1
            # A task raises on a worker at most once: its re-runs execute
            # inline in the parent, like the thread engine's, so this is
            # always the ladder's first retry.  Chaos is attempt-gated, so
            # the re-run is clean.
            self._retry_step(exc, tid, 1)
            _finish_inline(idx)

        try:
            while completed < n:
                if self._degraded:
                    # Pool is gone; finish everything pending inline, in
                    # canonical task order.
                    pending = sorted(
                        set(queue)
                        | {inflight[slot][0] for slot in sorted(inflight)})
                    queue.clear()
                    inflight.clear()
                    for idx in pending:
                        _finish_inline(idx)
                    break
                _dispatch()
                conn_slots = {
                    pool.slots[slot].conn: slot  # type: ignore[union-attr]
                    for slot in sorted(inflight)
                    if pool.slots[slot] is not None
                }
                if conn_slots:
                    ready = _conn_wait(list(conn_slots),
                                       timeout=_SUPERVISE_TICK)
                    for conn in ready:
                        slot = conn_slots[conn]
                        if slot not in inflight:
                            continue
                        try:
                            msg = conn.recv()
                        except (EOFError, OSError):
                            continue  # death; the sweep handles it
                        _on_message(slot, msg)
                elif queue:
                    # No live worker holds a task but work remains: give
                    # the sweep a beat to respawn dead slots.
                    time.sleep(_SUPERVISE_TICK)
                _sweep()
            return results
        finally:
            # Never leave a task in flight when the lock is released (an
            # error path above may exit early): a straggler's result
            # arriving during a *later* map would corrupt it.  Kill and
            # respawn the affected workers — fresh pipes carry no stale
            # messages.
            for slot in list(inflight):
                inflight.pop(slot)
                worker = pool.slots[slot]
                if worker is None:
                    continue
                worker.process.kill()
                worker.process.join(timeout=5.0)
                pool.respawn(slot)
