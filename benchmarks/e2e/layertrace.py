"""Outside-in layer tracing of one ``HierarchicalKMeans.fit``.

The benchmark does not change ``src/``, so it measures the layers from the
outside: :func:`install` replaces each layer's public callables (listed in
:data:`TARGETS`) with timing wrappers, and the returned :class:`Installed`
handle puts every original back.  A wrapper records one span per call
(name, layer, start, duration, self time, thread) and, for a few layers, a
small dict of counts read from the call's arguments or result.

Self time is a span's duration minus the time of its child spans, tracked
with one stack per thread, so the self times of all spans under the
``fit`` root add up to the root's duration exactly.

Only callables that run in the fitting process are wrapped, and never one
that is pickled to a worker: the process engine ships ``fn`` and its
arguments to forked workers by reference, and pickle refuses a module
attribute that no longer *is* the object being pickled.  Replacing
``repro.runtime.reduce.combine_partials`` (carried inside the tree
reduction's ``functools.partial``) fails with a ``PicklingError``, and so
would replacing the block-task functions.  Under the process engine the
kernels run inside the workers, so kernel spans are not seen at all; the
engine's ``map`` self time then holds the parent's wait for the workers.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Probe = Callable[[str, tuple, dict, Any], Dict[str, Any]]


@dataclass
class Span:
    """One completed call of a wrapped callable."""

    name: str
    layer: str
    start: float
    dur: float
    self_s: float
    tid: int
    depth: int
    info: Optional[Dict[str, Any]] = None


class Tracer:
    """Collects spans in memory, one open-span stack per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: List[Span] = []

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str, layer: str) -> list:
        """Open a span; returns the frame :meth:`exit` closes."""
        frame = [name, layer, self._clock(), 0.0]
        self._stack().append(frame)
        return frame

    def exit(self, frame: list, info: Optional[Dict[str, Any]] = None) -> None:
        """Close the innermost open span of this thread."""
        end = self._clock()
        stack = self._stack()
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        stack.pop()
        name, layer, start, children = frame
        dur = end - start
        if stack:
            stack[-1][3] += dur
        span = Span(name, layer, start, dur, dur - children,
                    threading.get_ident(), len(stack), info)
        with self._lock:
            self.spans.append(span)

    def take(self) -> List[Span]:
        """Return the spans recorded so far and start a fresh list."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans

    def wrap(self, fn: Callable[..., Any], name: str, layer: str,
             probe: Optional[Probe] = None) -> Callable[..., Any]:
        """A timing wrapper around ``fn`` that records into this tracer."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = self.enter(name, layer)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                info = probe(name, args, kwargs, result) if probe else None
                self.exit(frame, info)

        return traced


# -- probes: counts read from a call's arguments or result --------------------

def _kernel_probe(name: str, args: tuple, kwargs: dict,
                  result: Any) -> Dict[str, Any]:
    X, C = args[1], args[2]
    rows, k = int(X.shape[0]), int(C.shape[0])
    if name.endswith(("establish", "assign_accumulate_pruned")) \
            and result is not None:
        evals = int(result[-1])
    else:
        evals = rows * k
    return {"rows": rows, "evals": evals}


def _map_probe(name: str, args: tuple, kwargs: dict,
               result: Any) -> Dict[str, Any]:
    return {"tasks": len(result) if result is not None else 0}


def _checkpoint_probe(name: str, args: tuple, kwargs: dict,
                      result: Any) -> Dict[str, Any]:
    store = args[0]
    wrote = store.durable and (name.endswith("save_initial")
                               or result is True)
    if not wrote:
        return {"writes": 0, "bytes": 0}
    path = os.path.join(store.directory, "checkpoint.npz")
    return {"writes": 1, "bytes": os.path.getsize(path)}


def _run_probe(name: str, args: tuple, kwargs: dict,
               result: Any) -> Dict[str, Any]:
    executor, X = args[0], args[1]
    return {"kernel": executor.kernel.name,
            "pruned_evals": int(sum(executor.pruned_evals_per_iteration)),
            "n": int(X.shape[0]), "d": int(X.shape[1])}


@dataclass(frozen=True)
class Target:
    """Callables of one layer: ``owner`` is ``module`` or ``module:Class``."""

    layer: str
    owner: str
    attrs: Tuple[str, ...]
    probe: Optional[Probe] = None


#: Every wrapped callable, grouped by layer.  The cost-model layer is the
#: pricing half of the simulator: compute/DMA/register/MPI time functions
#: and the ledger charges they feed.
TARGETS: Tuple[Target, ...] = (
    Target("core.fit", "repro.core.kmeans:HierarchicalKMeans", ("fit",)),
    Target("core.init", "repro.core.kmeans:HierarchicalKMeans",
           ("initial_centroids",)),
    Target("core.partition", "repro.core.partition",
           ("plan_level1", "plan_level2", "plan_level3")),
    Target("core.executor_base", "repro.core.executor_base:LevelExecutor",
           ("run",), _run_probe),
    Target("core.update", "repro.core.executor_base:LevelExecutor",
           ("update_step",)),
    Target("core.level", "repro.core.level1:Level1Executor", ("iterate",)),
    Target("core.level", "repro.core.level2:Level2Executor", ("iterate",)),
    Target("core.level", "repro.core.level3:Level3Executor", ("iterate",)),
    Target("core.kernels", "repro.core.kernels:KernelBackend",
           ("assign", "assign_with_distances", "assign_accumulate",
            "pairwise_sq"), _kernel_probe),
    Target("core.kernels", "repro.core.kernels:PrunedKernel",
           ("establish", "assign_accumulate_pruned"), _kernel_probe),
    Target("core.checkpoint", "repro.core.checkpoint:CheckpointStore",
           ("save_initial", "maybe_save"), _checkpoint_probe),
    Target("runtime.engine", "repro.runtime.engine:ExecutionEngine",
           ("share", "reduce_partials")),
    Target("runtime.engine", "repro.runtime.engine:SerialEngine", ("map",),
           _map_probe),
    Target("runtime.engine", "repro.runtime.engine:ThreadEngine", ("map",),
           _map_probe),
    Target("runtime.engine", "repro.runtime.process_engine:ProcessEngine",
           ("map",), _map_probe),
    Target("runtime.integrity", "repro.runtime.integrity",
           ("crc32_array", "seal_partial", "verify_partial",
            "verified_combine", "manifest_digests")),
    Target("runtime.ledger", "repro.runtime.ledger:TimeLedger",
           ("charge", "charge_parallel")),
    Target("runtime.ledger", "repro.runtime.compute:ComputeModel",
           ("time_for_flops", "charge")),
    Target("runtime.ledger", "repro.runtime.dma:DMAEngine",
           ("transfer_time", "read", "write", "stream_time")),
    Target("runtime.ledger", "repro.runtime.regcomm:RegisterComm",
           ("reduce_time", "broadcast_time", "allreduce_time")),
    Target("runtime.ledger", "repro.runtime.mpi:SimComm",
           ("allreduce_time", "bcast_time", "allgather_time", "p2p_time")),
)


class Installed:
    """The replacements :func:`install` made; :meth:`remove` undoes them."""

    def __init__(self) -> None:
        #: (namespace object, attribute, original value)
        self.patches: List[Tuple[Any, str, Any]] = []

    def remove(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    def __enter__(self) -> "Installed":
        return self

    def __exit__(self, *exc: object) -> None:
        self.remove()


def _resolve(owner: str) -> Tuple[Any, bool]:
    module_name, _, cls_name = owner.partition(":")
    module = importlib.import_module(module_name)
    if cls_name:
        return getattr(module, cls_name), True
    return module, False


def install(tracer: Tracer) -> Installed:
    """Wrap every target callable; the handle restores them all.

    A class attribute is replaced on the class that defines it, so
    subclasses that inherit it are traced too.  A module function is
    replaced in every loaded ``repro`` module that imported it by name.
    """
    done = Installed()
    try:
        for target in TARGETS:
            namespace, is_class = _resolve(target.owner)
            for attr in target.attrs:
                if is_class:
                    if attr not in vars(namespace):
                        raise AttributeError(
                            f"{target.owner} defines no {attr!r}; the "
                            f"layer table is out of date")
                    original = vars(namespace)[attr]
                    homes = [namespace]
                else:
                    original = getattr(namespace, attr)
                    homes = [mod for name, mod in sorted(sys.modules.items())
                             if name.split(".")[0] == "repro"
                             and getattr(mod, attr, None) is original]
                name = f"{target.layer}.{attr}"
                wrapper = tracer.wrap(original, name, target.layer,
                                      target.probe)
                for home in homes:
                    done.patches.append((home, attr, original))
                    setattr(home, attr, wrapper)
    except BaseException:
        done.remove()
        raise
    return done


# -- per-fit layer metrics ------------------------------------------------------

def _sum(spans: Sequence[Span], layer: str,
         name: Optional[str] = None) -> float:
    """Summed self time of a layer's spans (of one callable if named)."""
    return sum(s.self_s for s in spans
               if s.layer == layer and (name is None or s.name == name))


def _count(spans: Sequence[Span], layer: str,
           name: Optional[str] = None) -> int:
    return sum(1 for s in spans
               if s.layer == layer and (name is None or s.name == name))


def _info_sum(spans: Sequence[Span], layer: str, key: str) -> int:
    return sum(int(s.info.get(key, 0)) for s in spans
               if s.layer == layer and s.info)


def layer_metrics(spans: Sequence[Span], result: Any, k: int
                  ) -> Dict[str, float]:
    """The per-layer numbers of one traced fit (times in seconds).

    ``spans`` must hold exactly one ``core.fit`` root span.  Kernel time
    and calls count only what ran in this process.  Distance evaluations
    come from the executor's own telemetry under ``kernel="pruned"`` and
    are ``n * k`` per iteration otherwise, so they are known under every
    engine; FLOPs are computed from them as ``3 * evals * d``.
    """
    roots = [s for s in spans if s.layer == "core.fit"]
    if len(roots) != 1:
        raise ValueError(f"expected one fit root span, got {len(roots)}")
    fit_s = roots[0].dur
    runs = [s for s in spans if s.layer == "core.executor_base" and s.info]
    if not runs:
        raise ValueError("the fit ran no level executor")
    run = runs[-1].info
    iterations = int(result.n_iter)
    full_evals = run["n"] * k * iterations
    evals = run["pruned_evals"] if run["kernel"] == "pruned" else full_evals
    kernel_s = _sum(spans, "core.kernels")
    kernel_calls = _count(spans, "core.kernels")
    iterate_calls = _count(spans, "core.level")
    init_s = _sum(spans, "core.init")
    integrity_s = _sum(spans, "runtime.integrity")
    unexplained = roots[0].self_s + _sum(spans, "core.executor_base")
    metrics: Dict[str, float] = {
        "core.init.s": init_s,
        "core.init.frac": init_s / fit_s,
        "core.kernels.s": kernel_s,
        "core.kernels.frac": kernel_s / fit_s,
        "core.kernels.calls": float(kernel_calls),
        "core.kernels.rows_per_call": (
            _info_sum(spans, "core.kernels", "rows") / kernel_calls
            if kernel_calls else 0.0),
        "core.kernels.dist_evals": float(evals),
        "core.kernels.prune_rate": 1.0 - evals / full_evals,
        "core.kernels.gflops": (3.0 * evals * run["d"] / kernel_s / 1e9
                                if kernel_s > 0 else 0.0),
        "runtime.engine.map_s": _sum(spans, "runtime.engine",
                                     name="runtime.engine.map"),
        "runtime.engine.tasks_per_iter": (
            _info_sum(spans, "runtime.engine", "tasks") / iterations),
        "runtime.engine.share_s": _sum(spans, "runtime.engine",
                                       name="runtime.engine.share"),
        "runtime.engine.share_calls": float(_count(
            spans, "runtime.engine", name="runtime.engine.share")),
        "runtime.engine.reduce_s": _sum(
            spans, "runtime.engine", name="runtime.engine.reduce_partials"),
        "runtime.engine.retries": float(sum(
            1 for e in result.host_events if e.kind == "task_retry")),
        "core.level.iterate_self_ms": (
            1e3 * _sum(spans, "core.level") / iterate_calls
            if iterate_calls else 0.0),
        "runtime.ledger.costmodel_s": _sum(spans, "runtime.ledger"),
        "runtime.ledger.costmodel_calls": float(_count(spans,
                                                       "runtime.ledger")),
        "runtime.integrity.s": integrity_s,
        "runtime.integrity.frac": integrity_s / fit_s,
        "runtime.integrity.calls": float(_count(spans, "runtime.integrity")),
        "core.checkpoint.s": _sum(spans, "core.checkpoint"),
        "core.checkpoint.writes": float(_info_sum(spans, "core.checkpoint",
                                                  "writes")),
        "core.checkpoint.bytes": float(_info_sum(spans, "core.checkpoint",
                                                 "bytes")),
        "core.partition.s": _sum(spans, "core.partition"),
        "core.update.s": _sum(spans, "core.update"),
        "core.executor_base.self_s": _sum(spans, "core.executor_base"),
        "core.executor_base.iterations": float(iterations),
        # Every span except the fit root and the executor's iteration loop
        # names a layer doing work; their self times are what the trace
        # explains.
        "trace.coverage": 1.0 - unexplained / fit_s,
    }
    return metrics


def chrome_trace(spans: Sequence[Span], metadata: Dict[str, Any]
                 ) -> Dict[str, Any]:
    """Spans as Chrome trace-event JSON (complete events), for Perfetto."""
    t0 = min((s.start for s in spans), default=0.0)
    pid = os.getpid()
    tids: Dict[int, int] = {}
    events: List[Dict[str, Any]] = []
    for s in sorted(spans, key=lambda s: (s.start, s.depth)):
        tid = tids.setdefault(s.tid, len(tids))
        args: Dict[str, Any] = {"self_us": round(s.self_s * 1e6, 3)}
        if s.info:
            args.update(s.info)
        events.append({"name": s.name, "cat": s.layer, "ph": "X",
                       "ts": round((s.start - t0) * 1e6, 3),
                       "dur": round(s.dur * 1e6, 3),
                       "pid": pid, "tid": tid, "args": args})
    events.append({"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                   "args": {"name": "fit"}})
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": metadata}


def write_chrome_trace(path: str, spans: Sequence[Span],
                       metadata: Dict[str, Any]) -> None:
    """Write :func:`chrome_trace` output to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(spans, metadata), fh)
