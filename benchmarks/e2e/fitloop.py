"""One workload of the end-to-end ``fit()`` benchmark, run in-process.

:func:`run_workload` builds the workload's data from the seed, fits it in
a closed loop (one caller, the next ``fit()`` only after the previous one
returned), checks every fit against the serial Lloyd oracle and against
the first fit, and returns the metrics.  ``run.py`` calls it inside a
fresh subprocess per workload.

Every fit runs exactly ``iters`` Lloyd iterations (``max_iter=iters``,
``tol=0``; ``iters`` sits below the fewest iterations any seed needs to
converge), so the work per fit does not depend on the seed.  Run to
convergence, the iteration count alone varies up to 4x across seeds
(Road: 24 to 107 over 20 seeds), far beyond any regression bound.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np
from repro import HierarchicalKMeans, lloyd, sunway_machine
from repro.data import dataset
from repro.errors import ConvergenceWarning
from repro.runtime.engine import shutdown_pools
from repro.runtime.supervisor import RunSupervisor

import layertrace
import summary

#: The timed loop runs until the time budget is spent *and* it holds this
#: many iteration samples, so that ``iter_ms_p90`` has ten beyond it.
MIN_ITER_SAMPLES = 100
#: Fewest timed fits per run, whatever the budget.
MIN_FITS = 3
#: Hard stop for the timed loop, well inside the 180 s run limit.
MAX_LOOP_S = 110.0
#: Fresh interpreters timed for ``setup_s``.
SETUP_REPEATS = 5
#: Relative tolerance of the oracle comparison (centroids and inertia).
ORACLE_RTOL = 1e-12


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a Table II stand-in shape plus a config."""

    dataset: str
    n: int
    k: int
    iters: int
    why: str
    model: Dict[str, Any] = field(default_factory=dict)
    #: Pass a checkpoint directory inside the run's output directory.
    durable_checkpoints: bool = False


WORKLOADS: Dict[str, Workload] = {
    "kegg_default": Workload(
        "kegg", 16_384, 256, 4,
        "every facade default: auto picks Level 2 and the naive kernel "
        "takes most of the fit; a change of default kernel shows here only"),
    "road_l1": Workload(
        "road", 100_000, 64, 20,
        "Level 1 with gemm: 256 small CPE blocks per iteration, so "
        "per-task overhead in engine, block tasks and cost model dominates",
        {"kernel": "gemm"}),
    "census_l3": Workload(
        "census", 50_000, 256, 20,
        "the paper's nkd partition with the pruned kernel: 4 large tasks "
        "per iteration, k-means++ init is a large share, X exceeds L2",
        {"level": 3, "kernel": "pruned"}),
    "census_l3_robust": Workload(
        "census", 50_000, 256, 20,
        "census_l3 plus process engine, tree reduce, integrity verify and "
        "a durable checkpoint each iteration: isolates the robustness layers",
        {"level": 3, "kernel": "pruned", "engine": "process", "workers": 2,
         "reduce": "tree", "integrity": "verify", "checkpoint_every": 1},
        durable_checkpoints=True),
}

#: Units of the metrics a plain run reports.  Every one is a measurement
#: that varies from run to run.  The iteration-time tail (``iter_ms_p90``)
#: goes to the run record beside them: host-noise bursts pushed its spread
#: over 10 seeds to 28%, more than any regression bound may allow.
#: The modelled Sunway times are deterministic and go to the record's
#: ``modelled`` section.
END_TO_END_UNITS: Dict[str, str] = {
    "fit_s": "s",
    "iter_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Units of the metrics a traced run reports.  Layers that do no work on
#: some workload (integrity off, kernels inside process-engine workers)
#: report their share of the fit here; their seconds are in the record's
#: ``layers`` section with every other layer number.
PER_LAYER_UNITS: Dict[str, str] = {
    "core.init.s": "s",
    "core.init.frac": "frac",
    "core.kernels.frac": "frac",
    "core.kernels.calls": "count",
    "core.kernels.rows_per_call": "rows",
    "core.kernels.dist_evals": "count",
    "core.kernels.prune_rate": "frac",
    "core.kernels.gflops": "GFLOP/s",
    "runtime.engine.map_s": "s",
    "runtime.engine.tasks_per_iter": "count",
    "runtime.engine.share_s": "s",
    "runtime.engine.share_calls": "count",
    "runtime.engine.reduce_s": "s",
    "runtime.engine.retries": "count",
    "core.level.iterate_self_ms": "ms",
    "runtime.ledger.costmodel_s": "s",
    "runtime.ledger.costmodel_calls": "count",
    "runtime.integrity.frac": "frac",
    "runtime.integrity.calls": "count",
    "core.checkpoint.s": "s",
    "core.checkpoint.writes": "count",
    "core.checkpoint.bytes": "bytes",
    "core.partition.s": "s",
    "core.update.s": "s",
    "core.executor_base.self_s": "s",
    "core.executor_base.iterations": "count",
    "trace.overhead_frac": "frac",
    "trace.coverage": "frac",
}

_MODELLED_CATEGORIES = ("compute", "dma", "regcomm", "network", "checkpoint")

#: Run in a fresh interpreter: import, machine and model construction.
SETUP_PROBE = """\
import json, sys, time
t0 = time.perf_counter()
from repro import HierarchicalKMeans, sunway_machine
spec = json.loads(sys.argv[1])
HierarchicalKMeans(spec["k"], machine=sunway_machine(1), seed=spec["seed"],
                   max_iter=spec["iters"], **spec["model"])
print(repr(time.perf_counter() - t0))
"""


class IterationClock(RunSupervisor):
    """A supervisor that also stamps each iteration's wall time.

    One sample runs from one iteration's start to the next one's, so it
    includes the checkpoint write between them; the last sample of a fit
    ends at its last ``end_iteration``.
    """

    def __init__(self) -> None:
        super().__init__()
        self._samples: List[float] = []
        self._begin: Optional[float] = None
        self._end: Optional[float] = None

    def begin_iteration(self, iteration: int) -> None:
        now = time.perf_counter()
        if self._begin is not None:
            self._samples.append(now - self._begin)
        self._begin, self._end = now, None
        super().begin_iteration(iteration)

    def end_iteration(self, iteration: int) -> None:
        super().end_iteration(iteration)
        self._end = time.perf_counter()

    def take(self) -> List[float]:
        """This fit's iteration times; resets for the next fit."""
        if self._begin is not None and self._end is not None:
            self._samples.append(self._end - self._begin)
        samples, self._samples = self._samples, []
        self._begin = self._end = None
        return samples


# -- correctness ---------------------------------------------------------------

def _rel_diff(a: Any, b: Any) -> float:
    scale = float(np.max(np.abs(b))) if np.size(b) else 0.0
    diff = float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) \
        if np.size(b) else 0.0
    return diff / scale if scale > 0 else diff


def oracle_problems(result: Any, oracle: Any) -> List[str]:
    """Ways ``result`` disagrees with the serial Lloyd oracle (empty = ok).

    Labels and iteration count must match exactly; centroids and every
    iteration's objective within :data:`ORACLE_RTOL` relative.  Bitwise
    equality is not required: the partitioned sums differ in the last
    bits.  The per-iteration objective stands in for ``result.inertia``,
    which the level executors compute against the last iteration's labels
    while ``lloyd`` re-labels first whenever ``max_iter`` stops the run.
    """
    problems = []
    if result.n_iter != oracle.n_iter:
        problems.append(f"n_iter {result.n_iter} != oracle {oracle.n_iter}")
    if not np.array_equal(result.assignments, oracle.assignments):
        changed = int((result.assignments != oracle.assignments).sum())
        problems.append(f"{changed} labels differ from the oracle")
    if result.centroids.shape != oracle.centroids.shape:
        problems.append("centroid shape differs from the oracle")
    elif _rel_diff(result.centroids, oracle.centroids) > ORACLE_RTOL:
        problems.append(
            f"centroids differ from the oracle by "
            f"{_rel_diff(result.centroids, oracle.centroids):.3g} relative")
    ours = [h.inertia for h in result.history]
    theirs = [h.inertia for h in oracle.history]
    if len(ours) != len(theirs) or _rel_diff(ours, theirs) > ORACLE_RTOL:
        problems.append("per-iteration inertia differs from the oracle")
    return problems


def _fingerprint(result: Any) -> tuple:
    modelled = (result.ledger.mean_iteration_time()
                if result.ledger is not None else None)
    return (result.centroids.tobytes(), result.assignments.tobytes(),
            float(result.inertia), int(result.n_iter), modelled)


def repeat_problems(result: Any, first: Any) -> List[str]:
    """Ways ``result`` differs bitwise from the workload's first fit."""
    names = ("centroids", "assignments", "inertia", "n_iter",
             "modelled iteration time")
    return [f"{name} not bitwise identical to the first fit"
            for name, a, b in zip(names, _fingerprint(result),
                                  _fingerprint(first)) if a != b]


# -- measurement ---------------------------------------------------------------

def measure_setup(spec: Workload, seed: int, extra_model: Dict[str, Any],
                  repeats: int) -> List[float]:
    """Set-up seconds in ``repeats`` fresh interpreters, one at a time."""
    probe = json.dumps({"k": spec.k, "seed": seed, "iters": spec.iters,
                        "model": {**spec.model, **extra_model}})
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE, probe],
                             check=True, capture_output=True, text=True,
                             timeout=60)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def modelled_per_iteration(ledger: Any) -> Dict[str, float]:
    """Mean modelled milliseconds per iteration, in total and by ledger
    category: the paper's metric, a pure function of the run."""
    rows = [b for b in ledger.iteration_breakdowns() if b.iteration >= 1]
    out = {"iter_ms": 1e3 * ledger.mean_iteration_time()}
    for c in _MODELLED_CATEGORIES:
        out[f"{c}_ms"] = 1e3 * sum(b.by_category.get(c, 0.0)
                                   for b in rows) / len(rows)
    return out


class _Checker:
    """Counts fits and failed checks, and keeps every problem found."""

    def __init__(self, oracle: Any) -> None:
        self.oracle = oracle
        self.first: Any = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fit(self, model: Any, X: Any) -> tuple:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = model.fit(X)
        except Exception as exc:  # a raising fit is a counted failure
            self.failed += 1
            self.problems.append(f"fit raised {type(exc).__name__}: {exc}")
            return None, time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        problems = oracle_problems(result, self.oracle)
        if self.first is None:
            self.first = result
        else:
            problems += repeat_problems(result, self.first)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return result, elapsed


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out_dir: str, quick: bool = False) -> Dict[str, Any]:
    """Run one workload; returns the metrics plus the run's details."""
    warnings.simplefilter("ignore", ConvergenceWarning)
    spec = WORKLOADS[name]
    n = spec.n // 16 if quick else spec.n
    min_samples = 10 if quick else MIN_ITER_SAMPLES
    min_fits = 1 if quick else MIN_FITS
    X = dataset(spec.dataset).load(seed=seed, max_n=n)
    extra: Dict[str, Any] = {}
    ckpt_dir = None
    if spec.durable_checkpoints:
        ckpt_dir = os.path.join(out_dir, f"ckpt-{name}-{os.getpid()}")
        extra["checkpoint_dir"] = ckpt_dir
    setup = ([] if trace else
             measure_setup(spec, seed, extra, 1 if quick else SETUP_REPEATS))

    clock = IterationClock()
    model = HierarchicalKMeans(spec.k, machine=sunway_machine(1), seed=seed,
                               max_iter=spec.iters, supervisor=clock,
                               **spec.model, **extra)
    oracle = lloyd(X, model.initial_centroids(X), max_iter=spec.iters,
                   tol=0.0, kernel=model.kernel.name)
    checker = _Checker(oracle)
    tracer = layertrace.Tracer()
    fit_times: List[float] = []
    traced_times: List[float] = []
    iter_samples: List[float] = []
    layer_rows: List[Dict[str, float]] = []
    last_spans: List[layertrace.Span] = []
    try:
        # Warm-up: fills caches and forks the process pool before any
        # wrapper is installed, so workers never inherit one.
        checker.fit(model, X)
        clock.take()
        t_start = time.perf_counter()
        while True:
            spent = time.perf_counter() - t_start
            enough = (len(fit_times) >= min_fits
                      and (trace or len(iter_samples) >= min_samples))
            if trace:
                enough = enough and len(traced_times) >= min_fits
            if spent >= MAX_LOOP_S or (spent >= seconds and enough):
                break
            result, elapsed = checker.fit(model, X)
            samples = clock.take()
            if result is None:
                continue
            fit_times.append(elapsed)
            iter_samples.extend(samples)
            if trace:
                with layertrace.install(tracer):
                    traced, elapsed = checker.fit(model, X)
                clock.take()
                spans = tracer.take()
                if traced is not None:
                    traced_times.append(elapsed)
                    layer_rows.append(layertrace.layer_metrics(
                        spans, traced, spec.k))
                    last_spans = spans
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutdown_pools(wait=True)
        if ckpt_dir is not None:
            shutil.rmtree(ckpt_dir, ignore_errors=True)

    detail: Dict[str, Any] = {
        "workload": name, "seed": seed, "trace": int(trace), "quick": quick,
        "shape": list(X.shape), "k": spec.k, "iters": spec.iters,
        "level": model.selected_level_, "kernel": model.kernel.name,
        "engine": model.engine.name, "fits": len(fit_times),
        "fit_s": summary.describe(fit_times) if fit_times else None,
        "fit_times_s": fit_times,
        "iter_samples": len(iter_samples),
        "problems": checker.problems[:20],
    }
    if checker.first is not None:
        detail["oracle_max_centroid_diff"] = float(np.max(np.abs(
            checker.first.centroids - oracle.centroids)))
    metrics: Dict[str, float] = {}
    if checker.first is not None and fit_times:
        detail["modelled"] = modelled_per_iteration(checker.first.ledger)
        if trace:
            layers = {key: summary.median([r[key] for r in layer_rows])
                      for key in layer_rows[0]}
            layers["trace.overhead_frac"] = (
                summary.median(traced_times) / summary.median(fit_times) - 1)
            metrics.update(layers)
            detail["layers"] = layers
            detail["traced_fit_s"] = summary.describe(traced_times)
            trace_path = os.path.join(out_dir,
                                      f"trace-{name}-seed{seed}.json")
            layertrace.write_chrome_trace(trace_path, last_spans,
                                          {"workload": name, "seed": seed})
            detail["chrome_trace"] = trace_path
        else:
            ms = [1e3 * s for s in iter_samples]
            p90 = summary.percentile(ms, 90)
            metrics.update({
                "fit_s": summary.median(fit_times),
                "iter_ms_p50": summary.percentile(ms, 50),
                "setup_s": summary.median(setup),
                "peak_rss_mb": peak_rss_mb,
            })
            detail["iter_ms_p90"] = p90
            detail["iter_beyond_p90"] = sum(1 for v in ms if v > p90)
            detail["setup_samples_s"] = setup
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    return {
        "correct": checker.failed == 0 and set(units) <= set(metrics),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit}
                    for key, unit in units.items() if key in metrics},
        "detail": detail,
    }
