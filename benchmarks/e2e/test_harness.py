"""Tests of the end-to-end benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import compare
import fitloop
import layertrace
import summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- order statistics -----------------------------------------------------------

@pytest.mark.parametrize("q", [0, 10, 50, 90, 100])
def test_percentile_matches_numpy_linear(q):
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    assert summary.percentile(values, q) == pytest.approx(
        float(np.percentile(values, q)))


def test_quartiles_and_iqr_share_follow_statistics_quantiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert summary.quartiles(values) == (q1, q3)
    assert summary.iqr_share(values) == pytest.approx((q3 - q1) / 5.5)
    assert summary.quartiles([2.5]) == (2.5, 2.5)


# -- span arithmetic ------------------------------------------------------------

class _FakeClock:
    def __init__(self, ticks):
        self._ticks = iter(ticks)

    def __call__(self):
        return next(self._ticks)


def test_self_time_subtracts_only_direct_children():
    # root [0, 10] > a [1, 5] > b [2, 4]; root > c [6, 7]
    tracer = layertrace.Tracer(clock=_FakeClock([0, 1, 2, 4, 5, 6, 7, 10]))
    root = tracer.enter("root", "x")
    a = tracer.enter("a", "x")
    b = tracer.enter("b", "x")
    tracer.exit(b)
    tracer.exit(a)
    c = tracer.enter("c", "x")
    tracer.exit(c)
    tracer.exit(root)
    spans = {s.name: s for s in tracer.take()}
    assert spans["b"].self_s == 2 and spans["b"].depth == 2
    assert spans["a"].dur == 4 and spans["a"].self_s == 2
    assert spans["c"].self_s == 1
    assert spans["root"].dur == 10 and spans["root"].self_s == 5
    assert sum(s.self_s for s in spans.values()) == spans["root"].dur


def test_out_of_order_exit_is_refused():
    tracer = layertrace.Tracer(clock=_FakeClock([0, 1, 2]))
    outer = tracer.enter("outer", "x")
    tracer.enter("inner", "x")
    with pytest.raises(RuntimeError):
        tracer.exit(outer)


# -- correctness oracle ---------------------------------------------------------

@pytest.fixture(scope="module")
def small_fit():
    from repro import HierarchicalKMeans, lloyd, sunway_machine
    from repro.data import gaussian_blobs
    from repro.errors import ConvergenceWarning

    X, _ = gaussian_blobs(n=2000, k=16, d=8, seed=3)
    model = HierarchicalKMeans(16, machine=sunway_machine(1), seed=3,
                               max_iter=3, kernel="gemm")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        result = model.fit(X)
        oracle = lloyd(X, model.initial_centroids(X), max_iter=3,
                       kernel="gemm")
    return model, X, result, oracle


def test_oracle_accepts_the_fit_and_flags_perturbations(small_fit):
    from dataclasses import replace

    _, _, result, oracle = small_fit
    assert fitloop.oracle_problems(result, oracle) == []
    nudged = replace(result, centroids=result.centroids * (1 + 1e-9))
    assert fitloop.oracle_problems(nudged, oracle)
    labels = result.assignments.copy()
    labels[0] = (labels[0] + 1) % 16
    assert fitloop.oracle_problems(replace(result, assignments=labels),
                                   oracle)
    assert fitloop.oracle_problems(replace(result, n_iter=2), oracle)


def test_repeat_check_is_bitwise(small_fit):
    from dataclasses import replace

    _, _, result, _ = small_fit
    assert fitloop.repeat_problems(result, result) == []
    tiny = result.centroids.copy()
    tiny[0, 0] = np.nextafter(tiny[0, 0], np.inf)
    assert fitloop.repeat_problems(replace(result, centroids=tiny), result)


# -- wrapping -------------------------------------------------------------------

def _bindings():
    """Every (namespace, attribute) -> value a target names, with the
    ``repro`` modules that imported a wrapped module function by name."""
    import importlib

    out = {}
    for target in layertrace.TARGETS:
        module_name, _, cls_name = target.owner.partition(":")
        module = importlib.import_module(module_name)
        for attr in target.attrs:
            if cls_name:
                cls = getattr(module, cls_name)
                out[(cls, attr)] = vars(cls)[attr]
                continue
            original = getattr(module, attr)
            for name, mod in sorted(sys.modules.items()):
                if name.split(".")[0] == "repro" \
                        and getattr(mod, attr, None) is original:
                    out[(mod, attr)] = original
    return out


def test_wrappers_are_fully_removed_after_tracing(small_fit):
    from repro.runtime import engine as engine_module

    model, X, _, _ = small_fit
    before = _bindings()
    assert (engine_module, "verify_partial") in before
    tracer = layertrace.Tracer()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with layertrace.install(tracer):
            for (owner, attr), value in before.items():
                assert getattr(owner, attr) is not value, (owner, attr)
            traced = model.fit(X)
    spans = tracer.take()
    metrics = layertrace.layer_metrics(spans, traced, 16)
    assert metrics["core.executor_base.iterations"] == 3
    assert 0.0 < metrics["trace.coverage"] <= 1.0
    for (owner, attr), value in before.items():
        current = vars(owner)[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        assert current is value, (owner, attr)


def test_chrome_trace_is_complete_events():
    tracer = layertrace.Tracer(clock=_FakeClock([0.0, 0.5, 1.0, 2.0]))
    root = tracer.enter("core.fit.fit", "core.fit")
    child = tracer.enter("core.init.initial_centroids", "core.init")
    tracer.exit(child)
    tracer.exit(root)
    doc = layertrace.chrome_trace(tracer.take(), {"workload": "w"})
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert [e["name"] for e in spans] == ["core.fit.fit",
                                          "core.init.initial_centroids"]
    assert spans[0]["dur"] == 2e6 and spans[1]["ts"] == 5e5
    assert spans[0]["args"]["self_us"] == 1.5e6
    json.dumps(doc)


# -- comparison -----------------------------------------------------------------

def test_compare_verdicts():
    parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.2 for v in parent]
    noisy = [1.0, 1.5, 0.6, 1.3, 0.7, 1.4, 0.8, 1.2, 0.9, 1.1]

    def run(p, c, bound=0.1, better="lower"):
        return compare.verdict(p, c, list(zip(p, c)), better, bound)

    assert run(parent, faster) == "improved"
    assert run(parent, slower) == "worse"
    assert run(parent, parent) == "unchanged"
    assert run(noisy, noisy) == "unresolved"
    assert run(parent, slower, better="higher") == "improved"
    assert run(parent, slower, bound=None) == "worse"
    assert run(parent[:1], faster[:1]) == "unresolved"


# -- the command ----------------------------------------------------------------

def _run(args, cwd, timeout=120):
    return subprocess.run([sys.executable, str(cwd / "benchmarks" / "e2e" /
                                               "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def test_benchmark_json_matches_the_harness():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: w.why for name, w in fitloop.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == \
        fitloop.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == \
        fitloop.PER_LAYER_UNITS


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"),
                                         (1, "per_layer")])
def test_quick_run_emits_every_metric(tmp_path, trace, kind):
    proc = _run(["--quick", "--trace", str(trace), "--out", str(tmp_path)],
                ROOT)
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    for workload in fitloop.WORKLOADS:
        for metric in BENCHMARK[kind]:
            got = line["metrics"][f"{workload}.{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], float)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "road_l1", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
