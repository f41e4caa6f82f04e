"""End-to-end ``HierarchicalKMeans.fit`` benchmark.

Usage (from the repository root)::

    python benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds T]
                                 [--trace 0|1] [--quick] [--out DIR]

Each workload runs in its own fresh subprocess with every registered
``REPRO_*`` variable removed from its environment.  ``--trace 0`` (the
default) reports the end-to-end metrics; ``--trace 1`` is a separate
traced run reporting the per-layer metrics and writing a Chrome
trace-event file.  The full record of each run (metrics, spreads,
correctness findings, host) is written to ``DIR/<workload>-seed<S>-
trace<T>.json``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
DEFAULT_OUT = HERE / "out"
#: Per-workload subprocess limit; the benchmark contract allows 180 s.
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def hermetic_env(tmp_dir: Path) -> Dict[str, str]:
    """This process's environment minus every registered ``REPRO_*``
    variable, with ``src`` on the import path and temporary files kept
    in ``tmp_dir``."""
    from repro.analysis.envvars import REGISTRY

    env = {k: v for k, v in os.environ.items() if k not in REGISTRY}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp_dir)
    return env


def _git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def host_info() -> Dict[str, Any]:
    """The facts a reader needs to compare runs across hosts."""
    import numpy as np

    blas: Dict[str, Any] = {}
    try:
        config = np.show_config(mode="dicts")
        blas = dict(config["Build Dependencies"]["blas"])
    except (TypeError, KeyError):
        pass
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": _git_sha(),
        "platform": platform.platform(),
    }


def spawn(workload: str, args: argparse.Namespace,
          env: Dict[str, str]) -> Dict[str, Any]:
    """Run one workload in a fresh interpreter and parse its record."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", str(args.out)] + (["--quick"] if args.quick else [])
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload {workload} exited with code "
                           f"{proc.returncode}")
    record: Dict[str, Any] = json.loads(lines[-1])
    record["detail"]["wall_s"] = time.perf_counter() - t0
    return record


def _print_table(record: Dict[str, Any]) -> None:
    detail = record["detail"]
    status = "ok" if record["correct"] else "FAILED"
    print(f"== {detail['workload']} seed={detail['seed']} "
          f"trace={detail['trace']} level={detail['level']} "
          f"kernel={detail['kernel']} engine={detail['engine']} "
          f"fits={detail['fits']} iter_samples={detail['iter_samples']} "
          f"check={status} ({record['failed']}/{record['attempted']} "
          f"failed)")
    for name, m in record["metrics"].items():
        print(f"   {name:32s} {m['value']:>16.6g} {m['unit']}")
    for name, value in detail.get("modelled", {}).items():
        print(f"   {'modelled.' + name:32s} {value:>16.6g} ms (Sunway model)")
    fit = detail.get("fit_s")
    if fit and not detail["trace"]:
        print(f"   {'iter_ms_p90':32s} {detail['iter_ms_p90']:>16.6g} ms "
              f"({detail['iter_beyond_p90']} of {detail['iter_samples']} "
              f"samples beyond)")
        print(f"   fit_s IQR {fit['q1']:.4f}-{fit['q3']:.4f} s over "
              f"R={int(fit['n'])} fits")
    for problem in detail["problems"][:5]:
        print(f"   problem: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fitloop

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None,
                        choices=list(fitloop.WORKLOADS),
                        help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed-loop budget per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="1/16 of the rows and short loops (smoke test)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds = min(args.seconds, 0.5)
    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)
    if args.child:
        # Inside the fresh subprocess: run one workload, print its record.
        print(json.dumps(fitloop.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            str(args.out), quick=args.quick)))
        return 0

    env = hermetic_env(args.out)
    host = host_info()
    records = []
    for workload in [args.workload] if args.workload else fitloop.WORKLOADS:
        record = spawn(workload, args, env)
        record["detail"]["host"] = host
        path = args.out / (f"{workload}-seed{args.seed}-"
                           f"trace{args.trace}.json")
        path.write_text(json.dumps(record, indent=1), encoding="utf-8")
        _print_table(record)
        records.append(record)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['detail']['workload']}.{name}": m
                   for r in records for name, m in r["metrics"].items()}
    line = {"correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": metrics}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
