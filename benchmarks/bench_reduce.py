"""Benchmarks of the reduction seam: the serial and tree merge orders.

Two sweeps, standalone (no pytest-benchmark dependency):

* **merge** — raw ``reduce_partials`` wall-clock over synthetic
  ``(sums, counts)`` block partials at large ``k*d``: the serial left fold
  vs the tree order, both folded inline by the engine (a reduce issues no
  engine task, so the tree is timed through a thread engine only to show
  that the engine does not matter), asserting tree/serial numerical
  parity and tree bit-invariance across engines and worker counts;
* **fit** — full ledgered executor fits (toy machine, levels 1-3) with
  ``reduce="serial"`` vs ``reduce="tree"``, asserting bit-identical
  centroids/assignments *between the two topologies' serial/thread
  engines* and identical modelled ledger seconds between topologies
  (combines charge nothing; the modelled reduction cost is topology-
  independent by design).

Run::

    PYTHONPATH=src python benchmarks/bench_reduce.py \
        [--quick] [--check] [--workers N] [--out BENCH_reduce.json]

``--check`` exits non-zero on any parity mismatch.  The tree/serial
``speedup`` is recorded but not gated: both orders run the same number of
merges on one thread, so it measures only how the merge order uses the
cache (``cpu_count`` goes into the JSON).
"""

import argparse
import json
import os
import platform
import sys
import time
import warnings

import numpy as np

from repro.core.kmeans import HierarchicalKMeans
from repro.data.synthetic import gaussian_blobs
from repro.machine.machine import toy_machine
from repro.runtime.engine import SerialEngine, ThreadEngine


def _best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# ---------------------------------------------------------------------------
# merge sweep: raw reduce_partials, serial fold vs tree order (both inline)
# ---------------------------------------------------------------------------

def _merge_sweep(shapes, workers, repeats):
    rows = []
    for (blocks, k, d) in shapes:
        rng = np.random.default_rng(blocks * 31 + k)
        partials = [
            (rng.normal(size=(k, d)), rng.integers(0, 50, size=k))
            for _ in range(blocks)
        ]
        serial_engine = SerialEngine()
        thread_engine = ThreadEngine(workers)

        serial = serial_engine.reduce_partials(partials, topology="serial")
        tree_a = serial_engine.reduce_partials(partials, topology="tree")
        tree_b = thread_engine.reduce_partials(partials, topology="tree")
        identical = (
            # Tree is bit-invariant across engines (fixed merge schedule).
            tree_a[0].tobytes() == tree_b[0].tobytes()
            and tree_a[1].tobytes() == tree_b[1].tobytes()
            # Tree agrees with the fold numerically; counts are int64,
            # so they must match exactly under any association.
            and bool(np.allclose(tree_a[0], serial[0], rtol=1e-12))
            and bool(np.array_equal(tree_a[1], serial[1])))
        t_serial = _best_of(
            lambda: serial_engine.reduce_partials(partials,
                                                  topology="serial"),
            repeats)
        t_tree = _best_of(
            lambda: thread_engine.reduce_partials(partials, topology="tree"),
            repeats)
        rows.append({
            "blocks": blocks, "k": k, "d": d, "workers": workers,
            "serial_seconds": t_serial,
            "tree_seconds": t_tree,
            "speedup": t_serial / t_tree,
            "identical_results": identical,
        })
        print(f"  merge blocks={blocks:3d} k={k:5d} d={d:4d}: "
              f"serial {t_serial:8.4f}s  tree({workers}) {t_tree:8.4f}s  "
              f"{t_serial / t_tree:5.2f}x  "
              f"{'ok' if identical else 'MISMATCH'}")
    return rows


# ---------------------------------------------------------------------------
# fit sweep: ledgered executors, serial vs tree reduction
# ---------------------------------------------------------------------------

def _fit_sweep(workers, max_iter):
    machine = toy_machine(n_nodes=2, cgs_per_node=2, mesh=4,
                          ldm_bytes=16 * 1024)
    X, _ = gaussian_blobs(n=20_000, k=16, d=32, seed=7)
    rows = []
    for level in (1, 2, 3):
        def fit(engine, reduce):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                return HierarchicalKMeans(
                    16, machine=machine, level=level, init="first",
                    max_iter=max_iter, engine=engine, reduce=reduce,
                    workers=workers if engine == "thread" else None).fit(X)

        serial = fit("serial", "serial")
        tree = fit("serial", "tree")
        tree_threaded = fit("thread", "tree")
        identical = (
            # Tree is engine-independent...
            bool(np.array_equal(tree.centroids, tree_threaded.centroids))
            and bool(np.array_equal(tree.assignments,
                                    tree_threaded.assignments))
            and tree.ledger.records == tree_threaded.ledger.records
            # ...agrees with the fold numerically...
            and bool(np.allclose(serial.centroids, tree.centroids,
                                 rtol=1e-9))
            # ...and the modelled seconds are topology-independent
            # (combines charge nothing at the reduce seam).
            and serial.ledger.records == tree.ledger.records)
        rows.append({
            "level": level, "n": X.shape[0], "k": 16, "d": 32,
            "workers": workers,
            "identical_results": identical,
            "modelled_seconds": serial.ledger.total(),
        })
        print(f"  executor level {level}: serial-fold vs tree "
              f"{'parity ok' if identical else 'MISMATCH'} "
              f"(modelled {serial.ledger.total():.3f}s)")
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="reduction-topology sweep (serial fold vs tree)")
    parser.add_argument("--quick", action="store_true",
                        help="smaller shapes and single repetition (CI mode)")
    parser.add_argument("--check", action="store_true",
                        help="fail on any parity mismatch")
    parser.add_argument("--workers", type=int,
                        default=max(2, os.cpu_count() or 1),
                        help="thread-engine width for the tree runs, "
                             "whose bits must not depend on it "
                             "(default: cpu count, min 2)")
    parser.add_argument("--out", default="BENCH_reduce.json",
                        help="output JSON path")
    args = parser.parse_args(argv)

    if args.quick:
        shapes = [(16, 256, 64), (32, 512, 64)]
        repeats, max_iter = 1, 3
    else:
        shapes = [(32, 1024, 128), (64, 1024, 128), (64, 2048, 256)]
        repeats, max_iter = 3, 10

    print(f"merge sweep (best of {repeats}, {args.workers} workers, "
          f"cpu_count={os.cpu_count()}):")
    merge_rows = _merge_sweep(shapes, args.workers, repeats)
    print("executor reduction-parity sweep:")
    fit_rows = _fit_sweep(args.workers, max_iter=max_iter)

    payload = {
        "benchmark": "reduce",
        "mode": "quick" if args.quick else "full",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "workers": args.workers,
        "merge": merge_rows,
        "fit": fit_rows,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")

    if args.check:
        bad = [r for r in merge_rows + fit_rows
               if not r["identical_results"]]
        if bad:
            print(f"CHECK FAILED: reduction parity mismatch in "
                  f"{len(bad)} rows")
            return 1
        best = max(r["speedup"] for r in merge_rows)
        print(f"check ok: all parity rows hold; best tree speedup "
              f"{best:.2f}x on cpu_count={os.cpu_count()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
