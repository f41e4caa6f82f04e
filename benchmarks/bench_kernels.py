"""Microbenchmarks of the numerical kernels every level shares.

These are the hot loops of the execute backend: assignment (distance +
argmin) under both kernel backends, scatter accumulation, and the two
distance formulations compared by the kernel ablation in DESIGN.md.

Two ways to run it:

* ``pytest benchmarks/bench_kernels.py --benchmark-only`` — the usual
  pytest-benchmark microbenches below;
* ``PYTHONPATH=src python benchmarks/bench_kernels.py [--quick] [--check]
  [--out BENCH_kernels.json]`` — a standalone comparison sweep: naive vs
  gemm ``assign`` over a (k, d) grid at n = 100,000, an
  iterations-to-converge sweep of the bounds-pruned kernel against the
  stateless gemm sweep on the flagship shape (per-iteration pruning rate,
  share of candidates on the certified-ball pair path, pairs evaluated
  and speedup, every iteration checked bitwise against naive), plus full
  ledgered vs ``model_costs=False`` fits, written as JSON.  ``--check``
  exits non-zero if gemm is slower than naive on the flagship shape, any
  backend pair disagrees (pruned must be bit-identical to naive), the
  naive kernel's GEMM screen certifies fewer than 99% of the rows on the
  flagship shape (normal data at n = 100,000 in both modes), the pruning
  rate fails to grow toward convergence, or (full mode) the
  late-iteration pruned speedup over gemm falls below 2x.
"""

import numpy as np
import pytest

from repro.core._common import (
    accumulate,
    assign_chunked,
    squared_distances,
    squared_distances_expanded,
    update_centroids,
)
from repro.core.bounds import certified_bounds
from repro.core.kernels import GemmKernel, NaiveKernel, PrunedKernel


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20_000, 64))
    C = rng.normal(size=(64, 64))
    return X, C


def test_assign_chunked(benchmark, workload):
    X, C = workload
    out = benchmark(assign_chunked, X, C)
    assert out.shape == (X.shape[0],)


def test_assign_naive_kernel(benchmark, workload):
    X, C = workload
    out = benchmark(NaiveKernel().assign, X, C)
    assert out.shape == (X.shape[0],)


def test_assign_gemm_kernel(benchmark, workload):
    X, C = workload
    kernel = GemmKernel()
    out = benchmark(kernel.assign, X, C)
    assert out.shape == (X.shape[0],)
    np.testing.assert_array_equal(out, NaiveKernel().assign(X, C))


def test_squared_distances_direct(benchmark, workload):
    X, C = workload
    d2 = benchmark(squared_distances, X[:2000], C)
    assert d2.shape == (2000, 64)


def test_squared_distances_expanded(benchmark, workload):
    X, C = workload
    d2 = benchmark(squared_distances_expanded, X[:2000], C)
    assert d2.shape == (2000, 64)


def test_accumulate(benchmark, workload):
    X, C = workload
    assignments = assign_chunked(X, C)
    sums, counts = benchmark(accumulate, X, assignments, C.shape[0])
    assert counts.sum() == X.shape[0]


def test_update_centroids(benchmark, workload):
    X, C = workload
    assignments = assign_chunked(X, C)
    sums, counts = accumulate(X, assignments, C.shape[0])
    new = benchmark(update_centroids, sums, counts, C)
    assert new.shape == C.shape


# ---------------------------------------------------------------------------
# Standalone sweep: naive vs gemm, ledgered vs NullLedger
# ---------------------------------------------------------------------------

FLAGSHIP = (256, 64)  # the acceptance shape: k=256, d=64 at n=100k

#: Least share of flagship rows the naive kernel's GEMM screen must certify;
#: below it the fast path has rotted into the full direct form.
CERTIFIED_FLOOR = 0.99


def _best_of(fn, repeats):
    import time
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _assign_sweep(n, ks, ds, repeats):
    rng = np.random.default_rng(42)
    rows = []
    for d in ds:
        X = rng.normal(size=(n, d))
        for k in ks:
            C = rng.normal(size=(k, d))
            naive, gemm = NaiveKernel(), GemmKernel()
            a_naive = naive.assign(X, C)
            a_gemm = gemm.assign(X, C)
            identical = bool(np.array_equal(a_naive, a_gemm))
            t_naive = _best_of(lambda: naive.assign(X, C), repeats)
            t_gemm = _best_of(lambda: gemm.assign(X, C), repeats)
            rows.append({
                "n": n, "k": k, "d": d,
                "naive_seconds": t_naive,
                "gemm_seconds": t_gemm,
                "speedup": t_naive / t_gemm,
                "identical_assignments": identical,
            })
            print(f"  assign n={n} k={k:4d} d={d:3d}: "
                  f"naive {t_naive:8.4f}s  gemm {t_gemm:8.4f}s  "
                  f"{t_naive / t_gemm:5.2f}x  "
                  f"{'ok' if identical else 'MISMATCH'}")
    return rows


def _certified_share(n, k, d):
    """Share of rows whose naive-kernel label the GEMM screen certifies."""
    rng = np.random.default_rng(42)
    X = rng.normal(size=(n, d))
    C = rng.normal(size=(k, d))
    return float(NaiveKernel().certified(X, C).mean())


def _timed_best(fn, repeats):
    import time
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


class _BallCounter(PrunedKernel):
    """The pruned kernel, counting the candidates and pairs of each path."""

    pair_rows = pairs = wide_rows = 0

    def reset(self):
        self.pair_rows = self.pairs = self.wide_rows = 0

    def _ball_block(self, block, rows, C, labels, d2, ub, eta, width,
                    near, near_lb):
        # The label's own distance is carried: width - 1 pairs a row.
        self.pair_rows += rows.size
        self.pairs += int(width.sum()) - rows.size
        return super()._ball_block(block, rows, C, labels, d2, ub, eta,
                                   width, near, near_lb)

    def _label_block(self, block, C, ctx):
        self.wide_rows += block.shape[0]
        return super()._label_block(block, C, ctx)


def _convergence_sweep(n, k, d, iters, repeats):
    """Iterations-to-converge comparison: pruned vs gemm, one trajectory.

    The centroid trajectory is advanced by the naive sweep, and every
    iteration checks the pruned kernel's labels, distances, sums and
    counts bitwise against it.  Each iteration times the stateless gemm
    ``assign_accumulate`` (and naive's, for reference) against the pruned
    kernel's stateful step from the previous iteration's committed bounds.
    Early iterations prune nothing (bounds are loose while centroids move);
    the interesting number is the late-iteration speedup over gemm once
    the run settles, which is what the ``--check`` gate asserts.  Each
    bounded iteration also records the share of its candidates whose
    certified ball took the pair path, and the pairs that path evaluated.
    """
    from repro.data.synthetic import gaussian_blobs

    X, _ = gaussian_blobs(n=n, k=k, d=d, seed=11)
    C = np.array(X[:k], copy=True)
    gemm, naive, pruned = GemmKernel(), NaiveKernel(), _BallCounter()
    labels = d2 = lb = anchor = None
    rows = []
    for it in range(1, iters + 1):
        t_gemm, _ = _timed_best(
            lambda: gemm.assign_accumulate(X, C), repeats)
        t_naive, n_out = _timed_best(
            lambda: naive.assign_accumulate(X, C), repeats)
        n_labels, n_d2, n_sums, n_counts = n_out
        if anchor is None:
            t_pruned, p_out = _timed_best(
                lambda: pruned.establish(X, C), repeats)
            pruned.reset()  # no candidates: establishment screens all
        else:
            table = certified_bounds(anchor, C)

            def step():
                pruned.reset()
                return pruned.assign_accumulate_pruned(
                    X, C, labels, d2, lb, *table)

            t_pruned, p_out = _timed_best(step, repeats)
        p_labels, p_d2, p_sums, p_counts, p_lb, n_dist = p_out
        candidates = pruned.pair_rows + pruned.wide_rows
        ball_share = pruned.pair_rows / candidates if candidates else 0.0
        identical = (bool(np.array_equal(n_labels, p_labels))
                     and bool(np.array_equal(n_d2, p_d2))
                     and bool(np.array_equal(n_sums, p_sums))
                     and bool(np.array_equal(n_counts, p_counts)))
        pruning_rate = 1.0 - n_dist / float(n * k)
        rows.append({
            "iteration": it, "n": n, "k": k, "d": d,
            "gemm_seconds": t_gemm,
            "naive_seconds": t_naive,
            "pruned_seconds": t_pruned,
            "speedup": t_gemm / t_pruned,
            "distance_evals": int(n_dist),
            "pruning_rate": pruning_rate,
            "ball_share": ball_share,
            "ball_pairs": int(pruned.pairs),
            "identical": identical,
        })
        print(f"  iter {it:3d}: gemm {t_gemm:8.4f}s  naive {t_naive:8.4f}s  "
              f"pruned {t_pruned:8.4f}s  {t_gemm / t_pruned:5.2f}x  "
              f"pruned {pruning_rate:6.1%} of evals  "
              f"ball {ball_share:6.1%} of candidates, "
              f"{pruned.pairs} pairs  "
              f"{'ok' if identical else 'MISMATCH'}")
        labels, d2, lb = p_labels, p_d2, p_lb
        anchor = np.array(C, copy=True)
        C = update_centroids(n_sums, n_counts, C)
    return rows


def _ledger_sweep(repeats):
    import time

    from repro.core.kmeans import HierarchicalKMeans
    from repro.data.synthetic import gaussian_blobs
    from repro.machine.machine import toy_machine

    machine = toy_machine(n_nodes=2, cgs_per_node=2, mesh=4,
                          ldm_bytes=16 * 1024)
    X, _ = gaussian_blobs(n=20_000, k=16, d=32, seed=7)
    rows = []
    for level in (1, 2, 3):
        def fit(model_costs):
            return HierarchicalKMeans(
                16, machine=machine, level=level, init="first",
                max_iter=15, model_costs=model_costs).fit(X)

        ledgered = fit(True)
        pure = fit(False)
        identical = (bool(np.array_equal(ledgered.assignments,
                                         pure.assignments))
                     and bool(np.array_equal(ledgered.centroids,
                                             pure.centroids)))
        t_led = _best_of(lambda: fit(True), repeats)
        t_null = _best_of(lambda: fit(False), repeats)
        rows.append({
            "level": level, "n": X.shape[0], "k": 16, "d": 32,
            "ledgered_seconds": t_led,
            "null_ledger_seconds": t_null,
            "speedup": t_led / t_null,
            "identical_numerics": identical,
        })
        print(f"  fit level {level}: ledgered {t_led:8.4f}s  "
              f"null {t_null:8.4f}s  {t_led / t_null:5.2f}x  "
              f"{'ok' if identical else 'MISMATCH'}")
    return rows


def main(argv=None):
    import argparse
    import json
    import platform

    parser = argparse.ArgumentParser(
        description="naive-vs-gemm kernel and ledgered-vs-null sweep")
    parser.add_argument("--quick", action="store_true",
                        help="smaller n and fewer repetitions (CI mode)")
    parser.add_argument("--check", action="store_true",
                        help="fail if gemm is slower on the flagship shape, "
                             "any assignments mismatch, pruned differs from "
                             "naive, or the naive GEMM screen certifies "
                             "< 99%% of flagship rows")
    parser.add_argument("--out", default="BENCH_kernels.json",
                        help="output JSON path")
    args = parser.parse_args(argv)

    n = 20_000 if args.quick else 100_000
    # Best of 3 in both modes: naive now runs gemm's GEMM plus its
    # certificate, so the flagship gate's margin is small enough for one
    # noisy timing to flip it.
    repeats = 3
    print(f"assign sweep at n={n} (best of {repeats}):")
    assign_rows = _assign_sweep(n, ks=(16, 64, 256), ds=(16, 64),
                                repeats=repeats)
    certified = _certified_share(100_000, *FLAGSHIP)
    print(f"naive GEMM screen certifies {certified:.4%} of rows at "
          f"n=100000 k={FLAGSHIP[0]} d={FLAGSHIP[1]}")
    if args.quick:
        conv_shape = dict(n=20_000, k=64, d=32, iters=8, repeats=1)
    else:
        conv_shape = dict(n=100_000, k=FLAGSHIP[0], d=FLAGSHIP[1],
                          iters=30, repeats=2)
    print(f"convergence sweep pruned vs gemm (bits vs naive) at "
          f"n={conv_shape['n']} k={conv_shape['k']} d={conv_shape['d']}:")
    convergence_rows = _convergence_sweep(**conv_shape)
    print("ledger sweep:")
    ledger_rows = _ledger_sweep(repeats=1 if args.quick else 2)

    payload = {
        "benchmark": "kernels",
        "mode": "quick" if args.quick else "full",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "assign": assign_rows,
        "certified_share": certified,
        "convergence": convergence_rows,
        "ledger": ledger_rows,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")

    if args.check:
        bad = [r for r in assign_rows if not r["identical_assignments"]]
        bad += [r for r in convergence_rows if not r["identical"]]
        bad += [r for r in ledger_rows if not r["identical_numerics"]]
        if bad:
            print(f"CHECK FAILED: backend mismatch in {len(bad)} rows")
            return 1
        flagship = next(r for r in assign_rows
                        if (r["k"], r["d"]) == FLAGSHIP)
        if flagship["speedup"] < 1.0:
            print(f"CHECK FAILED: gemm slower than naive on flagship shape "
                  f"({flagship['speedup']:.2f}x)")
            return 1
        if certified < CERTIFIED_FLOOR:
            print(f"CHECK FAILED: naive GEMM screen certifies "
                  f"{certified:.2%} of flagship rows < "
                  f"{CERTIFIED_FLOOR:.0%}")
            return 1
        tail = min(5, len(convergence_rows) // 2)
        early_rate = np.mean(
            [r["pruning_rate"] for r in convergence_rows[:tail]])
        late_rate = np.mean(
            [r["pruning_rate"] for r in convergence_rows[-tail:]])
        if late_rate <= early_rate:
            print(f"CHECK FAILED: pruning rate does not grow toward "
                  f"convergence (early {early_rate:.1%}, late "
                  f"{late_rate:.1%})")
            return 1
        late_speedup = float(np.mean(
            [r["speedup"] for r in convergence_rows[-tail:]]))
        if not args.quick and late_speedup < 2.0:
            print(f"CHECK FAILED: late-iteration pruned speedup "
                  f"{late_speedup:.2f}x < 2.0x on the flagship shape")
            return 1
        print(f"check ok: flagship speedup {flagship['speedup']:.2f}x, "
              f"certified {certified:.2%}, "
              f"late pruning rate {late_rate:.1%}, "
              f"late pruned speedup {late_speedup:.2f}x")
    return 0


if __name__ == "__main__":
    import sys
    sys.exit(main())
