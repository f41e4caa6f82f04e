"""Integrity harness: silent corruption is absorbed, and verification is cheap.

The tentpole claim of the data-integrity layer, measured end to end with
seeded ``bitflip_*`` chaos across all three data planes:

* **absorption** — lloyd under partial + arena bitflip chaos with
  ``integrity="repair"`` finishes **bit-identical** to the fault-free
  serial baseline on both the serial and thread engines, while the same
  plan with ``integrity="off"`` silently converges to different
  centroids (the corruption is real, not self-correcting);
* **checkpoints** — every durable snapshot written under
  ``bitflip_checkpoint`` chaos is detected by the SHA-256 manifest
  (``verify`` raises a typed :class:`~repro.errors.IntegrityError`) and
  a ``repair`` resume falls back to a cold start bit-identical to the
  clean run;
* **overhead** — the clean-path cost of ``verify`` over ``off`` on a
  fault-free run: the median over repeats of each repeat's verify/off
  time ratio, with the three modes interleaved, gated below 10%.

Every row records the chaos/repair event counts that prove corruption
actually fired and was absorbed.  Run::

    PYTHONPATH=src python benchmarks/bench_integrity.py \
        [--quick] [--check] [--workers N] [--out BENCH_integrity.json]

``--check`` exits non-zero when any repair run is not bit-identical, the
off-mode run fails to diverge, any corrupted checkpoint goes undetected,
too few corruptions were injected (500 full / 50 quick), or the
clean-path verify overhead reaches 10%.
"""

import argparse
import json
import os
import platform
import sys
import tempfile
import time
import warnings

import numpy as np

from repro.core.checkpoint import load_checkpoint
from repro.core.init import init_centroids
from repro.core.lloyd import lloyd
from repro.data.synthetic import gaussian_blobs
from repro.errors import IntegrityError
from repro.runtime.chaos import resolve_chaos
from repro.runtime.engine import SerialEngine, ThreadEngine

# Every map task's partial and half the shared publications are hit; the
# repair ladder must absorb all of it without touching the fixed point.
ABSORB_CHAOS = "bitflip_partial:p=1;bitflip_arena:p=0.5;seed=7"
CHECKPOINT_CHAOS = "bitflip_checkpoint:p=1;seed={seed}"


def _event_counts(result):
    counts = {}
    for event in result.host_events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    return counts


def _identical(a, b):
    return (bool(np.array_equal(a.centroids, b.centroids))
            and bool(np.array_equal(a.assignments, b.assignments))
            and a.inertia == b.inertia)


def _run(X, C0, max_iter, chunk_elements, engine=None, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return lloyd(X, C0, max_iter=max_iter,
                     chunk_elements=chunk_elements, engine=engine, **kwargs)


# ---------------------------------------------------------------------------
# absorption sweep: partial + arena bitflips, serial + thread engines
# ---------------------------------------------------------------------------

def _absorption_sweep(shapes, workers, chunk_elements, max_iter):
    rows = []
    for (n, k, d, seed) in shapes:
        X, _ = gaussian_blobs(n=n, k=k, d=d, seed=seed)
        C0 = init_centroids(X, k, method="first")
        clean = _run(X, C0, max_iter, chunk_elements, SerialEngine())

        def chaotic_engine(engine_workers, integrity):
            chaos = resolve_chaos(ABSORB_CHAOS)
            if engine_workers > 1:
                return ThreadEngine(engine_workers, chaos=chaos,
                                    integrity=integrity)
            return SerialEngine(chaos=chaos, integrity=integrity)

        for engine_workers in (1, workers):
            t0 = time.perf_counter()
            repaired = _run(X, C0, max_iter, chunk_elements,
                            chaotic_engine(engine_workers, "repair"))
            repair_seconds = time.perf_counter() - t0
            counts = _event_counts(repaired)
            diverged = not _identical(
                clean, _run(X, C0, max_iter, chunk_elements,
                            chaotic_engine(engine_workers, "off")))
            rows.append({
                "n": n, "k": k, "d": d, "engine_workers": engine_workers,
                "chaos": ABSORB_CHAOS,
                "repair_identical": _identical(clean, repaired),
                "off_diverged": diverged,
                "corruptions": counts.get("chaos", 0),
                "repairs": counts.get("integrity_repair", 0),
                "quarantines": counts.get("integrity_quarantine", 0),
                "repair_seconds": repair_seconds,
            })
            r = rows[-1]
            print(f"  lloyd n={n:6d} k={k:3d} d={d:2d} "
                  f"workers={engine_workers}: "
                  f"{r['corruptions']:4d} corruptions, "
                  f"{r['repairs']:4d} repairs  "
                  f"repair {'ok' if r['repair_identical'] else 'MISMATCH'}  "
                  f"off {'diverged (good)' if diverged else 'IDENTICAL'}")
    return rows


# ---------------------------------------------------------------------------
# checkpoint sweep: every snapshot rots on disk, manifest catches it
# ---------------------------------------------------------------------------

def _checkpoint_sweep(n, k, d, max_iter, seeds, chunk_elements):
    X, _ = gaussian_blobs(n=n, k=k, d=d, seed=9)
    C0 = init_centroids(X, k, method="first")
    clean = _run(X, C0, 2 * max_iter, chunk_elements)
    rows = []
    for seed in seeds:
        with tempfile.TemporaryDirectory() as tmp:
            engine = SerialEngine(chaos=resolve_chaos(
                CHECKPOINT_CHAOS.format(seed=seed)))
            rotted = _run(X, C0, max_iter, chunk_elements, engine,
                          checkpoint_every=1, checkpoint_dir=tmp)
            corruptions = _event_counts(rotted).get("chaos", 0)
            detected = False
            try:
                load_checkpoint(tmp, integrity="verify")
            except IntegrityError:
                detected = True
            resumed = _run(X, C0, 2 * max_iter, chunk_elements,
                           checkpoint_dir=tmp, resume=True,
                           integrity="repair")
            rows.append({
                "seed": seed, "max_iter": max_iter,
                "corruptions": corruptions,  # p=1: every write rotted
                "detected": detected,
                "repair_cold_start_identical": _identical(clean, resumed),
            })
            r = rows[-1]
            print(f"  checkpoint seed={seed}: {corruptions:3d} rotted "
                  f"writes  verify "
                  f"{'detected (good)' if detected else 'SILENT'}  "
                  f"repair resume "
                  f"{'ok' if r['repair_cold_start_identical'] else 'MISMATCH'}")
    return rows


# ---------------------------------------------------------------------------
# overhead sweep: fault-free runs, off vs verify vs repair
# ---------------------------------------------------------------------------

MODES = ("off", "verify", "repair")


def _overhead_sweep(n, k, d, max_iter, repeats, chunk_elements):
    # Production-shaped blocks: the absorption sweep shrinks chunks to
    # maximise injected corruptions, but the overhead gate is about the
    # clean path under a realistic block size.  Each repeat times all
    # three modes back to back, in an order rotated per repeat, so a slow
    # host phase lands on every mode alike; the gate reads the median of
    # the per-repeat verify/off ratios.
    X, _ = gaussian_blobs(n=n, k=k, d=d, seed=5)
    C0 = init_centroids(X, k, method="first")
    for mode in MODES:
        _run(X, C0, max_iter, chunk_elements,
             SerialEngine(integrity=mode))  # warmup
    seconds = {mode: [] for mode in MODES}
    for r in range(repeats):
        for mode in MODES[r % 3:] + MODES[:r % 3]:
            t0 = time.perf_counter()
            _run(X, C0, max_iter, chunk_elements,
                 SerialEngine(integrity=mode))
            seconds[mode].append(time.perf_counter() - t0)
    medians = {mode: float(np.median(t)) for mode, t in seconds.items()}
    overhead = float(np.median(np.divide(seconds["verify"],
                                         seconds["off"]))) - 1.0
    print(f"  clean path n={n} k={k} d={d}: off {medians['off']:.4f}s  "
          f"verify {medians['verify']:.4f}s  repair "
          f"{medians['repair']:.4f}s  overhead {overhead * 100:+.2f}% "
          f"(median of {repeats} paired ratios)")
    return {
        "n": n, "k": k, "d": d, "repeats": repeats,
        "median_seconds": medians,
        "verify_overhead": overhead,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="integrity harness: bitflip corruption absorbed "
                    "bit-identically, clean-path verification stays cheap")
    parser.add_argument("--quick", action="store_true",
                        help="smaller shapes (CI mode)")
    parser.add_argument("--check", action="store_true",
                        help="fail unless repair is bit-identical, off "
                             "diverges, checkpoints are detected, enough "
                             "corruptions fired, and verify overhead < 10%")
    parser.add_argument("--workers", type=int,
                        default=max(2, os.cpu_count() or 1),
                        help="thread-engine width (default: cpu count, "
                             "min 2)")
    parser.add_argument("--out", default="BENCH_integrity.json",
                        help="output JSON path")
    args = parser.parse_args(argv)

    if args.quick:
        shapes = [(2_000, 8, 6, 3)]
        overhead_shape, repeats = (20_000, 16, 8, 20), 7
        checkpoint_iters, seeds = 5, (2,)
        chunk_elements, max_iter = 2_048, 12
        floor = 50
    else:
        shapes = [(2_000, 8, 6, 3), (20_000, 16, 8, 3)]
        overhead_shape, repeats = (60_000, 16, 16, 25), 5
        checkpoint_iters, seeds = 20, (2, 3, 4)
        chunk_elements, max_iter = 4_096, 30
        floor = 500

    print(f"absorption sweep ({args.workers} workers, "
          f"cpu_count={os.cpu_count()}):")
    absorb_rows = _absorption_sweep(shapes, args.workers, chunk_elements,
                                    max_iter)
    print("checkpoint rot sweep:")
    checkpoint_rows = _checkpoint_sweep(
        2_000, 8, 6, checkpoint_iters, seeds, chunk_elements)
    print("clean-path overhead sweep:")
    overhead_row = _overhead_sweep(*overhead_shape, repeats,
                                   chunk_elements=1_000_000)

    corruptions = (sum(r["corruptions"] for r in absorb_rows)
                   + sum(r["corruptions"] for r in checkpoint_rows))
    payload = {
        "benchmark": "integrity",
        "mode": "quick" if args.quick else "full",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "workers": args.workers,
        "total_corruptions": corruptions,
        "corruption_floor": floor,
        "absorption": absorb_rows,
        "checkpoints": checkpoint_rows,
        "overhead": overhead_row,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out} ({corruptions} corruptions injected)")

    if args.check:
        broken = [r for r in absorb_rows if not r["repair_identical"]]
        broken += [r for r in checkpoint_rows
                   if not r["repair_cold_start_identical"]]
        if broken:
            print(f"CHECK FAILED: repair diverged in {len(broken)} row(s)")
            return 1
        tame = [r for r in absorb_rows if not r["off_diverged"]]
        if tame:
            print(f"CHECK FAILED: off-mode run stayed identical in "
                  f"{len(tame)} row(s) — corruption did not bite")
            return 1
        silent = [r for r in checkpoint_rows if not r["detected"]]
        if silent:
            print(f"CHECK FAILED: {len(silent)} corrupted checkpoint(s) "
                  f"loaded silently")
            return 1
        if corruptions < floor:
            print(f"CHECK FAILED: only {corruptions} corruptions injected "
                  f"(need >= {floor})")
            return 1
        if overhead_row["verify_overhead"] >= 0.10:
            print(f"CHECK FAILED: clean-path verify overhead "
                  f"{overhead_row['verify_overhead'] * 100:.2f}% >= 10%")
            return 1
        print("CHECK OK: corruption absorbed bit-identically, "
              "checkpoint rot detected, verify overhead under 10%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
