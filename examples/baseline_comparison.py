#!/usr/bin/env python3
"""Baseline comparison: Lloyd vs bound-based exact accelerations + metrics.

Runs the serial Lloyd baseline, Hamerly's algorithm, Yinyang k-means (the
Table III comparator algorithm, implemented in this repo), and the
host-parallel Lloyd on the same workload; verifies they produce the same
clustering; scores it with the quality metrics; and prints the simulated
machine's time trace for the equivalent Level-3 run.

Run: python examples/baseline_comparison.py
"""

import time

import numpy as np

from repro import toy_machine
from repro.baselines import hamerly, yinyang
from repro.core import init_centroids, lloyd, run_level3
from repro.core.metrics import (
    adjusted_rand_index,
    normalized_mutual_info,
    purity,
    silhouette_score,
)
from repro.data import gaussian_blobs
from repro.reporting import format_table, render_trace


def main() -> None:
    X, truth = gaussian_blobs(n=6000, k=24, d=16, seed=11)
    C0 = init_centroids(X, 24, method="kmeans++", seed=11)

    rows = []
    reference = None
    for name, runner in [
        ("Lloyd (serial)", lambda: (lloyd(X, C0, max_iter=60), None)),
        ("Hamerly", lambda: hamerly(X, C0, max_iter=60)),
        ("Yinyang", lambda: yinyang(X, C0, max_iter=60)),
        ("Lloyd (host-parallel)",
         lambda: (lloyd(X, C0, max_iter=60, engine="process", workers=2),
                  None)),
    ]:
        t0 = time.perf_counter()
        result, stats = runner()
        elapsed = time.perf_counter() - t0
        if reference is None:
            reference = result
        else:
            assert np.array_equal(result.assignments,
                                  reference.assignments), name
        skipped = (f"{stats.fraction_skipped * 100:.0f}%"
                   if stats is not None else "-")
        rows.append([name, result.n_iter, f"{result.inertia:.5f}",
                     f"{elapsed * 1e3:.0f} ms", skipped])
    print(format_table(
        ["algorithm", "iters", "inertia", "host wall-clock",
         "distance work skipped"],
        rows, title="exact k-means variants (identical trajectories)"))

    a = reference.assignments
    print("\nclustering quality vs ground truth:")
    print(f"  purity     {purity(a, truth):.3f}")
    print(f"  NMI        {normalized_mutual_info(a, truth):.3f}")
    print(f"  ARI        {adjusted_rand_index(a, truth):.3f}")
    print(f"  silhouette {silhouette_score(X, a, sample_size=1000):.3f}")

    # The same workload on the simulated machine, with its time trace.
    machine = toy_machine(n_nodes=2, cgs_per_node=2, mesh=4,
                          ldm_bytes=16 * 1024)
    sim = run_level3(X, C0, machine, max_iter=60)
    assert np.array_equal(sim.assignments, reference.assignments)
    print(f"\nsimulated Level-3 run: "
          f"{sim.mean_iteration_seconds():.6f} s/iter (modelled)\n")
    print(render_trace(sim.ledger, top=6))


if __name__ == "__main__":
    main()
