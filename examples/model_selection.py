#!/usr/bin/env python3
"""Model selection: choosing k, validating stability, trying baselines.

A realistic downstream workflow on top of the public API:

1. sweep k with the elbow rule and with silhouette,
2. check the chosen clustering is stable under bootstrap resampling,
3. compare exact accelerations and streaming approximations on the final k.

Run: python examples/model_selection.py
"""

import numpy as np

from repro.baselines import hamerly, minibatch, streaming_kmeans
from repro.core import init_centroids, lloyd
from repro.core.metrics import (
    bootstrap_stability,
    inertia_sweep,
    silhouette_sweep,
)
from repro.data import gaussian_blobs
from repro.machine.machine import toy_machine
from repro.reporting import format_table


def main() -> None:
    # Data with 6 real clusters; pretend we don't know that.
    X, _ = gaussian_blobs(n=2500, k=6, d=12, spread=0.04, seed=42)
    machine = toy_machine(n_nodes=1, cgs_per_node=2, mesh=4,
                          ldm_bytes=64 * 1024)

    ks = [2, 3, 4, 5, 6, 7, 8, 10]
    elbow = inertia_sweep(X, ks, machine=machine, n_init=3, seed=42)
    sil = silhouette_sweep(X, ks[1:], machine=machine, seed=42)
    print(format_table(
        ["k", "inertia", "silhouette"],
        [[k,
          f"{elbow.scores[i]:.4f}",
          f"{sil.scores[i - 1]:.3f}" if k >= ks[1] else "-"]
         for i, k in enumerate(ks)],
        title="choosing k",
    ))
    print(f"\nelbow suggests k = {elbow.best_k}; "
          f"silhouette suggests k = {sil.best_k}")

    k = sil.best_k
    report = bootstrap_stability(X, k, machine=machine, n_rounds=8, seed=1)
    print(f"bootstrap stability at k={k}: ARI {report.mean:.3f} "
          f"± {report.std:.3f} ({'stable' if report.stable else 'UNSTABLE'})")

    C0 = init_centroids(X, k, method="kmeans++", seed=42)
    ref = lloyd(X, C0, max_iter=60)
    ham, stats = hamerly(X, C0, max_iter=60)
    assert np.array_equal(ham.assignments, ref.assignments)
    mb = minibatch(X, C0, batch_size=256, max_iter=500, seed=42)
    stream, sstats = streaming_kmeans(X, k, chunk_size=500, seed=42)

    print("\n" + format_table(
        ["algorithm", "inertia", "notes"],
        [
            ["Lloyd", f"{ref.inertia:.4f}", f"{ref.n_iter} iterations"],
            ["Hamerly (exact)", f"{ham.inertia:.4f}",
             f"{stats.fraction_skipped * 100:.0f}% distance work skipped"],
            ["mini-batch", f"{mb.inertia:.4f}",
             f"{mb.n_iter} batches of 256"],
            ["streaming D&C", f"{stream.inertia:.4f}",
             f"peak working set {sstats.peak_resident_samples} samples"],
        ],
        title=f"algorithms at k={k}",
    ))


if __name__ == "__main__":
    main()
