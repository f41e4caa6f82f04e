"""Extension experiment: Level 3 + Hamerly bounds (the paper's future work).

Runs the nkd executor with ``kernel="pruned"`` (Hamerly bounds carried
across iterations) against the same executor with the dense ``gemm``
kernel on a clustered toy workload and reports, per iteration, the
fraction of the n·k distance evaluations actually paid and the modelled
time saved — demonstrating that the hierarchy composes with bound-based
Lloyd optimisations, which the paper leaves as future work ("shows how
to optimize this and potentially similar algorithms").
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..core.init import init_centroids
from ..core.level3 import Level3Executor
from ..core.lloyd import lloyd
from ..data.synthetic import gaussian_blobs
from ..machine.machine import toy_machine
from ..reporting.tables import format_seconds, format_table
from .base import ExperimentOutput

N, K, D = 1500, 16, 32
SEED = 77


def run() -> ExperimentOutput:
    """Pruned vs dense Level 3 on identical data, machine, and init."""
    machine = toy_machine(n_nodes=2, cgs_per_node=2, mesh=4,
                          ldm_bytes=64 * 1024)
    X, _ = gaussian_blobs(n=N, k=K, d=D, seed=SEED)
    C0 = init_centroids(X, K, method="first")

    reference = lloyd(X, C0, max_iter=60)
    # Pin both kernels: an env-sourced REPRO_KERNEL must not change the
    # dense baseline the pruning is measured against.
    plain = Level3Executor(machine, kernel="gemm")
    plain_result = plain.run(X, C0, max_iter=60)
    pruned = Level3Executor(machine, kernel="pruned")
    pruned_result = pruned.run(X, C0, max_iter=60)

    total = N * K
    rows = []
    for i in range(1, pruned_result.n_iter + 1):
        evals = pruned.pruned_evals_per_iteration[i - 1]
        t_plain = plain_result.ledger.iteration_time(i)
        t_pruned = pruned_result.ledger.iteration_time(i)
        rows.append([
            i, f"{evals}/{total}", f"{evals / total * 100:5.1f}%",
            format_seconds(t_plain), format_seconds(t_pruned),
            f"{(1 - t_pruned / t_plain) * 100:5.1f}%",
        ])

    exact = (np.array_equal(pruned_result.assignments,
                            reference.assignments)
             and np.allclose(pruned_result.centroids,
                             reference.centroids, rtol=1e-9))
    last_evals = pruned.pruned_evals_per_iteration[-1]
    checks: Dict[str, bool] = {
        "pruned trajectory equals serial Lloyd exactly": exact,
        "same iteration count as the dense executor":
            pruned_result.n_iter == plain_result.n_iter,
        "distance evaluations fall below 25% of n·k once clusters "
        "stabilise":
            last_evals < 0.25 * total,
        "pruned run is cheaper overall (modelled)":
            pruned_result.mean_iteration_seconds()
            < plain_result.mean_iteration_seconds(),
        "the final iteration saves at least 20% modelled time":
            pruned_result.ledger.iteration_time(pruned_result.n_iter)
            < 0.8 * plain_result.ledger.iteration_time(plain_result.n_iter),
    }
    text = format_table(
        ["iter", "distance evals", "frac", "gemm t/iter", "pruned t/iter",
         "saved"],
        rows,
        title=(f"Extension: Level 3 + Hamerly bounds "
               f"(n={N}, k={K}, d={D}, toy machine)"),
    )
    text += (f"\n\nmean s/iter: gemm "
             f"{plain_result.mean_iteration_seconds():.2e}, pruned "
             f"{pruned_result.mean_iteration_seconds():.2e}")
    return ExperimentOutput(
        exp_id="extra_bounded",
        title="Level 3 + triangle-inequality bounds (extension)",
        text=text,
        checks=checks,
    )
