"""Extension experiment: native high-d clustering vs PCA-then-cluster.

The paper's introduction motivates the whole system with workloads that
have "an intrinsically high dimensional feature space where traditional
dimensionality reduction techniques are commonly used" — i.e., where
reduce-then-cluster is the workaround forced by scale limits, and a lossy
one.  This experiment makes that claim measurable: with k clusters on the
one-hot simplex the structure is intrinsically (k-1)-dimensional, so *no*
projection far below k dimensions can keep the classes apart —
PCA-then-cluster collapses while native full-dimensional k-means — the
thing the paper's Level 3 makes affordable — recovers them.
"""

from __future__ import annotations

from typing import Dict

from ..core.kmeans import HierarchicalKMeans
from ..core.metrics import adjusted_rand_index
from ..data.preprocess import PCA, simplex_blobs
from ..machine.machine import toy_machine
from ..machine.specs import sunway_spec
from ..perfmodel.model import PerformanceModel
from ..reporting.tables import format_table
from .base import ExperimentOutput

N, K, D = 3000, 48, 256
NOISE = 0.08
SEED = 13


def _cluster_ari(X, truth, machine) -> float:
    model = HierarchicalKMeans(K, machine=machine, init="kmeans++",
                               seed=SEED, max_iter=60)
    result = model.fit(X)
    return adjusted_rand_index(result.assignments, truth)


def run() -> ExperimentOutput:
    """Native-d vs PCA-reduced clustering quality on adversarial data."""
    machine = toy_machine(n_nodes=2, cgs_per_node=2, mesh=4,
                          ldm_bytes=64 * 1024)
    X, truth = simplex_blobs(N, K, D, noise=NOISE, seed=SEED)
    d = X.shape[1]

    rows = []
    ari_native = _cluster_ari(X, truth, machine)
    rows.append(["native", f"{d}", f"{ari_native:.3f}"])

    ari_by_components: Dict[int, float] = {}
    for n_comp in (2, 4, 8):
        reduced = PCA(n_components=n_comp).fit_transform(X)
        ari = _cluster_ari(reduced, truth, machine)
        ari_by_components[n_comp] = ari
        rows.append([f"PCA-{n_comp}", f"{n_comp}", f"{ari:.3f}"])

    # What the full-d problem costs at paper scale (the price of not
    # reducing — which Level 3 makes tractable).
    pred = PerformanceModel(sunway_spec(16)).predict(3, N * 1000, K, d)

    checks: Dict[str, bool] = {
        "native full-d clustering recovers the classes (ARI > 0.75)":
            ari_native > 0.75,
        "PCA-2 collapses the simplex structure (ARI < 0.2)":
            ari_by_components[2] < 0.2,
        "PCA-4 stays far below native (ARI < 0.5)":
            ari_by_components[4] < 0.5,
        "native beats every aggressive reduction":
            all(ari_native > v for v in ari_by_components.values()),
        "the native-d problem is affordable at scale (model, 16 nodes)":
            pred.feasible and pred.total < 10.0,
    }
    text = format_table(
        ["pipeline", "dims clustered", "ARI vs ground truth"], rows,
        title=(f"Extension: native high-d clustering vs PCA-then-cluster "
               f"(n={N}, k={K} simplex clusters, d={D})"),
    )
    text += (f"\n\nnative-d cost at scale (model, n={N * 1000:,}, 16 "
             f"nodes): {pred.total:.4f} s/iteration")
    return ExperimentOutput(
        exp_id="extra_dimreduction",
        title="Native high-d clustering vs PCA (extension)",
        text=text,
        checks=checks,
    )
