"""Figure 6 — Level 3 large-scale scalability in centroids and in nodes.

Two panels (paper section IV.C.3):

* centroids panel: scale k towards 160,000 at fixed d=3,072 on 128 nodes,
* nodes panel: scale the machine towards 4,096 nodes at fixed d=196,608 and
  k=2,000.

Paper claim: "As both k and d increase, the completion time from our
approach continues to scale well."
"""

from __future__ import annotations

from typing import Dict

from ..data.datasets import TABLE_II
from ..perfmodel.sweep import sweep
from ..reporting.figures import series_sparklines, series_table
from .base import ExperimentOutput, monotone_nondecreasing, monotone_nonincreasing

K_SWEEP = [2000, 10_000, 20_000, 40_000, 80_000, 160_000]
K_PANEL_D = 3072
K_PANEL_NODES = 128

NODE_SWEEP = [512, 1024, 2048, 4096]
NODE_PANEL_D = 196_608
NODE_PANEL_K = 2000


def run() -> ExperimentOutput:
    """Regenerate both panels of Figure 6."""
    n = TABLE_II["ilsvrc2012"].n
    checks: Dict[str, bool] = {}

    k_panel = sweep("k", K_SWEEP, levels=[3], n=n, k=0, d=K_PANEL_D,
                    nodes=K_PANEL_NODES)[3]
    k_panel.label = f"k sweep (d={K_PANEL_D}, {K_PANEL_NODES} nodes)"
    checks["centroids panel: feasible up to k=160,000"] = (
        len(k_panel.finite()) == len(K_SWEEP)
    )
    checks["centroids panel: time grows with k"] = (
        monotone_nondecreasing(k_panel.y, slack=0.05)
    )

    node_panel = sweep("nodes", NODE_SWEEP, levels=[3], n=n,
                       k=NODE_PANEL_K, d=NODE_PANEL_D, nodes=0)[3]
    node_panel.label = f"node sweep (d={NODE_PANEL_D:,}, k={NODE_PANEL_K})"
    checks["nodes panel: feasible at every node count"] = (
        len(node_panel.finite()) == len(NODE_SWEEP)
    )
    checks["nodes panel: time falls as nodes grow"] = (
        monotone_nonincreasing(node_panel.y, slack=0.02)
    )
    checks["nodes panel: near-linear strong scaling (>= 50% efficiency)"] = (
        node_panel.y[0] / node_panel.y[-1]
        >= 0.5 * (NODE_SWEEP[-1] / NODE_SWEEP[0])
    )

    series = {k_panel.label: k_panel, node_panel.label: node_panel}
    text = series_table(
        {k_panel.label: k_panel}, x_name="k",
        title="Figure 6 (centroids panel)",
    )
    text += "\n\n" + series_table(
        {node_panel.label: node_panel}, x_name="nodes",
        title="Figure 6 (nodes panel)",
    )
    text += "\n\n" + series_sparklines(series)
    return ExperimentOutput(
        exp_id="figure6",
        title="Level 3 - large-scale on centroids and nodes",
        text=text,
        series=series,
        checks=checks,
    )
