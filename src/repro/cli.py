"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    List the available experiments (one per paper table/figure).
``experiment <id> [--out DIR]``
    Regenerate one table/figure (or ``all``), print the report, and flag
    any failed shape check (non-zero exit).  ``--out`` also persists the
    report, checks and series CSV.
``predict --level L -n N -k K -d D [--nodes NODES]``
    Price one iteration with the performance model at paper scale.
``cluster --n N --k K --d D [--nodes NODES] [--level L] [--save PATH]``
    Run the execute backend on a synthetic workload — or on your own data
    via ``--input data.npy`` / ``--input data.csv`` — and print the result
    summary and time-ledger breakdown.  ``--kernel gemm`` switches the
    assign arithmetic to the blocked GEMM backend (``--kernel pruned``
    adds carried triangle-inequality bounds to the default naive kernel,
    bit-identical to it);
    ``--engine thread``
    (optionally with ``--workers N``) maps the numerics across a host
    thread pool with bit-identical results; ``--no-model-costs`` runs
    pure numerics without the simulated time ledger.
    ``--faults 'cg_failure@3:cg=1' --recovery replan --checkpoint-every 5``
    injects machine faults and exercises the recovery policies.
    ``--checkpoint-dir DIR`` persists every snapshot durably so a killed
    run restarts bit-identically with ``--resume``; ``--deadline S``
    bounds the *real* wall-clock time (exit code 3 when exceeded).
``machine [--nodes NODES]``
    Render the simulated machine (the paper's Figure-1 block diagram plus
    the fleet summary).
``calibrate [--nodes NODES]``
    Fit the model's compute-efficiency and message-overhead constants to
    execute-backend measurements on a toy machine (see
    ``repro.perfmodel.calibration``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__
from .data.synthetic import gaussian_blobs
from .errors import DeadlineExceededError, ReproError
from .experiments import EXPERIMENTS, EXTRA_EXPERIMENTS, run_experiment
from .machine.machine import sunway_machine, toy_machine
from .machine.specs import sunway_spec
from .perfmodel.model import PerformanceModel
from .reporting.tables import format_seconds


def _cmd_list(_: argparse.Namespace) -> int:
    for exp_id in EXPERIMENTS:
        print(exp_id)
    for exp_id in EXTRA_EXPERIMENTS:
        print(f"{exp_id}  (extension)")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    ids = list(EXPERIMENTS) if args.id == "all" else [args.id]
    status = 0
    for exp_id in ids:
        output = run_experiment(exp_id)
        print(output.text)
        print()
        for name, ok in output.checks.items():
            print(f"  [{'ok' if ok else 'FAIL'}] {name}")
        print()
        if args.out:
            from .io import save_experiment
            save_experiment(output, args.out)
        if not output.all_checks_pass:
            status = 1
    return status


def _cmd_predict(args: argparse.Namespace) -> int:
    model = PerformanceModel(sunway_spec(args.nodes))
    pred = model.predict(args.level, args.n, args.k, args.d)
    if not pred.feasible:
        print(f"infeasible: {pred.reason}")
        return 1
    print(f"level {pred.level} on {args.nodes} nodes: "
          f"{format_seconds(pred.total)} per iteration")
    print(f"  partition: mgroup={pred.mgroup}, m'group={pred.mprime_group}, "
          f"groups={pred.n_groups}, resident={pred.resident_fraction:.2f}")
    for phase, seconds in pred.phases.items():
        print(f"  {phase:28s} {format_seconds(seconds)}")
    return 0


def _load_input(path: str):
    """Load a (n, d) sample matrix from .npy or .csv."""
    import numpy as np

    from .errors import ConfigurationError
    if path.endswith(".npy"):
        X = np.load(path)
    elif path.endswith(".csv"):
        X = np.loadtxt(path, delimiter=",", ndmin=2)
    else:
        raise ConfigurationError(
            f"unsupported input format {path!r} (expected .npy or .csv)"
        )
    if X.ndim != 2:
        raise ConfigurationError(
            f"input must be a 2-D (n, d) matrix, got shape {X.shape}"
        )
    return np.asarray(X, dtype=np.float64)


def _cmd_cluster(args: argparse.Namespace) -> int:
    if args.toy:
        machine = toy_machine(n_nodes=args.nodes, cgs_per_node=2, mesh=4,
                              ldm_bytes=16 * 1024)
    else:
        machine = sunway_machine(n_nodes=args.nodes)
    if args.input:
        X = _load_input(args.input)
    else:
        X, _ = gaussian_blobs(n=args.n, k=args.k, d=args.d, seed=args.seed)
    from .core.kmeans import HierarchicalKMeans
    level = "auto" if args.level is None else args.level
    model = HierarchicalKMeans(args.k, machine=machine, level=level,
                               seed=args.seed, max_iter=args.max_iter,
                               kernel=args.kernel,
                               engine=args.engine, workers=args.workers,
                               reduce=args.reduce,
                               integrity=args.integrity,
                               model_costs=not args.no_model_costs,
                               faults=args.faults,
                               recovery=args.recovery,
                               checkpoint_every=args.checkpoint_every,
                               checkpoint_dir=args.checkpoint_dir,
                               resume=args.resume,
                               deadline_s=args.deadline,
                               empty_action=args.empty_action)
    result = model.fit(X)
    print(result.summary())
    if result.ledger is not None:
        for category, seconds in result.ledger.total_by_category().items():
            print(f"  {category:8s} {format_seconds(seconds)}")
    for event in result.fault_events:
        where = f" CG {event.cg_index}" if event.cg_index is not None else ""
        print(f"  fault: {event.kind}{where} at iteration "
              f"{event.iteration} -> {event.action} "
              f"({format_seconds(event.recovery_seconds)} recovery)")
    for host_event in result.host_events:
        print(f"  host: {host_event.describe()}")
    if args.save:
        from .io import save_result
        save_result(result, args.save)
        print(f"saved to {args.save}")
    return 0


def _cmd_machine(args: argparse.Namespace) -> int:
    from .machine.render import render_machine, render_processor
    spec = sunway_spec(args.nodes)
    print(render_processor(spec))
    print()
    print(render_machine(spec))
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from .machine.machine import toy_machine as _toy
    from .perfmodel.calibration import calibrate
    machine = _toy(n_nodes=args.nodes, cgs_per_node=2, mesh=4,
                   ldm_bytes=64 * 1024)
    result = calibrate(machine)
    print(f"RMS log10 error: {result.error_before:.3f} -> "
          f"{result.error_after:.3f}")
    print(f"fitted compute_efficiency   = "
          f"{result.params.compute_efficiency}")
    print(f"fitted mpi_message_overhead = "
          f"{result.params.mpi_message_overhead}")
    for (level, w_i), ratio in sorted(result.ratios.items()):
        print(f"  level {level}, workload {w_i}: model/measured = "
              f"{ratio:.2f}x")
    return 0


def _cmd_scorecard(args: argparse.Namespace) -> int:
    from .experiments import build_scorecard
    card = build_scorecard(include_extras=not args.skip_extras)
    print(card.render())
    return 0 if card.all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Reproduction of 'Large-Scale Hierarchical k-means for "
                     "Heterogeneous Many-Core Supercomputers' (SC 2018)"),
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list available experiments")
    p_list.set_defaults(func=_cmd_list)

    p_exp = sub.add_parser("experiment",
                           help="regenerate a paper table/figure")
    p_exp.add_argument("id", choices=(list(EXPERIMENTS)
                                      + list(EXTRA_EXPERIMENTS)
                                      + ["all"]))
    p_exp.add_argument("--out", help="directory to persist outputs to")
    p_exp.set_defaults(func=_cmd_experiment)

    p_pred = sub.add_parser("predict",
                            help="price one iteration at paper scale")
    p_pred.add_argument("--level", type=int, required=True,
                        choices=(1, 2, 3))
    p_pred.add_argument("-n", type=int, required=True)
    p_pred.add_argument("-k", type=int, required=True)
    p_pred.add_argument("-d", type=int, required=True)
    p_pred.add_argument("--nodes", type=int, default=128)
    p_pred.set_defaults(func=_cmd_predict)

    p_cl = sub.add_parser("cluster",
                          help="run the execute backend on synthetic data")
    p_cl.add_argument("--input",
                      help="cluster this .npy/.csv matrix instead of "
                           "synthetic data")
    p_cl.add_argument("--n", type=int, default=5000)
    p_cl.add_argument("--k", type=int, default=16)
    p_cl.add_argument("--d", type=int, default=32)
    p_cl.add_argument("--nodes", type=int, default=1)
    p_cl.add_argument("--level", type=int, choices=(0, 1, 2, 3))
    p_cl.add_argument("--seed", type=int, default=0)
    p_cl.add_argument("--max-iter", type=int, default=100)
    p_cl.add_argument("--toy", action="store_true",
                      help="use a toy machine instead of SW26010 nodes")
    p_cl.add_argument("--kernel", choices=("naive", "gemm", "pruned"),
                      default=None,
                      help="compute backend for the assign step "
                           "(default: REPRO_KERNEL env var, else naive)")
    p_cl.add_argument("--engine", choices=("serial", "thread", "process"),
                      default=None,
                      help="host execution engine for the numerics "
                           "(default: REPRO_ENGINE env var, else serial)")
    p_cl.add_argument("--workers", type=int, default=None, metavar="N",
                      help="worker count for --engine thread/process "
                           "(default: REPRO_WORKERS env var, else CPU count)")
    p_cl.add_argument("--reduce", choices=("serial", "tree"), default=None,
                      help="partial-merge reduction topology "
                           "(default: REPRO_REDUCE env var, else serial)")
    p_cl.add_argument("--integrity", choices=("off", "verify", "repair"),
                      default=None,
                      help="silent-corruption detection/repair for "
                           "partials, shared arrays, and checkpoints "
                           "(default: REPRO_INTEGRITY env var, else off)")
    p_cl.add_argument("--no-model-costs", action="store_true",
                      help="run pure numerics (no time ledger, no "
                           "modelled seconds)")
    p_cl.add_argument("--faults",
                      help="fault plan: 'kind[@iter][:key=val,...];...' "
                           "(e.g. 'cg_failure@3:cg=1;transient_dma:p=0.01') "
                           "or '@plan.json'")
    p_cl.add_argument("--recovery", default="fail_fast",
                      choices=("retry", "replan", "fail_fast"),
                      help="policy applied when an injected fault fires")
    p_cl.add_argument("--checkpoint-every", type=int, default=None,
                      metavar="N",
                      help="snapshot centroids every N iterations "
                           "(modelled I/O charged to 'checkpoint')")
    p_cl.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                      help="persist snapshots durably to DIR/checkpoint.npz "
                           "(atomic write; default: REPRO_CHECKPOINT_DIR "
                           "env var)")
    p_cl.add_argument("--resume", action="store_true",
                      help="restart from the snapshot in --checkpoint-dir; "
                           "the continuation is bit-identical to the "
                           "uninterrupted run")
    p_cl.add_argument("--deadline", type=float, default=None, metavar="S",
                      help="real wall-clock budget in seconds; the run "
                           "aborts with exit code 3 at the first iteration "
                           "boundary past it (default: REPRO_DEADLINE "
                           "env var)")
    p_cl.add_argument("--empty-action", default="keep",
                      choices=("keep", "reseed_farthest"),
                      help="empty-cluster rule for the Update step")
    p_cl.add_argument("--save", help="path to save the result (.npz)")
    p_cl.set_defaults(func=_cmd_cluster)

    p_m = sub.add_parser("machine",
                         help="render the simulated machine (Figure 1)")
    p_m.add_argument("--nodes", type=int, default=1)
    p_m.set_defaults(func=_cmd_machine)

    p_cal = sub.add_parser("calibrate",
                           help="fit model constants to a toy machine")
    p_cal.add_argument("--nodes", type=int, default=2)
    p_cal.set_defaults(func=_cmd_calibrate)

    p_sc = sub.add_parser("scorecard",
                          help="run every experiment, print the verdicts")
    p_sc.add_argument("--skip-extras", action="store_true")
    p_sc.set_defaults(func=_cmd_scorecard)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DeadlineExceededError as e:
        # Distinct exit code so schedulers can tell "ran out of wall
        # clock" (retryable with a bigger budget / --resume) from a
        # configuration error.
        print(f"deadline exceeded: {e}", file=sys.stderr)
        return 3
    except ReproError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
