"""Command-line front end for the experiment runner.

Three subcommands::

    sdelab run --config exp.ini [--seed N] [--out DIR] [--threads K]
    sdelab list
    sdelab plot-data RUN_DIR

``run`` executes one configured experiment and writes its artifacts
under the output root (flag, then the ``SDELAB_OUT`` environment
variable, then ``./runs``).  Exit codes: 0 success, 1 runtime failure,
2 configuration problem, 3 finished but missed a gate, and ``run``
names each missed gate.  ``list`` prints the experiment registry;
``plot-data`` reshapes a finished run directory into plot-ready CSVs.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import (
    ConfigError,
    DEFAULT_OUT_ENV,
    emit_plot_data,
    list_experiments,
    run,
)

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdelab",
        description="Run reproducible stochastic-dynamics experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser(
        "run", help="run one configured experiment and write its artifacts")
    runp.add_argument("--config", required=True, metavar="FILE",
                      help="experiment configuration (key=value sections or JSON)")
    runp.add_argument("--seed", type=int, default=None,
                      help="override the seed from the config")
    runp.add_argument("--out", default=None, metavar="DIR",
                      help=f"output root (default: ${DEFAULT_OUT_ENV} or ./runs)")
    runp.add_argument("--threads", type=int, default=None,
                      help="worker threads for Monte Carlo paths "
                           "(results do not depend on this)")

    sub.add_parser("list", help="list the experiment registry")

    plotp = sub.add_parser(
        "plot-data", help="emit plot-ready CSVs from a finished run directory")
    plotp.add_argument("run_dir", help="directory written by 'sdelab run'")
    return parser


def _cmd_run(args) -> int:
    result = run(args.config, seed=args.seed, out=args.out,
                 threads=args.threads)
    summary = result.outcome.summary
    print(f"{result.manifest.experiment}: wrote {result.run_dir}")
    for key in sorted(summary):
        value = summary[key]
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            print(f"  {key} = {value:.6g}")
    for flag in result.outcome.flags:
        print(f"  missed its gate: {flag}", file=sys.stderr)
    return result.status


def _cmd_list() -> int:
    experiments = list_experiments()
    width = max(len(e.name) for e in experiments)
    for exp in experiments:
        print(f"{exp.name:<{width}}  {exp.summary}")
    return 0


def _cmd_plot_data(args) -> int:
    for path in emit_plot_data(args.run_dir):
        print(path)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "list":
            return _cmd_list()
        return _cmd_plot_data(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
