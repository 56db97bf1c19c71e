"""Command-line interface.

Subcommands: synth, graphs, label, train, predict, evaluate, explain,
ablate.  Exit codes: 0 success, 1 usage/config error, 2 data error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, DataError, NumericError
from .pipeline import (load_config, run_ablate, run_evaluate,
                       run_explain, run_graphs, run_label, run_predict,
                       run_synth, run_train)

USAGE_EXIT, DATA_EXIT, NUMERIC_EXIT = 1, 2, 3

# name -> (help text, runner taking the config and horizon)
COMMANDS = {
    "synth": ("generate a synthetic network and measurement series",
              lambda cfg, horizon: run_synth(cfg)),
    "graphs": ("build the four adjacency matrices and a Moran report",
               run_graphs),
    "label": ("assign congestion grades with the self-organizing map",
              run_label),
    "train": ("train the prediction model", run_train),
    "predict": ("predict test-split grades and dump the attention trace",
                run_predict),
    "evaluate": ("score the predictions file against the grade file: "
                 "accuracy, kappa and the per-hour grade MAE", run_evaluate),
    "explain": ("derive combination-importance reports", run_explain),
    "ablate": ("compare full and single-resolution models",
               lambda cfg, horizon: run_ablate(cfg)),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise SystemExit(USAGE_EXIT)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="roadgrade",
                     description="Citywide traffic grade prediction pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (doc, _) in COMMANDS.items():
        cmd = sub.add_parser(name, help=doc, description=doc)
        cmd.add_argument("--config", help="YAML run configuration file")
        cmd.add_argument("--seed", type=int, help="override the run seed")
        cmd.add_argument("--out", help="override the output directory")
        if name not in ("synth", "ablate"):
            cmd.add_argument("--horizon", type=int,
                             help="prediction horizon in hours "
                                  "(default: first configured horizon)")
    return parser


def _run(args) -> list:
    overrides = {"seed": args.seed, "out_dir": args.out}
    cfg = load_config(args.config, overrides)
    horizon = getattr(args, "horizon", None)
    if horizon is None:
        horizon = cfg.horizons[0]
    elif horizon < 1:
        raise ConfigError("horizon must be >= 1")
    _, runner = COMMANDS[args.command]
    try:
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. a regular file of that name exists
        raise ConfigError(f"cannot create out_dir {cfg.out_dir}: "
                          f"{exc.strerror}") from None
    return runner(cfg, horizon)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        written = _run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
