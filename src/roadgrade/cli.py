"""Command-line interface: one subcommand per stage of `pipeline.STAGES`.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, DataError, NumericError
from .pipeline import STAGES, load_config, make_dir

USAGE_EXIT = 1
# each refusal's stderr prefix and exit code
FAILURES = {ConfigError: ("config error", USAGE_EXIT),
            DataError: ("data error", 2), NumericError: ("numeric failure", 3)}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's, with exit code 1 for its 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="roadgrade",
                     description="Citywide traffic grade prediction pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, stage in STAGES.items():
        cmd = sub.add_parser(name, help=stage.help, description=stage.help)
        cmd.add_argument("--config", help="YAML run configuration file")
        cmd.add_argument("--seed", type=int, help="override the run seed")
        cmd.add_argument("--out", help="override the output directory")
        if stage.per_horizon:
            cmd.add_argument("--horizon", type=int,
                             help="prediction horizon in hours "
                                  "(default: first configured horizon)")
    return parser


def _run(args):
    overrides = {"seed": args.seed, "out_dir": args.out}
    cfg = load_config(args.config, overrides)
    horizon = getattr(args, "horizon", None)
    if horizon is None:
        horizon = cfg.horizons[0]
    elif horizon < 1:
        raise ConfigError("horizon must be >= 1")
    stage = STAGES[args.command]
    make_dir("out_dir", cfg.out_dir)
    return (stage.runner(cfg, horizon) if stage.per_horizon
            else stage.runner(cfg))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for path in _run(args):  # a lazy runner's paths print as stages end
            print(path)
    except tuple(FAILURES) as exc:
        prefix, code = FAILURES[type(exc)]
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
