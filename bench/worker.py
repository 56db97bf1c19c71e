"""One benchmark process: set up a synthetic city, run the CLI, check outputs.

Started by ``run.py`` in a fresh interpreter for every measurement, with the
BLAS/OpenMP thread count pinned in its environment.  A ``hostspeed.Sampler``
runs all through the process; every reported time leaves out the sampling
and is scaled by the host speed sampled while it was measured.  Modes:

* ``setup``: generate the city (``roadgrade synth``) and report the time from
  process start until its CSVs exist.
* ``run``: set up, then repeat the command sequence until ``--seconds`` are
  used (at least once), timing each command.
* ``trace``: set up, then run the sequence once with spans around the calls
  into every layer; the spans are written to ``spans.jsonl`` at the end.

The process writes one JSON result file and exits 0, also when commands
fail: failures are counted in the result.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy

import roadgrade
import spans
from checks import ARTIFACT_OWNER, check_artifacts
from hostspeed import Sampler
from roadgrade import cli, pipeline

COMMANDS = ("graphs", "label", "train", "predict", "evaluate", "explain")

# Every workload: horizon 1, 3 heads, 6 weeks of hourly data, 12-hour DTW
# patterns (24 would make one pass too long to repeat within a run).
COMMON = {"horizons": [1], "heads": 3, "synth_weeks": 6, "pattern_hours": 12}

# Why these sizes: see README.md in this directory.
WORKLOADS = {
    # model-bound: enough epochs that forward, backward and Adam dominate
    "city12-train": {"synth_roads": 12, "epochs": 3, "learning_rate": 0.01,
                     "batch_size": 4, "som_max_iter": 5},
    # preparation-bound: DTW over 630 road pairs and SOM passes dominate
    "city36-prep": {"synth_roads": 36, "epochs": 1, "som_max_iter": 7,
                    "train_size": 96, "val_size": 32},
    # seconds-long toy for the benchmark's own tests
    "smoke": {"synth_roads": 6, "synth_weeks": 4, "epochs": 1,
              "som_max_iter": 3, "pattern_hours": 6, "train_size": 8,
              "val_size": 4, "test_size": 4},
}


def write_config(run_dir: Path, workload: str) -> Path:
    values = {**COMMON, **WORKLOADS[workload], "network": "network.csv",
              "measurements": "measurements.csv", "out_dir": "out"}
    path = run_dir / "config.json"  # JSON is a subset of the YAML it reads
    path.write_text(json.dumps(values, sort_keys=True, indent=1))
    return path


def run_command(argv: list[str]) -> bool:
    """One CLI invocation in process; True when it exits 0."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv) == 0
        except SystemExit as exc:
            return exc.code == 0
        except Exception:  # a traceback is a failed operation, not a crash
            traceback.print_exc()
            return False


def run_pass(common: list[str], sampler: Sampler, tracer) -> dict:
    """The command sequence once.

    Returns per command its time without the sampling time (``work_s``),
    that time scaled to the reference host speed (``scaled_s``), and
    whether it failed.
    """
    timed = {"work_s": {}, "scaled_s": {}, "failed": []}
    for command in COMMANDS:
        argv = [command, *common, "--horizon", "1"]
        start, work = time.perf_counter(), sampler.clock()
        if tracer is None:
            ok = run_command(argv)
        else:
            ok = tracer.call("cli.main", run_command, argv)
        work = sampler.clock() - work
        timed["work_s"][command] = work
        timed["scaled_s"][command] = sampler.scale(
            work, start, time.perf_counter())
        if not ok:
            timed["failed"].append(command)
    return timed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "run", "trace"])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, help="run directory")
    parser.add_argument("--t0", type=float, required=True,
                        help="wall clock just before this process started")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--reference", type=Path,
                        help="out directory whose artifacts must be equal")
    args = parser.parse_args(argv)

    run_dir = Path(args.dir)
    if args.reference is not None:
        args.reference = args.reference.resolve()
    run_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(run_dir)
    config = write_config(Path("."), args.workload)
    common = ["--config", config.name, "--seed", str(args.seed)]
    sampler = Sampler()
    sampler.start()
    try:
        result = measure(args, config, common, sampler)
    finally:
        sampler.stop()
    result["kernel_s"] = statistics.median(sampler.kernel_s)
    result["samples"] = {"times": sampler.times, "kernel_s": sampler.kernel_s}
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path("result.json").write_text(json.dumps(result, indent=1))
    return 0


def measure(args, config: Path, common: list[str], sampler: Sampler) -> dict:
    start = time.perf_counter()
    ok = run_command(["synth", *common])
    setup_s = time.time() - args.t0 - sampler.spent
    end = time.perf_counter()
    for _ in range(3):  # set-up may be shorter than three sampling intervals
        sampler.sample()
    result = {"setup_s": sampler.scale(setup_s, start, end),
              "setup_work_s": setup_s, "setup_ok": ok,
              "passes": [], "work_s": [], "failed": [], "problems": {}}
    if args.mode != "setup" and ok:
        cfg = pipeline.load_config(config.name, {"seed": args.seed})
        result["env"] = {"numpy": numpy.__version__,
                         "config": dataclasses.asdict(cfg)}
        tracer = None
        if args.mode == "trace":
            tracer = spans.Tracer(clock=sampler.clock)
            spans.install(tracer, roadgrade)
        started = time.perf_counter()
        while True:
            timed = run_pass(common, sampler, tracer)
            problems = check_artifacts(Path(cfg.out_dir), cfg,
                                       args.reference)
            failed = {*timed["failed"],
                      *(ARTIFACT_OWNER[name] for name in problems)}
            result["passes"].append(timed["scaled_s"])
            result["work_s"].append(timed["work_s"])
            result["failed"].append(sorted(failed))
            result["problems"].update(problems)
            # another pass only if it is likely to end within --seconds
            used = time.perf_counter() - started
            per_pass = used / len(result["passes"])
            if args.mode == "trace" or used + per_pass > args.seconds:
                break
        if tracer is not None:
            tracer.restore()
            result["self_s"] = spans.self_times(tracer.spans)
            result["total_s"] = spans.total_times(tracer.spans)
            result["calls"] = spans.call_counts(tracer.spans)
            result["counts"] = dict(tracer.counts)
            tracer.write("spans.jsonl")
        result["quality"] = read_quality(Path(cfg.out_dir))
    return result


def read_quality(out_dir: Path) -> dict[str, float]:
    try:
        payload = json.loads((out_dir / "metrics_h1.json").read_text())
        return {"test_accuracy": payload["accuracy"],
                "test_qwk": payload["quadratic_weighted_kappa"]}
    except (OSError, ValueError, KeyError):
        return {}


if __name__ == "__main__":
    sys.exit(main())
