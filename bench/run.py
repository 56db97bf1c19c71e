"""Pipeline benchmark: per-command wall time and per-layer self time.

    python3 bench/run.py --workload all --seed 1 --seconds 50 --trace 0

Runs from the root of a source checkout.  Every measurement runs in a fresh
``worker.py`` process, one at a time, with BLAS/OpenMP pinned to one thread.

``--trace 0`` reports the end-to-end metrics: the median set-up time over
several processes, then each command's wall time from one process that
repeats the command sequence for ``--seconds`` and reports medians.  Every
time is scaled by the host speed sampled while it was measured, so that
host speed swings cancel out (see ``hostspeed.py`` and README.md).

``--trace 1`` reports the per-layer metrics: one untraced pass, then one
traced pass in another process.  The traced artifacts must be byte-identical
to the untraced ones, and the exact counts equal to those of every earlier
traced run of the same code, workload and seed (kept in
``.bench_out/exact_counts.json``).

``--workload all`` runs every workload of BENCHMARK.json in turn.  The last
line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
DEADLINE_S = 170.0          # a run must end within 180 s
SETUP_PROCESSES = 6         # besides the set-up of the measuring worker
THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
# counts that must repeat exactly between runs of the same code and seed
EXACT_COUNTS = ("graphs.dtw_cells", "grading.som_point_updates",
                "tensor.tape_nodes_per_sample", "graphs.GraphSet.build.calls",
                "model.checkpoint_bytes")
# per-layer metrics read straight off the self times of spans of that name
SELF_TIMED = (
    "graphs.build_pattern_graph", "graphs.build_topological",
    "graphs.build_weighted_topological", "graphs.build_attribute_graph",
    "graphs.normalize_adjacency", "graphs.morans_i", "grading.som_train",
    "grading.som_assign", "grading.ordinalize", "tensor.Tensor.backward",
    "model.forward", "model.build_combinations", "model.shared_gcn_layer",
    "model.channel_fuse", "model.temporal_attention",
    "model.highdim_attention", "model.fc_head", "model.nll_loss",
    "model.train", "model.predict_many", "model.save_checkpoint",
    "model.load_checkpoint", "optim.adam_step", "optim.ParamSet.copy_values",
    "data.read_measurements_csv", "data.read_grades_csv",
    "data.minmax_normalize", "data.enumerate_samples", "metrics",
    "explain.build_report", "explain.read_attention_record",
    "explain.write_attention_record")


class RunFailed(Exception):
    pass


def run_worker(mode: str, workload: str, seed: int, run_dir: Path,
               deadline: float, *extra: str) -> dict:
    """Run one worker process to completion and return its result."""
    if run_dir.exists():
        shutil.rmtree(run_dir)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed(f"no time left for the {mode} worker")
    env = {**os.environ, **THREADS, "PYTHONPATH": str(ROOT / "src")}
    t0 = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), mode,
             "--workload", workload, "--seed", str(seed),
             "--dir", str(run_dir), "--t0", repr(t0), *extra],
            env=env, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{mode} worker passed the run deadline") from None
    if proc.returncode != 0:
        raise RunFailed(f"{mode} worker exited with {proc.returncode}")
    result = json.loads((run_dir / "result.json").read_text())
    if not result["setup_ok"]:
        raise RunFailed(f"{mode} worker could not generate the city")
    return result


def setup_s(workload: str, seed: int, base: Path, deadline: float,
            workers: list[dict]) -> float:
    """Median time from process start until the city CSVs exist."""
    workers = workers + [
        run_worker("setup", workload, seed, base / f"setup{i}", deadline)
        for i in range(SETUP_PROCESSES)]
    return statistics.median(w["setup_s"] for w in workers)


def pipeline_s(worker: dict, index: int = 0) -> float:
    """Scaled wall time of one pass of the command sequence."""
    return sum(worker["passes"][index].values())


def outcome(workers: list[dict], values: dict) -> dict:
    """Every CLI command a worker ran is one attempted operation."""
    problems = {k: v for w in workers for k, v in w["problems"].items()}
    return {"values": values,
            "attempted": sum(len(p) for w in workers for p in w["passes"]),
            "failed": sum(len(f) for w in workers for f in w["failed"]),
            "problems": problems, "env": workers[0]["env"]}


def end_to_end(workload: str, seed: int, seconds: float, base: Path,
               deadline: float) -> dict:
    worker = run_worker("run", workload, seed, base / "run", deadline,
                        "--seconds", str(seconds))
    passes = worker["passes"]
    values = {f"{c}_s": statistics.median(p[c] for p in passes)
              for c in passes[0]}
    values["pipeline_s"] = statistics.median(
        pipeline_s(worker, i) for i in range(len(passes)))
    values["peak_rss_mb"] = worker["peak_rss_mb"]
    values["setup_s"] = setup_s(workload, seed, base, deadline, [worker])
    return outcome([worker], values)


def code_digest() -> str:
    """Digest of the program's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_repeat(key: str, counts: dict, problems: dict) -> None:
    """Exact counts must equal those of every earlier run under ``key``."""
    path = OUT / "exact_counts.json"
    records = json.loads(path.read_text()) if path.exists() else {}
    earlier = records.setdefault(key, counts)
    if earlier != counts:
        problems["exact counts"] = f"{counts} differ from earlier {earlier}"
    path.write_text(json.dumps(records, indent=1, sort_keys=True))


def per_layer(workload: str, seed: int, base: Path, deadline: float) -> dict:
    plain = run_worker("run", workload, seed, base / "run", deadline)
    traced = run_worker("trace", workload, seed, base / "trace", deadline,
                        "--reference", str(base / "run" / "out"))
    found = {**traced["counts"], "graphs.GraphSet.build.calls":
             traced["calls"].get("graphs.GraphSet.build", 0)}
    counts = {name: found.get(name, 0) for name in EXACT_COUNTS}
    check_repeat(f"{workload} seed={seed} code={code_digest()}", counts,
                 traced["problems"])
    traced_s = pipeline_s(traced)
    factor = traced_s / sum(traced["work_s"][0].values())
    self_s = {k: v * factor for k, v in traced["self_s"].items()}
    calls = traced["calls"]
    uncovered = self_s.get("cli.main", 0.0)

    def share(*modules: str) -> float:
        return sum(v for k, v in self_s.items()
                   if k.split(".")[0] in modules) / traced_s

    values = {
        **{f"{name}.s": self_s.get(name, 0.0) for name in SELF_TIMED},
        **counts,
        "tensor.Tensor.backward.calls": calls.get("tensor.Tensor.backward", 0),
        "model.train.epoch_s": traced["total_s"].get("model.train", 0.0)
        * factor / max(1, traced["counts"].get("model.train.epochs", 0)),
        "pipeline.load_inputs.calls": calls.get("pipeline.load_inputs", 0),
        "pipeline.self_s": uncovered,
        "cli.main.calls": calls.get("cli.main", 0),
        "cli.main.failed": len(traced["failed"][0]),
        "share.graphs_grading": share("graphs", "grading"),
        "share.model_tensor_optim": share("model", "tensor", "optim"),
        "trace.overhead_ratio": traced_s / pipeline_s(plain),
        "trace.coverage": 1.0 - uncovered / traced_s,
        "host.calibration_s": traced["kernel_s"],
        **{f"quality.{k}": v for k, v in traced["quality"].items()},
    }
    return outcome([plain, traced], values)


def environment(workload: str, seed: int, worker_env: dict) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": worker_env.get("numpy"), "git_sha": sha,
            "code_sha256": code_digest(), "threads": THREADS,
            "config": worker_env.get("config")}


def run_one(workload: str, seed: int, seconds: float, traced: bool,
            metric_specs: list[dict]) -> dict:
    base = OUT / workload
    if base.exists():
        shutil.rmtree(base)
    deadline = time.monotonic() + DEADLINE_S
    if traced:
        measured = per_layer(workload, seed, base, deadline)
    else:
        measured = end_to_end(workload, seed, seconds, base, deadline)
    env = environment(workload, seed, measured["env"])
    (base / "env.json").write_text(json.dumps(env, indent=1))
    print(json.dumps(env, sort_keys=True), file=sys.stderr)
    for name, problem in sorted(measured["problems"].items()):
        print(f"check failed: {name}: {problem}", file=sys.stderr)
    values = measured["values"]
    missing = [m["name"] for m in metric_specs if m["name"] not in values]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in metric_specs}
    for name, entry in metrics.items():
        print(f"{workload:14s} {name:38s} {entry['value']:14.6g} "
              f"{entry['unit']}")
    return {"correct": not (measured["failed"] or measured["problems"]
                            or missing),
            "attempted": measured["attempted"], "failed": measured["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "roadgrade").is_dir():
        print(f"no roadgrade sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]
    workloads = ([w["name"] for w in spec["workloads"]]
                 if args.workload == "all" else [args.workload])
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_one(workload, args.seed, args.seconds,
                                        bool(args.trace), metric_specs)
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all"
                     else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
