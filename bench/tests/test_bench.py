"""Tests of the benchmark: span arithmetic, wrapper hygiene, a smoke run.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import roadgrade  # noqa: E402
import spans  # noqa: E402
from roadgrade import graphs, optim, tensor  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def ticking_tracer() -> spans.Tracer:
    ticks = itertools.count()
    return spans.Tracer(clock=lambda: float(next(ticks)))


class TestSelfTime:
    def test_nested_spans_subtract_their_children(self):
        # train -> forward -> build, twice
        recorded = [("train", 0.0, 10.0, -1), ("forward", 1.0, 4.0, 0),
                    ("build", 2.0, 3.0, 1), ("forward", 5.0, 9.0, 0),
                    ("build", 6.0, 8.0, 3)]
        assert spans.self_times(recorded) == {
            "train": 3.0, "forward": 4.0, "build": 3.0}
        assert spans.total_times(recorded)["forward"] == 7.0

    def test_self_times_sum_to_the_root_duration(self):
        tracer = ticking_tracer()

        def inner():
            return tracer.call("leaf", lambda: None)

        def outer():
            for _ in range(3):
                tracer.call("inner", inner)

        tracer.call("root", outer)
        root = next(s for s in tracer.spans if s[0] == "root")
        times = spans.self_times(tracer.spans)
        assert sum(times.values()) == root[2] - root[1]
        assert spans.call_counts(tracer.spans) == {
            "root": 1, "inner": 3, "leaf": 3}
        # each inner span lasts 3 ticks, 1 of them inside its leaf
        assert times == {"root": 13.0 - 9.0, "inner": 6.0, "leaf": 3.0}

    def test_overlapping_children_are_counted_once(self):
        recorded = [("p", 0.0, 10.0, -1), ("c", 1.0, 5.0, 0),
                    ("c", 3.0, 7.0, 0)]
        assert spans.self_times(recorded)["p"] == 4.0

    def test_span_closes_when_the_call_raises(self):
        tracer = ticking_tracer()
        with pytest.raises(ZeroDivisionError):
            tracer.call("boom", lambda: 1 / 0)
        assert tracer.spans == [("boom", 0.0, 1.0, -1)]
        tracer.call("next", lambda: None)
        assert tracer.spans[-1][3] == -1


class TestHostSpeed:
    def sampler(self, times, kernel_s) -> hostspeed.Sampler:
        sampler = hostspeed.Sampler()
        sampler.times, sampler.kernel_s = list(times), list(kernel_s)
        return sampler

    def test_speed_averages_the_samples_inside_the_interval(self):
        sampler = self.sampler([0, 1, 2, 3, 4, 5], [9, 1, 2, 4, 4, 9])
        assert sampler.speed(0.5, 4.5) == pytest.approx((1 + .5 + .5) / 4)

    def test_short_intervals_use_the_three_nearest_samples(self):
        sampler = self.sampler([0, 1, 2, 3, 10], [1, 2, 4, 5, 8])
        assert sampler.speed(2.9, 3.1) == pytest.approx((.5 + .25 + .2) / 3)
        assert sampler.speed(20, 21) == pytest.approx((.25 + .2 + .125) / 3)

    def test_scale_maps_the_reference_speed_to_itself(self):
        ref = hostspeed.REFERENCE_S
        sampler = self.sampler([0, 1, 2, 3], [ref, ref, ref, 2 * ref])
        assert sampler.scale(4.0, 0, 2) == pytest.approx(4.0)
        assert sampler.scale(4.0, 3, 3) == pytest.approx(4.0 * 5 / 6)

    def test_clock_leaves_out_the_sampling_time(self):
        sampler = hostspeed.Sampler()
        start = sampler.clock()
        for _ in range(20):
            sampler.sample()
        assert sampler.clock() - start < sampler.spent / 10
        assert len(sampler.kernel_s) == 20 and min(sampler.kernel_s) > 0


def snapshot() -> dict:
    owners = [m for m in vars(roadgrade).values()
              if type(m) is type(roadgrade)]
    owners += [graphs.GraphSet, optim.ParamSet, tensor.Tensor]
    return {(owner.__name__, name): value for owner in owners
            for name, value in list(vars(owner).items())}


class TestWrappers:
    def test_install_then_restore_leaves_every_attribute_identical(self):
        before = snapshot()
        tracer = spans.Tracer()
        spans.install(tracer, roadgrade)
        during = snapshot()
        changed = {k for k in before if during[k] is not before[k]}
        assert ("GraphSet", "build") in changed
        assert ("Tensor", "backward") in changed
        assert ("roadgrade.model", "adam_step") in changed
        tracer.restore()
        after = snapshot()
        assert after.keys() == before.keys()
        assert all(after[k] is before[k] for k in before)

    def test_wrapped_classmethod_still_binds_the_class(self):
        tracer = spans.Tracer()
        tracer.wrap(graphs.GraphSet, "build", "graphs.GraphSet.build")
        try:
            assert isinstance(vars(graphs.GraphSet)["build"], classmethod)
        finally:
            tracer.restore()


class TestChecks:
    def test_asymmetric_adjacency_is_rejected(self, tmp_path):
        path = tmp_path / "adjacency_pattern.csv"
        path.write_text("R0,R1\n0.0,0.5\n0.4,0.0\n")
        assert checks._check_adjacency(path, 2) == "not symmetric"
        path.write_text("R0,R1\n0.0,0.5\n0.5,0.0\n")
        assert checks._check_adjacency(path, 2) is None

    def test_missing_artifacts_are_reported(self, tmp_path):
        cfg = roadgrade.pipeline.RunConfig()
        problems = checks.check_artifacts(tmp_path, cfg)
        assert set(problems) == set(checks.ARTIFACT_OWNER)


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


class TestSmokeWorkload:
    def test_end_to_end_metrics(self):
        proc = run_bench("--workload", "smoke", "--seed", "3",
                         "--seconds", "1", "--trace", "0")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 6
        names = [m["name"] for m in SPEC["end_to_end"]]
        assert list(result["metrics"]) == names
        assert all(result["metrics"][n]["value"] > 0 for n in names
                   if n.endswith("_s"))

    def test_per_layer_metrics_and_exact_counts(self):
        args = ("--workload", "smoke", "--seed", "3", "--seconds", "1",
                "--trace", "1")
        first, second = run_bench(*args), run_bench(*args)
        for proc in (first, second):
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert result["correct"], proc.stderr
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
        # smoke: 6 roads, 4 weeks, som_max_iter 3
        assert metrics["graphs.GraphSet.build.calls"] == 4
        assert metrics["grading.som_point_updates"] == 2 * 6 * 4 * 168
        assert metrics["cli.main.calls"] == 6
        assert metrics["cli.main.failed"] == 0
        assert 0.5 < metrics["trace.coverage"] <= 1.0

    def test_a_count_that_does_not_repeat_fails_the_run(self):
        args = ("--workload", "smoke", "--seed", "4", "--seconds", "1",
                "--trace", "1")
        assert run_bench(*args).returncode == 0
        path = ROOT / ".bench_out" / "exact_counts.json"
        records = json.loads(path.read_text())
        keys = [k for k in records if k.startswith("smoke seed=4 ")]
        for key in keys:
            records[key]["graphs.dtw_cells"] += 1
        path.write_text(json.dumps(records))
        try:
            proc = run_bench(*args)
        finally:
            records = json.loads(path.read_text())
            for key in keys:
                records.pop(key, None)
            path.write_text(json.dumps(records))
        assert keys and proc.returncode == 0
        assert not json.loads(proc.stdout.splitlines()[-1])["correct"]
        assert "exact counts" in proc.stderr

    def test_refuses_to_run_without_the_program(self, tmp_path):
        shutil.copytree(BENCH, tmp_path / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        proc = run_bench("--workload", "smoke", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=tmp_path)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
