"""End-to-end command-line pipeline on a miniature synthetic corpus."""

import base64
import csv
import json
import shutil
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml

from roadgrade import data, graphs
from roadgrade.cli import main
from roadgrade.data import enumerate_samples, minmax_normalize, \
    read_grades_csv, read_measurements_csv, write_measurements_csv
from roadgrade.graphs import GRAPH_KEYS, GraphSet, read_adjacency_csv, \
    read_network_csv, write_network_csv, RoadNetwork
from roadgrade.metrics import accuracy, grade_mae_series, \
    quadratic_weighted_kappa
from roadgrade.model import CHECKPOINT_VERSION, ModelConfig, \
    load_checkpoint, predict_many
from roadgrade.pipeline import RunConfig, load_config, split_hours
from roadgrade.synth import DEFAULT_START
from roadgrade.data import TrafficSeries

MINI = dict(
    seed=3,
    horizons=[1],
    synth_roads=6,
    synth_weeks=4,
    heads=2,
    hidden1=6,
    hidden2=6,
    epochs=2,
    batch_size=8,
    train_size=100,
    val_size=20,
    test_size=20,
    som_max_iter=15,
    pattern_hours=6,
)


def write_config(tmp_path, out_name="out", **extra):
    out = tmp_path / out_name
    values = dict(MINI)
    values.update(
        network=str(tmp_path / "network.csv"),
        measurements=str(tmp_path / "measurements.csv"),
        out_dir=str(out),
    )
    values.update(extra)
    path = tmp_path / f"config_{out_name}.yaml"
    path.write_text(yaml.safe_dump(values))
    return path, out


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth, then run: graphs -> label -> train -> predict -> evaluate ->
    explain."""
    tmp_path = tmp_path_factory.mktemp("cli")
    config, out = write_config(tmp_path)
    for command in ("synth", "run"):
        assert main([command, "--config", str(config)]) == 0, command
    return tmp_path, config, out


class TestPipeline:
    def test_synth_artifacts_parse(self, pipeline):
        tmp_path, _, _ = pipeline
        _, ids = read_network_csv(tmp_path / "network.csv")
        series = read_measurements_csv(tmp_path / "measurements.csv", ids)
        assert len(ids) == MINI["synth_roads"]
        assert series.t == MINI["synth_weeks"] * 168

    def test_adjacency_files_symmetric(self, pipeline):
        _, _, out = pipeline
        for key in ("topological", "weighted", "pattern", "attribute"):
            matrix, ids = read_adjacency_csv(out / f"adjacency_{key}.csv")
            assert len(ids) == MINI["synth_roads"]
            np.testing.assert_array_equal(matrix, matrix.T)
            assert np.all(np.diag(matrix) == 0)

    def test_moran_report_structure(self, pipeline):
        _, _, out = pipeline
        report = json.loads((out / "moran_report.json").read_text())
        for channel in ("speed", "flow"):
            entry = report["channels"][channel]
            assert entry["degenerate"] is False
            assert -1.5 <= entry["global"] <= 1.5
            assert len(entry["local"]) == MINI["synth_roads"]

    def test_grades_in_range(self, pipeline):
        _, _, out = pipeline
        grades, _ = read_grades_csv(out / "grades_h1.csv",
                                    [f"R{i:03d}" for i in range(6)])
        assert grades.min() >= 1 and grades.max() <= 5

    def test_training_artifacts(self, pipeline):
        _, _, out = pipeline
        log = json.loads((out / "training_log_h1.json").read_text())
        assert len(log["epochs"]) == MINI["epochs"]
        ckpt = json.loads((out / "checkpoint_h1.json").read_text())
        assert ckpt["config"]["n_roads"] == MINI["synth_roads"]

    def test_predictions_cover_test_split(self, pipeline):
        _, _, out = pipeline
        preds, _ = read_grades_csv(out / "predictions_h1.csv",
                                   [f"R{i:03d}" for i in range(6)])
        assert preds.shape == (MINI["synth_roads"], MINI["test_size"])
        assert preds.min() >= 1 and preds.max() <= 5

    def test_metrics_payload(self, pipeline):
        _, _, out = pipeline
        payload = json.loads((out / "metrics_h1.json").read_text())
        assert 0.0 <= payload["accuracy"] <= 1.0
        assert -1.0 <= payload["quadratic_weighted_kappa"] <= 1.0
        # the per-hour MAE lives in mae_series_h1.csv only
        assert set(payload) == {"horizon", "accuracy",
                                "quadratic_weighted_kappa"}

    def test_mae_series_reads_back_as_floats_per_test_hour(self, pipeline):
        _, config, out = pipeline
        cfg = load_config(str(config))
        _, road_ids = read_network_csv(cfg.network)
        grades, start = read_grades_csv(out / "grades_h1.csv", road_ids)
        preds, _ = read_grades_csv(out / "predictions_h1.csv", road_ids)
        (_, _, test), _ = split_hours(cfg, grades.shape[1], 1)
        first = test.start + 1
        with open(out / "mae_series_h1.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["timestamp", "grade_mae"]
        assert [stamp for stamp, _ in rows] == [
            (start + (first + k) * data.HOUR).isoformat()
            for k in range(len(test))]
        expected = grade_mae_series(preds, grades[:, first:first + len(test)])
        assert [float(value) for _, value in rows] == expected.tolist()

    def test_importance_sums_to_one(self, pipeline):
        _, _, out = pipeline
        payload = json.loads((out / "importance_h1.json").read_text())
        for key in ("combination_importance", "resolution_importance",
                    "graph_importance"):
            assert sum(payload[key].values()) == pytest.approx(1.0, abs=1e-9)
        heat = np.array(payload["heatmap"])
        assert heat.shape == (12, 12)
        assert heat.sum() == pytest.approx(1.0, abs=1e-9)

    def test_evaluate_scores_the_models_test_predictions(self, pipeline):
        _, config, out = pipeline
        cfg = load_config(str(config))
        net, road_ids = read_network_csv(cfg.network)
        series = read_measurements_csv(cfg.measurements, road_ids)
        (_, _, test), window = split_hours(cfg, series.t, 1)
        graph_set = GraphSet.build(
            net, series, window, alpha_speed=cfg.alpha_speed,
            alpha_flow=cfg.alpha_flow, pattern_hours=cfg.pattern_hours)
        grades, _ = read_grades_csv(out / "grades_h1.csv", road_ids)
        test_set = enumerate_samples(minmax_normalize(series, window),
                                     grades, test, 1, cfg.windows)
        state = load_checkpoint(out / "checkpoint_h1.json",
                                cfg.model_config(net.n))
        preds, _ = predict_many(state, test_set, graph_set)
        truth = test_set.target
        payload = json.loads((out / "metrics_h1.json").read_text())
        assert payload["accuracy"] == accuracy(preds, truth)
        assert payload["quadratic_weighted_kappa"] == \
            quadratic_weighted_kappa(preds, truth, cfg.n_grades)


def _assert_same_files(first: Path, second: Path):
    """The two directories hold the same file names with the same bytes."""
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), \
            name


def test_rerun_is_byte_identical(tmp_path):
    first_cfg, first_out = write_config(tmp_path, "first")
    second_cfg, second_out = write_config(tmp_path, "second")
    for config in (first_cfg, second_cfg):
        for command in ("synth", "run"):
            assert main([command, "--config", str(config)]) == 0
        # synth writes into the shared tmp dir; remove for the second pass
        (tmp_path / "network.csv").unlink()
        (tmp_path / "measurements.csv").unlink()
    _assert_same_files(first_out, second_out)


def test_network_row_order_changes_no_artifact(tmp_path):
    # metamorphic: the road rows and the edge rows of the network shuffled,
    # every artifact from graphs to ablate is byte-identical
    config, out = write_config(tmp_path)
    assert main(["synth", "--config", str(config)]) == 0
    with open(tmp_path / "network.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    split = rows.index(["road_a", "road_b"])
    roads, edges = rows[:split], rows[split + 1:]
    rng = np.random.default_rng(0)
    shuffled = [roads[i] for i in rng.permutation(len(roads))]
    assert shuffled != roads
    data.write_table(tmp_path / "shuffled.csv", header,
                     [*shuffled, rows[split],
                      *(edges[i] for i in rng.permutation(len(edges)))])
    shuffled_config, shuffled_out = write_config(
        tmp_path, "shuffled", network=str(tmp_path / "shuffled.csv"))
    for path in (config, shuffled_config):
        for command in ("run", "ablate"):
            assert main([command, "--config", str(path)]) == 0, command
    _assert_same_files(out, shuffled_out)


def test_run_writes_what_the_stage_commands_write(tmp_path, capsys):
    # the reference: each per-horizon stage by hand, all of them for one
    # horizon before the next; `run` prints what they print, in order
    config, out = write_config(tmp_path, horizons=[1, 2])
    staged = tmp_path / "staged"
    assert main(["synth", "--config", str(config)]) == 0
    capsys.readouterr()
    for horizon in ("1", "2"):
        for command in ("graphs", "label", "train", "predict", "evaluate",
                        "explain"):
            assert main([command, "--config", str(config), "--out",
                         str(staged), "--horizon", horizon]) == 0, command
    printed = capsys.readouterr().out
    assert main(["run", "--config", str(config)]) == 0
    assert capsys.readouterr().out == printed.replace(str(staged), str(out))
    _assert_same_files(out, staged)


def test_run_takes_no_horizon(tmp_path, capsys):
    config, _ = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(config), "--horizon", "1"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: roadgrade ")
    assert err.endswith(
        "\nroadgrade: error: unrecognized arguments: --horizon 1\n")


def test_run_parses_the_measurements_once(tmp_path, monkeypatch):
    # graphs, label, train and predict read them at both horizons
    config, _ = write_config(tmp_path, horizons=[1, 2])
    assert main(["synth", "--config", str(config)]) == 0
    reads, parsed = [], []

    def read(*args, _read=data.read_measurements_csv):
        reads.append(args)
        return _read(*args)

    def parse(path, *args, _parse=data._parse_road_hours):
        parsed.append(Path(path).name)
        return _parse(path, *args)

    monkeypatch.setattr(data, "read_measurements_csv", read)
    monkeypatch.setattr(data, "_parse_road_hours", parse)
    assert main(["run", "--config", str(config)]) == 0
    assert len(reads) == 8
    assert parsed.count("measurements.csv") == 1


# the first stage that refuses ends the run with its exit code and one
# stderr line; the earlier stages print what they wrote, and no later stage
# writes anything
@pytest.mark.parametrize("extra, missing, message, written", [
    ({}, "measurements.csv", "measurements.csv", []),
    ({"test_size": 0}, None, "test split is empty; nothing to predict",
     ["adjacency_attribute.csv", "adjacency_pattern.csv",
      "adjacency_topological.csv", "adjacency_weighted.csv",
      "checkpoint_h1.json", "grades_h1.csv", "moran_report.json",
      "training_log_h1.json"]),
], ids=["graphs-without-measurements", "predict-without-test-split"])
def test_run_stops_at_the_first_refusing_stage(tmp_path, capsys, extra,
                                               missing, message, written):
    config, out = write_config(tmp_path, horizons=[1, 2], **extra)
    assert main(["synth", "--config", str(config)]) == 0
    if missing:
        (tmp_path / missing).unlink()
    capsys.readouterr()
    assert main(["run", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("data error: ") and message in captured.err
    assert captured.err.count("\n") == 1
    assert sorted(Path(line).name for line in captured.out.splitlines()) \
        == sorted(p.name for p in out.iterdir()) == written


def test_ablate_emits_comparison_table(tmp_path):
    config, out = write_config(tmp_path, train_size=60, val_size=10,
                               test_size=10)
    assert main(["synth", "--config", str(config)]) == 0
    assert main(["ablate", "--config", str(config)]) == 0
    with open(out / "ablation.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["variant", "horizon", "accuracy", "kappa"]
    assert {variant for variant, *_ in rows} == {"full", "hourly", "daily",
                                                 "weekly"}
    assert all(0.0 <= float(row[2]) <= 1.0 for row in rows)
    assert not (out / "ablation.json").exists()
    for variant in ("", "_hourly", "_daily", "_weekly"):
        assert (out / f"checkpoint_h1{variant}.json").exists()


def test_ablate_writes_what_the_stage_commands_write(tmp_path):
    config, out = write_config(tmp_path, horizons=[1, 2])
    staged = tmp_path / "staged"
    assert main(["synth", "--config", str(config)]) == 0
    assert main(["ablate", "--config", str(config)]) == 0
    assert main(["run", "--config", str(config), "--out", str(staged)]) == 0
    for horizon in (1, 2):
        for name in (f"checkpoint_h{horizon}.json",
                     f"training_log_h{horizon}.json",
                     f"grades_h{horizon}.csv"):
            assert (out / name).read_bytes() == (staged / name).read_bytes()


def test_ablate_parses_its_inputs_once_and_predict_no_grades(tmp_path,
                                                             monkeypatch):
    config, _ = write_config(tmp_path, horizons=[1, 2])
    assert main(["synth", "--config", str(config)]) == 0
    calls = {}
    for module, name in ((graphs, "read_network_csv"),
                         (data, "read_measurements_csv"),
                         (data, "read_grades_csv")):
        def counted(*args, _read=getattr(module, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _read(*args)
        monkeypatch.setattr(module, name, counted)
    assert main(["ablate", "--config", str(config)]) == 0
    # the grade file is read once per horizon, to score the variants
    assert calls == {"read_network_csv": 1, "read_measurements_csv": 1,
                     "read_grades_csv": 2}
    calls.clear()
    assert main(["predict", "--config", str(config), "--horizon", "2"]) == 0
    assert calls == {"read_network_csv": 1, "read_measurements_csv": 1}


class TestFailureModes:
    def test_evaluate_without_predictions_exits_2_naming_file(self, tmp_path,
                                                              capsys):
        config, _ = write_config(tmp_path)
        assert main(["synth", "--config", str(config)]) == 0
        assert main(["label", "--config", str(config)]) == 0
        code = main(["evaluate", "--config", str(config)])
        assert code == 2
        assert "predictions_h1.csv" in capsys.readouterr().err

    def test_train_without_grades_exits_2(self, tmp_path, capsys):
        config, _ = write_config(tmp_path)
        assert main(["synth", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 2
        assert "grades_h1.csv" in capsys.readouterr().err

    def test_som_gain_above_one_exits_1(self, tmp_path, capsys):
        # som_learn_rate 0.5 x som_radius 3.0: a first-pass gain of 1.5
        config, out = write_config(tmp_path, som_learn_rate=0.5)
        assert main(["label", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "som_learn_rate" in err and "som_radius" in err
        assert "Traceback" not in err
        assert not (out / "grades_h1.csv").exists()

    # every stage that reads the measurements refuses what `graphs` refuses,
    # before it writes anything or reads another stage's output
    @pytest.mark.parametrize("command",
                             ["graphs", "label", "train", "predict", "ablate"])
    def test_pattern_longer_than_fit_window_exits_1(self, tmp_path, capsys,
                                                    command):
        # MINI's fit window at horizon 1 is hours [0, 604)
        config, out = write_config(tmp_path, pattern_hours=900)
        assert main(["synth", "--config", str(config)]) == 0
        assert main([command, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "pattern_hours" in err
        assert "604 h" in err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("command",
                             ["graphs", "label", "train", "predict", "ablate"])
    def test_heads_not_dividing_roads_exits_1_before_graphs(
            self, tmp_path, capsys, command):
        config, out = write_config(tmp_path, heads=4)  # 6 roads
        assert main(["synth", "--config", str(config)]) == 0
        assert main([command, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "head count 4" in err
        assert not list(out.iterdir())

    def test_missing_inputs_exit_2(self, tmp_path):
        config, _ = write_config(tmp_path)
        assert main(["graphs", "--config", str(config)]) == 2

    # and YAML keys that are no strings: an int, null, an int beside a string
    @pytest.mark.parametrize("text, named", [
        ("unknown_knob: 3\n", "unknown_knob"),
        ("1: 2\n", "1"),
        ("null: 2\n", "None"),
        ("1: 2\nfoo: 3\n", "1, foo"),
    ], ids=["unknown", "int", "null", "int-and-str"])
    def test_unknown_config_key_exits_1(self, tmp_path, capsys, text, named):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        assert main(["synth", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: unknown config keys: {named}\n"

    @pytest.mark.parametrize("text", [b"{:::\n", b"seed: 3\n\xff\n"],
                             ids=["yaml", "not-utf-8"])
    def test_malformed_config_exits_1(self, tmp_path, capsys, text):
        path = tmp_path / "bad.yaml"
        path.write_bytes(text)
        assert main(["synth", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(path) in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_usage_error_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["not-a-command"])
        assert exc.value.code == 1

    def test_non_integer_horizon_exits_1_with_the_reason(self, tmp_path,
                                                         capsys):
        config, _ = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", str(config), "--horizon", "x"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: roadgrade train ")
        assert err.endswith("\nroadgrade train: error: argument --horizon: "
                            "invalid int value: 'x'\n")

    def test_bad_horizon_exits_1(self, tmp_path):
        config, _ = write_config(tmp_path)
        assert main(["label", "--config", str(config), "--horizon", "0"]) == 1

    # header only and blank lines only: numpy's reader warns "input
    # contained no data", which must not escape, whatever the warning filter
    @pytest.mark.parametrize("rows, message", [
        ("R000,2020-01-06T00:00:00,oops,1\n", "measurements.csv:2: bad"),
        ("", "measurements.csv: no rows"),
        ("\n\r\n\n", "measurements.csv: no rows"),
    ], ids=["bad-value", "header-only", "blank-lines-only"])
    def test_malformed_measurements_exit_2(self, tmp_path, capsys, rows,
                                           message):
        config, _ = write_config(tmp_path)
        net = RoadNetwork(np.ones(4), ((0, 1), (1, 2), (2, 3)))
        write_network_csv(tmp_path / "network.csv", net,
                          [f"R{i:03d}" for i in range(4)])
        (tmp_path / "measurements.csv").write_bytes(
            b"road_id,timestamp,speed,flow\n" + rows.encode())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["graphs", "--config", str(config)]) == 2
        assert caught == []
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1

    def test_undecodable_measurements_exit_2(self, tmp_path, capsys):
        config, _ = write_config(tmp_path)
        assert main(["synth", "--config", str(config)]) == 0
        path = tmp_path / "measurements.csv"
        path.write_bytes(path.read_bytes() + b"\xff\n")
        assert main(["graphs", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "measurements.csv" in err and "Traceback" not in err


def _copy_pipeline(pipeline, tmp_path, **extra):
    """A config over a private copy of the pipeline fixture's artifacts."""
    source, _, out = pipeline
    config, copy = write_config(
        tmp_path, network=str(source / "network.csv"),
        measurements=str(source / "measurements.csv"), **extra)
    shutil.copytree(out, copy)
    return config, copy


def _first_grade(grade):
    def tamper(path):
        lines = path.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + f",{grade}"
        path.write_text("\n".join(lines) + "\n")
    return tamper


def _drop_fifth_test_hour(path):
    lines = path.read_text().splitlines()
    hour = lines[5].split(",")[1]  # rows are road-major
    path.write_text("\n".join(line for line in lines
                              if line.split(",")[1] != hour) + "\n")


def _duplicate_first_row(path):
    lines = path.read_text().splitlines()
    cells, grade = lines[1].rsplit(",", 1)
    lines.append(f"{cells},{1 if grade != '1' else 2}")
    path.write_text("\n".join(lines) + "\n")


def _drop_last_hour(path):
    lines = path.read_text().splitlines()
    last = max(line.split(",")[1] for line in lines[1:])
    path.write_text("\n".join(line for line in lines
                              if line.split(",")[1] != last) + "\n")


class TestStalePredictions:
    @pytest.mark.parametrize("tamper, extra, stale", [
        (_first_grade(9), {}, None),
        (_first_grade(0), {}, None),
        (_drop_fifth_test_hour, {}, None),
        (None, {"val_size": 10}, "first hour"),
        (_duplicate_first_row, {}, None),
    ], ids=["grade-9", "grade-0", "missing-hour", "other-val-size",
            "duplicate-row"])
    def test_evaluate_exits_2_naming_predictions(self, pipeline, tmp_path,
                                                 capsys, tamper, extra,
                                                 stale):
        config, out = _copy_pipeline(pipeline, tmp_path, **extra)
        if tamper is not None:
            tamper(out / "predictions_h1.csv")
        assert main(["evaluate", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "predictions_h1.csv" in err and "Traceback" not in err
        if stale:  # an artifact of another run names the stage to rerun
            assert f"predictions_h1.csv: {stale} is " in err
            assert err.endswith("; rerun predict\n")

    def test_train_rejects_out_of_range_grade(self, pipeline, tmp_path,
                                              capsys):
        config, out = _copy_pipeline(pipeline, tmp_path)
        _first_grade(9)(out / "grades_h1.csv")
        assert main(["train", "--config", str(config)]) == 2
        assert "grades_h1.csv" in capsys.readouterr().err

    # the grade file's reader is the one check of its range
    @pytest.mark.parametrize("command, grade", [
        ("train", 0), ("evaluate", 9), ("evaluate", 0)])
    def test_out_of_range_grade_file_exits_2_naming_it(
            self, pipeline, tmp_path, capsys, command, grade):
        config, out = _copy_pipeline(pipeline, tmp_path)
        _first_grade(grade)(out / "grades_h1.csv")
        assert main([command, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "grades_h1.csv" in err and "Traceback" not in err

    def test_train_rejects_grade_file_shorter_than_series(
            self, pipeline, tmp_path, capsys):
        config, out = _copy_pipeline(pipeline, tmp_path)
        _drop_last_hour(out / "grades_h1.csv")
        assert main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "grades_h1.csv: hour count is 671, expected 672; rerun label" \
            in err and "Traceback" not in err


def _drop(path):
    path.unlink()


def _asymmetric(path):
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[1] = repr(float(cells[1]) + 0.5)
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _other_road_ids(path):
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace("R000", "X000")
    path.write_text("\n".join(lines) + "\n")


class TestGraphArtifacts:
    """train and predict read the graphs that `graphs` wrote."""

    @pytest.mark.parametrize("command", ["train", "predict"])
    @pytest.mark.parametrize("name, tamper, extra, stale", [
        ("adjacency_weighted.csv", _drop, {}, None),
        ("adjacency_pattern.csv", _asymmetric, {}, None),
        ("adjacency_topological.csv", _other_road_ids, {},
         "header differs"),
        ("moran_report.json", None, {"train_size": 90},
         "window_hours is [0, 604], expected [0, 594]"),
        ("moran_report.json", None, {"alpha_speed": 0.5},
         "alpha_speed is 0.01, expected 0.5"),
        ("moran_report.json", None, {"pattern_hours": 4},
         "pattern_hours is 6, expected 4"),
    ], ids=["missing", "asymmetric", "other-road-ids", "stale-window",
            "stale-alpha", "stale-pattern"])
    def test_bad_graph_artifact_exits_2_naming_file(
            self, pipeline, tmp_path, capsys, command, name, tamper, extra,
            stale):
        config, out = _copy_pipeline(pipeline, tmp_path, **extra)
        if tamper is not None:
            tamper(out / name)
        assert main([command, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err
        if stale:  # one line naming the key and the stage to rerun
            assert err == f"data error: {out / name}: {stale}; rerun graphs\n"

    def test_model_stages_build_no_graph(self, pipeline, tmp_path,
                                         monkeypatch):
        config, out = _copy_pipeline(pipeline, tmp_path)
        _, _, fixture_out = pipeline
        written = ("checkpoint_h1.json", "training_log_h1.json",
                   "predictions_h1.csv", "attention_h1.json",
                   "metrics_h1.json", "mae_series_h1.csv")
        for name in written:
            (out / name).unlink()

        def refuse(*args, **kwargs):
            raise AssertionError("GraphSet.build called")

        monkeypatch.setattr(GraphSet, "build", refuse)
        for command in ("train", "predict", "evaluate"):
            assert main([command, "--config", str(config)]) == 0, command
        for name in written:
            assert (out / name).read_bytes() == \
                (fixture_out / name).read_bytes(), name


def _set_json(path, payload):
    path.write_text(json.dumps(payload))


def _shape_off_by_one(path):
    payload = json.loads(path.read_text())
    payload["shape"][0] += 1
    _set_json(path, payload)


def _without_values(path):
    payload = json.loads(path.read_text())
    del payload["values"]
    _set_json(path, payload)


def _set_label(index, label):
    def tamper(path):
        payload = json.loads(path.read_text())
        payload["labels"][index] = label
        _set_json(path, payload)
    return tamper


def _set_field(key, value):
    def tamper(path):
        payload = json.loads(path.read_text())
        payload[key] = value
        _set_json(path, payload)
    return tamper


def _reversed_labels(path):
    payload = json.loads(path.read_text())
    payload["labels"].reverse()
    _set_json(path, payload)


def _values(entry):
    """The floats of an attention record or of one checkpoint parameter."""
    return data.decode_floats(entry["values"], entry["shape"])


def _first_head_only(path):
    payload = json.loads(path.read_text())
    payload["values"] = data.encode_floats(_values(payload)[:1])
    payload["shape"] = [1, *payload["shape"][1:]]
    _set_json(path, payload)


def _per_graph_kernels(path):
    """Split each stacked GCN kernel into the per-graph entries of the
    version-2 layout, keeping the current header."""
    payload = json.loads(path.read_text())
    params = payload["params"]
    for name in [n for n in params if n.startswith(("gcn1/", "gcn2/"))]:
        kernels = _values(params.pop(name))
        for key, kernel in zip(GRAPH_KEYS, kernels, strict=True):
            params[f"{name}/{key}"] = {
                "shape": list(kernel.shape),
                "values": data.encode_floats(kernel)}
    _set_json(path, payload)


def _extra_parameter(path):
    payload = json.loads(path.read_text())
    payload["params"]["unused/weight"] = {
        "shape": [1], "values": data.encode_floats([0.0])}
    _set_json(path, payload)


def _set_parameter(name, value):
    """Put `value` (NaN or inf) into the first entry of checkpoint
    parameter `name`."""
    def tamper(path):
        payload = json.loads(path.read_text())
        entry = payload["params"][name]
        values = _values(entry)
        values.flat[0] = value
        entry["values"] = data.encode_floats(values)
        _set_json(path, payload)
    return tamper


def _edit_payload(edit, name=None):
    """Replace the base64 payload of the attention record, or of checkpoint
    parameter `name`, by `edit(payload)`."""
    def tamper(path):
        payload = json.loads(path.read_text())
        entry = payload if name is None else payload["params"][name]
        entry["values"] = edit(entry["values"])
        _set_json(path, payload)
    return tamper


def _not_base64(text):
    return "!" + text[1:]


def _one_value_short(text):
    """The payload without its last float: valid base64, 8 bytes short."""
    return base64.b64encode(base64.b64decode(text)[:-8]).decode("ascii")


@pytest.mark.parametrize("command, name, tamper, rerun", [
    ("predict", "checkpoint_h1.json",
     lambda path: _set_json(path, {"format": "roadgrade-checkpoint",
                                   "version": CHECKPOINT_VERSION}), None),
    ("predict", "checkpoint_h1.json", lambda path: _set_json(path, [1, 2]),
     None),
    ("predict", "checkpoint_h1.json", _per_graph_kernels, "train"),
    ("predict", "checkpoint_h1.json", _extra_parameter, "train"),
    ("predict", "checkpoint_h1.json", _set_parameter("attn/query", np.nan),
     None),
    ("predict", "checkpoint_h1.json", _set_parameter("head/bias", np.nan),
     None),
    ("predict", "checkpoint_h1.json", _set_parameter("head/bias", -np.inf),
     None),
    ("predict", "checkpoint_h1.json",
     _edit_payload(_not_base64, "attn/query"), None),
    ("predict", "checkpoint_h1.json",
     _edit_payload(_one_value_short, "head/bias"), None),
    ("predict", "checkpoint_h1.json",
     _edit_payload(lambda text: text[:-2], "head/bias"), None),
    ("predict", "checkpoint_h1.json",
     _edit_payload(lambda text: [0.0], "head/bias"), None),
    ("explain", "attention_h1.json", _shape_off_by_one, "predict"),
    ("explain", "attention_h1.json", lambda path: _set_json(path, []), None),
    ("explain", "attention_h1.json", _without_values, None),
    ("explain", "attention_h1.json", _set_label(0, "x_y"), "predict"),
    ("explain", "attention_h1.json", _set_label(0, 5), "predict"),
    ("explain", "attention_h1.json", _set_label(1, "r_h"), "predict"),
    ("explain", "attention_h1.json", _reversed_labels, "predict"),
    ("explain", "attention_h1.json", _set_field("prediction_length", 3),
     "predict"),
    ("explain", "attention_h1.json", _set_field("prediction_length", "x"),
     "predict"),
    # `true` is no number, although True == 1 in Python
    ("explain", "attention_h1.json", _set_field("prediction_length", True),
     "predict"),
    ("explain", "attention_h1.json", _first_head_only, "predict"),
    ("explain", "attention_h1.json", _edit_payload(_not_base64), None),
    ("explain", "attention_h1.json", _edit_payload(_one_value_short), None),
], ids=["checkpoint-no-config", "checkpoint-list",
        "checkpoint-per-graph-layout", "checkpoint-extra-parameter",
        "checkpoint-nan-query", "checkpoint-nan-bias", "checkpoint-inf-bias",
        "checkpoint-invalid-base64", "checkpoint-one-value-short",
        "checkpoint-truncated-text", "checkpoint-list-values",
        "attention-bad-shape",
        "attention-list", "attention-no-values", "attention-unknown-label",
        "attention-label-not-string", "attention-repeated-label",
        "attention-reversed-labels", "attention-prediction-length-3",
        "attention-prediction-length-string",
        "attention-prediction-length-true", "attention-one-head",
        "attention-invalid-base64", "attention-one-value-short"])
def test_malformed_json_artifact_exits_2(pipeline, tmp_path, capsys, command,
                                         name, tamper, rerun):
    config, out = _copy_pipeline(pipeline, tmp_path)
    tamper(out / name)
    assert main([command, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err
    if rerun:  # a record of another layout names the stage that writes it
        assert err.startswith(f"data error: {out / name}: ")
        assert err.endswith(f"; rerun {rerun}\n") and err.count("\n") == 1


def _as_number_lists(path):
    """The artifact in the layout of the previous version: every float
    payload spelled as a JSON list of numbers."""
    payload = json.loads(path.read_text())
    entries = (payload["params"].values() if "params" in payload
               else [payload])
    for entry in entries:
        entry["values"] = _values(entry).ravel().tolist()
    payload["version"] -= 1
    _set_json(path, payload)


@pytest.mark.parametrize("command, name, message", [
    ("predict", "checkpoint_h1.json", "version is 3, expected 4; rerun train"),
    ("explain", "attention_h1.json",
     "version is 1, expected 2; rerun predict"),
], ids=["checkpoint-version-3", "attention-version-1"])
def test_number_list_artifact_of_the_previous_version_exits_2(
        pipeline, tmp_path, capsys, command, name, message):
    config, out = _copy_pipeline(pipeline, tmp_path)
    _as_number_lists(out / name)
    assert main([command, "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"data error: {out / name}: {message}\n"


def test_checkpoint_of_another_config_exits_2_naming_key(pipeline, tmp_path,
                                                         capsys):
    config, out = _copy_pipeline(pipeline, tmp_path, hidden2=8)
    assert main(["predict", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        f"data error: {out / 'checkpoint_h1.json'}: hidden2 is 6, expected 8;"
        " rerun train\n")


def test_diverging_training_exits_3(pipeline, tmp_path, capsys):
    config, _ = _copy_pipeline(pipeline, tmp_path, learning_rate=1.0e300)
    assert main(["train", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["1e100", "1e200", "1.5e308"])
def test_huge_finite_measurement_exits_3_writing_nothing(tmp_path, capsys,
                                                         value):
    # one speed replaced: a Moran statistic overflows (at 1e100 in a Python
    # float power) before any graph is built; any numpy warning would fail
    # the test
    config, out = write_config(tmp_path)
    assert main(["synth", "--config", str(config)]) == 0
    path = tmp_path / "measurements.csv"
    lines = path.read_text().split("\n")
    road, stamp, _, flow = lines[4].split(",")
    lines[4] = ",".join([road, stamp, value, flow])
    path.write_text("\n".join(lines))
    assert main(["graphs", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and err.count("\n") == 1
    assert "measurements.csv" in err and "speed" in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("key, value", [
    ("som_radius", 1.0), ("som_learn_rate", 0), ("learning_rate", 0),
    ("alpha_speed", 0), ("alpha_flow", 0), ("window_hours", 0),
    ("window_days", 0), ("window_weeks", 0), ("pattern_hours", 0),
    ("pattern_hours", -3), ("epochs", 1.5), ("batch_size", 2.5),
    ("heads", 3.0), ("synth_roads", 12.5), ("seed", "abc"),
    ("horizons", ["x"]), ("epochs", True), ("learning_rate", "1e-3"),
    ("synth_roads", 2), ("synth_weeks", 3), ("seed", -1), ("val_size", -1),
    ("test_size", -5), ("n_grades", 1), ("som_learn_rate", 0.34),
    ("som_radius", 12.0), ("alpha_speed", float("inf")),
    ("alpha_flow", float("inf")), ("learning_rate", float("inf")),
    ("horizons", [1, 1]), ("som_max_iter", 0), ("hidden1", 0),
    ("hidden2", 0), ("train_size", 0), ("heads", 0),
])
def test_rejected_config_value_exits_1(tmp_path, capsys, key, value):
    config, _ = write_config(tmp_path, **{key: value})
    assert main(["synth", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err and "Traceback" not in err


def test_model_config_copies_each_model_field_of_the_run_config():
    defaults = {f.name: f.default for f in fields(RunConfig)}
    names = [f.name for f in fields(ModelConfig)
             if f.name not in ("n_roads", "resolutions")]
    assert set(names) <= set(defaults)
    # each value off its default; 6 heads still divide 12 roads
    doubled = {name: 2 * defaults[name] for name in names}
    built = RunConfig(**doubled).model_config(12, ("day",))
    assert (built.n_roads, built.resolutions) == (12, ("day",))
    for name in names:
        assert getattr(built, name) == doubled[name] != defaults[name], name


class TestOverrides:
    def test_flag_overrides_config_seed(self, tmp_path):
        config, out = write_config(tmp_path)
        assert main(["synth", "--config", str(config)]) == 0
        base = (tmp_path / "measurements.csv").read_bytes()
        assert main(["synth", "--config", str(config), "--seed", "99"]) == 0
        assert (tmp_path / "measurements.csv").read_bytes() != base

    def test_out_dir_override(self, tmp_path):
        config, _ = write_config(tmp_path)
        other = tmp_path / "elsewhere"
        assert main(["synth", "--config", str(config)]) == 0
        assert main(["graphs", "--config", str(config),
                     "--out", str(other)]) == 0
        assert (other / "moran_report.json").exists()

    @pytest.mark.parametrize("command, by_flag", [
        ("synth", True), ("synth", False), ("train", True)])
    def test_out_dir_naming_a_file_exits_1(self, tmp_path, capsys, command,
                                           by_flag):
        config, out = write_config(tmp_path)
        afile = tmp_path / "afile" if by_flag else out
        afile.write_text("not a directory\n")
        flags = ["--out", str(afile)] if by_flag else []
        assert main([command, "--config", str(config), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert str(afile) in err and "Traceback" not in err

    @pytest.mark.parametrize("key", ["network", "measurements"])
    def test_synth_input_directory_naming_a_file_exits_1(self, tmp_path,
                                                         capsys, key):
        afile = tmp_path / "afile"
        afile.write_text("not a directory\n")
        config, _ = write_config(tmp_path, **{key: str(afile / "x.csv")})
        assert main(["synth", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot create {key} directory "
                              f"{afile}: ")
        assert err.count("\n") == 1 and "Traceback" not in err


def test_constant_field_marks_moran_degenerate(tmp_path):
    config, out = write_config(tmp_path, train_size=5, val_size=1,
                               test_size=1)
    n, t = 4, 672
    net = RoadNetwork(np.ones(n), ((0, 1), (1, 2), (2, 3)))
    ids = [f"R{i:03d}" for i in range(n)]
    write_network_csv(tmp_path / "network.csv", net, ids)
    hours = np.arange(t)
    values = np.zeros((n, t, 2))
    values[:, :, 0] = 50.0 + 10.0 * np.sin(2 * np.pi * hours / 24)
    values[:, :, 1] = 300.0 + 100.0 * np.cos(2 * np.pi * hours / 24)
    write_measurements_csv(tmp_path / "measurements.csv",
                           TrafficSeries(values, DEFAULT_START), ids)
    assert main(["graphs", "--config", str(config)]) == 0
    report = json.loads((out / "moran_report.json").read_text())
    assert report["channels"]["speed"]["degenerate"] is True
    assert report["channels"]["speed"]["global"] is None


def test_edgeless_network_marks_moran_degenerate(tmp_path):
    config, out = write_config(tmp_path)
    assert main(["synth", "--config", str(config)]) == 0
    net, ids = read_network_csv(tmp_path / "network.csv")
    write_network_csv(tmp_path / "network.csv", RoadNetwork(net.lengths, ()),
                      ids)
    assert main(["graphs", "--config", str(config)]) == 0
    report = json.loads((out / "moran_report.json").read_text())
    for entry in report["channels"].values():
        assert entry == {"degenerate": True,
                         "reason": "network has no connections",
                         "global": None, "local": None}


def test_one_road_network_runs_every_stage(tmp_path):
    config, out = write_config(tmp_path, heads=1)
    assert main(["synth", "--config", str(config)]) == 0
    net, ids = read_network_csv(tmp_path / "network.csv")
    series = read_measurements_csv(tmp_path / "measurements.csv", ids)
    write_network_csv(tmp_path / "network.csv",
                      RoadNetwork(net.lengths[:1], ()), ids[:1])
    write_measurements_csv(tmp_path / "measurements.csv",
                           TrafficSeries(series.values[:1], series.start),
                           ids[:1])
    for command in ("run", "ablate"):
        assert main([command, "--config", str(config)]) == 0, command
    report = json.loads((out / "moran_report.json").read_text())
    for entry in report["channels"].values():
        assert entry == {"degenerate": True,
                         "reason": "network has no connections",
                         "global": None, "local": None}


# warnings are errors here, so an overflow warning would fail the test;
# R000 and R001 touch, so a path holds both
@pytest.mark.parametrize("lengths, code", [
    ({"R000": "1e200"}, 0), ({"R000": "1.5e308"}, 0),
    ({"R000": "1e308", "R001": "1e308"}, 2),
], ids=["1e200", "1.5e308", "two-1e308"])
def test_huge_road_lengths(tmp_path, capsys, lengths, code):
    config, out = write_config(tmp_path)
    assert main(["synth", "--config", str(config)]) == 0
    path = tmp_path / "network.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[:rows.index(["road_a", "road_b"])]:
        row[1] = lengths.get(row[0], row[1])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    capsys.readouterr()
    assert main(["graphs", "--config", str(config)]) == code
    err = capsys.readouterr().err
    if code:  # the total length overflows
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert "network.csv" in err and list(out.iterdir()) == []
        return
    assert err == ""
    attribute, _ = read_adjacency_csv(out / "adjacency_attribute.csv")
    # R000's length is too far from any other for a nonzero kernel
    assert not attribute[0].any() and np.count_nonzero(attribute) == 5 * 4
    weighted, _ = read_adjacency_csv(out / "adjacency_weighted.csv")
    assert np.isfinite(weighted).all() and weighted[0, 1] > 0


@pytest.mark.parametrize("name", ["adjacency_pattern.csv",
                                  "moran_report.json"])
def test_unwritable_artifact_exits_2(tmp_path, capsys, name):
    config, out = write_config(tmp_path)
    assert main(["synth", "--config", str(config)]) == 0
    (out / name).mkdir(parents=True)  # a directory in the artifact's place
    capsys.readouterr()
    assert main(["graphs", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: cannot write {out / name}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
