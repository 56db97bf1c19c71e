"""End-to-end command-line pipeline on a miniature synthetic corpus."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest
import yaml

from roadgrade.cli import main
from roadgrade.data import enumerate_samples, minmax_normalize, \
    read_grades_csv, read_measurements_csv, write_measurements_csv
from roadgrade.graphs import GRAPH_KEYS, GraphSet, read_adjacency_csv, \
    read_network_csv, write_network_csv, RoadNetwork
from roadgrade.metrics import accuracy, quadratic_weighted_kappa
from roadgrade.model import CHECKPOINT_VERSION, load_checkpoint, \
    predict_many
from roadgrade.pipeline import load_config, split_hours
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
    """synth -> graphs -> label -> train -> predict -> evaluate -> explain."""
    tmp_path = tmp_path_factory.mktemp("cli")
    config, out = write_config(tmp_path)
    for command in ("synth", "graphs", "label", "train", "predict",
                    "evaluate", "explain"):
        assert main([command, "--config", str(config)]) == 0, command
    return tmp_path, config, out


class TestPipeline:
    def test_synth_artifacts_parse(self, pipeline):
        tmp_path, _, _ = pipeline
        series, ids = read_measurements_csv(tmp_path / "measurements.csv")
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
        assert len(payload["mae_series"]) == MINI["test_size"]

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
        series, _ = read_measurements_csv(cfg.measurements, road_ids)
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


def test_rerun_is_byte_identical(tmp_path):
    first_cfg, first_out = write_config(tmp_path, "first")
    second_cfg, second_out = write_config(tmp_path, "second")
    artifacts = {}
    for config, out in ((first_cfg, first_out), (second_cfg, second_out)):
        for command in ("synth", "graphs", "label", "train", "predict",
                        "evaluate", "explain"):
            assert main([command, "--config", str(config)]) == 0
        artifacts[out] = {p.name: p.read_bytes()
                          for p in sorted(Path(out).iterdir())}
        # synth writes into the shared tmp dir; remove for the second pass
        (tmp_path / "network.csv").unlink()
        (tmp_path / "measurements.csv").unlink()
    assert artifacts[first_out].keys() == artifacts[second_out].keys()
    for name in artifacts[first_out]:
        assert artifacts[first_out][name] == artifacts[second_out][name], name


def test_ablate_emits_comparison_table(tmp_path):
    config, out = write_config(tmp_path, train_size=60, val_size=10,
                               test_size=10)
    assert main(["synth", "--config", str(config)]) == 0
    assert main(["ablate", "--config", str(config)]) == 0
    table = json.loads((out / "ablation.json").read_text())
    variants = {row["variant"] for row in table["rows"]}
    assert variants == {"full", "hourly", "daily", "weekly"}
    assert all(0.0 <= row["accuracy"] <= 1.0 for row in table["rows"])
    assert (out / "ablation.csv").read_text().startswith(
        "variant,horizon,accuracy,kappa\n")
    for variant in ("", "_hourly", "_daily", "_weekly"):
        assert (out / f"checkpoint_h1{variant}.json").exists()


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

    def test_missing_inputs_exit_2(self, tmp_path):
        config, _ = write_config(tmp_path)
        assert main(["graphs", "--config", str(config)]) == 2

    def test_unknown_config_key_exits_1(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("unknown_knob: 3\n")
        assert main(["synth", "--config", str(path)]) == 1

    def test_malformed_config_exits_1(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("{:::\n")
        assert main(["synth", "--config", str(path)]) == 1

    def test_usage_error_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["not-a-command"])
        assert exc.value.code == 1

    def test_bad_horizon_exits_1(self, tmp_path):
        config, _ = write_config(tmp_path)
        assert main(["label", "--config", str(config), "--horizon", "0"]) == 1

    def test_malformed_measurements_exit_2(self, tmp_path, capsys):
        config, _ = write_config(tmp_path)
        net = RoadNetwork(np.ones(4), ((0, 1), (1, 2), (2, 3)))
        write_network_csv(tmp_path / "network.csv", net,
                          [f"R{i:03d}" for i in range(4)])
        (tmp_path / "measurements.csv").write_text(
            "road_id,timestamp,speed,flow\nR000,2020-01-06T00:00:00,oops,1\n")
        assert main(["graphs", "--config", str(config)]) == 2
        assert ":2" in capsys.readouterr().err

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


def _grade_nine(path):
    lines = path.read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",9"
    path.write_text("\n".join(lines) + "\n")


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
    @pytest.mark.parametrize("tamper, extra", [
        (_grade_nine, {}),
        (_drop_fifth_test_hour, {}),
        (None, {"val_size": 10}),
        (_duplicate_first_row, {}),
    ], ids=["grade-9", "missing-hour", "other-val-size", "duplicate-row"])
    def test_evaluate_exits_2_naming_predictions(self, pipeline, tmp_path,
                                                 capsys, tamper, extra):
        config, out = _copy_pipeline(pipeline, tmp_path, **extra)
        if tamper is not None:
            tamper(out / "predictions_h1.csv")
        assert main(["evaluate", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "predictions_h1.csv" in err and "Traceback" not in err

    def test_train_rejects_out_of_range_grade(self, pipeline, tmp_path,
                                              capsys):
        config, out = _copy_pipeline(pipeline, tmp_path)
        _grade_nine(out / "grades_h1.csv")
        assert main(["train", "--config", str(config)]) == 2
        assert "grades_h1.csv" in capsys.readouterr().err

    def test_train_rejects_grade_file_shorter_than_series(
            self, pipeline, tmp_path, capsys):
        config, out = _copy_pipeline(pipeline, tmp_path)
        _drop_last_hour(out / "grades_h1.csv")
        assert main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "grades_h1.csv" in err and "Traceback" not in err


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
    @pytest.mark.parametrize("name, tamper, extra", [
        ("adjacency_weighted.csv", _drop, {}),
        ("adjacency_pattern.csv", _asymmetric, {}),
        ("adjacency_topological.csv", _other_road_ids, {}),
        ("moran_report.json", None, {"train_size": 90}),
        ("moran_report.json", None, {"alpha_speed": 0.5}),
        ("moran_report.json", None, {"pattern_hours": 4}),
    ], ids=["missing", "asymmetric", "other-road-ids", "stale-window",
            "stale-alpha", "stale-pattern"])
    def test_bad_graph_artifact_exits_2_naming_file(
            self, pipeline, tmp_path, capsys, command, name, tamper, extra):
        config, out = _copy_pipeline(pipeline, tmp_path, **extra)
        if tamper is not None:
            tamper(out / name)
        assert main([command, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err

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


def _per_graph_kernels(path):
    """Split each stacked GCN kernel into the per-graph entries of the
    version-2 layout, keeping the version-3 header."""
    payload = json.loads(path.read_text())
    params = payload["params"]
    for name in [n for n in params if n.startswith(("gcn1/", "gcn2/"))]:
        entry = params.pop(name)
        shape = entry["shape"][1:]
        size = int(np.prod(shape))
        for i, key in enumerate(GRAPH_KEYS):
            params[f"{name}/{key}"] = {
                "shape": shape,
                "values": entry["values"][i * size:(i + 1) * size]}
    _set_json(path, payload)


def _extra_parameter(path):
    payload = json.loads(path.read_text())
    payload["params"]["unused/weight"] = {"shape": [1], "values": [0.0]}
    _set_json(path, payload)


def _set_parameter(name, value):
    """Put `value` (NaN or inf, which json writes as bare tokens) into the
    first entry of checkpoint parameter `name`."""
    def tamper(path):
        payload = json.loads(path.read_text())
        payload["params"][name]["values"][0] = value
        _set_json(path, payload)
    return tamper


@pytest.mark.parametrize("command, name, tamper", [
    ("predict", "checkpoint_h1.json",
     lambda path: _set_json(path, {"format": "roadgrade-checkpoint",
                                   "version": CHECKPOINT_VERSION})),
    ("predict", "checkpoint_h1.json", lambda path: _set_json(path, [1, 2])),
    ("predict", "checkpoint_h1.json", _per_graph_kernels),
    ("predict", "checkpoint_h1.json", _extra_parameter),
    ("predict", "checkpoint_h1.json", _set_parameter("attn/query", np.nan)),
    ("predict", "checkpoint_h1.json", _set_parameter("head/bias", np.nan)),
    ("predict", "checkpoint_h1.json", _set_parameter("head/bias", -np.inf)),
    ("explain", "attention_h1.json", _shape_off_by_one),
    ("explain", "attention_h1.json", lambda path: _set_json(path, [])),
    ("explain", "attention_h1.json", _without_values),
    ("explain", "attention_h1.json", _set_label(0, "x_y")),
    ("explain", "attention_h1.json", _set_label(0, 5)),
    ("explain", "attention_h1.json", _set_label(1, "r_h")),
], ids=["checkpoint-no-config", "checkpoint-list",
        "checkpoint-per-graph-layout", "checkpoint-extra-parameter",
        "checkpoint-nan-query", "checkpoint-nan-bias", "checkpoint-inf-bias",
        "attention-bad-shape",
        "attention-list", "attention-no-values", "attention-unknown-label",
        "attention-label-not-string", "attention-repeated-label"])
def test_malformed_json_artifact_exits_2(pipeline, tmp_path, capsys, command,
                                         name, tamper):
    config, out = _copy_pipeline(pipeline, tmp_path)
    tamper(out / name)
    assert main([command, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err


def test_diverging_training_exits_3(pipeline, tmp_path, capsys):
    config, _ = _copy_pipeline(pipeline, tmp_path, learning_rate=1.0e300)
    assert main(["train", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and err.count("\n") == 1
    assert "Traceback" not in err


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
])
def test_rejected_config_value_exits_1(tmp_path, capsys, key, value):
    config, _ = write_config(tmp_path, **{key: value})
    assert main(["synth", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err and "Traceback" not in err


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
