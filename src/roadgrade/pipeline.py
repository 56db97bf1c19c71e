"""End-to-end orchestration behind the command-line interface.

Every step is a pure function of the run configuration and the input files;
reruns with identical inputs and seed write byte-identical artifacts.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import yaml

from . import data, explain, graphs, grading, metrics, model, synth
from .errors import (ConfigError, DataError, DegenerateVarianceError,
                     NumericError)

VARIANT_NAMES = {
    "full": model.RESOLUTION_KEYS,
    "hourly": ("hour",),
    "daily": ("day",),
    "weekly": ("week",),
}


@dataclass(frozen=True)
class RunConfig:
    """One reproducibility artifact per run; flags override file values.
    Each range below is checked here only; the stages trust it."""

    network: str = "out/network.csv"
    measurements: str = "out/measurements.csv"
    out_dir: str = "out"
    seed: int = 0
    horizons: tuple[int, ...] = (1, 3, 6, 12, 24)
    # model
    n_grades: int = 5
    hidden1: int = 32
    hidden2: int = 32
    heads: int = 3
    window_hours: int = 24
    window_days: int = 7
    window_weeks: int = 3
    learning_rate: float = 1e-3
    batch_size: int = 16
    epochs: int = 500
    # graph construction
    alpha_speed: float = 1e-2
    alpha_flow: float = 1e-4
    pattern_hours: int = 24
    # grade labeling
    som_learn_rate: float = 0.1
    som_radius: float = 3.0
    som_max_iter: int = 200
    # sample split
    train_size: int = 240
    val_size: int = 80
    test_size: int = 80
    # synthetic generation
    synth_roads: int = 12
    synth_weeks: int = 6

    def __post_init__(self):
        for f in fields(self):  # each value has its default's type
            value, many = getattr(self, f.name), isinstance(f.default, tuple)
            kind = type(f.default[0] if many else f.default)
            allowed = (int, float) if kind is float else (kind,)
            items = value if many else [value]
            if (many and not isinstance(value, (list, tuple))
                    or any(type(item) not in allowed for item in items)):
                what = f"a list of {kind.__name__}" if many else kind.__name__
                raise ConfigError(f"{f.name} must be {what}, got {value!r}")
            if kind is float and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        object.__setattr__(self, "horizons", tuple(self.horizons))
        if not self.horizons or min(self.horizons) < 1:
            raise ConfigError("horizons must be positive")
        if len(set(self.horizons)) < len(self.horizons):
            raise ConfigError(f"horizons must not repeat, got "
                              f"{list(self.horizons)}")
        for floor, names in (
                (0, ("seed", "val_size", "test_size")),
                (1, ("hidden1", "hidden2", "heads", "epochs", "batch_size",
                     "train_size", "som_max_iter", "window_hours",
                     "window_days", "window_weeks", "pattern_hours")),
                (2, ("n_grades",)),
                (4, ("synth_roads", "synth_weeks"))):  # the generator's floor
            for name in names:
                if getattr(self, name) < floor:
                    raise ConfigError(f"{name} must be >= {floor}")
        for name in ("learning_rate", "alpha_speed", "alpha_flow",
                     "som_learn_rate"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be > 0")
        if not self.som_radius > 1:
            raise ConfigError("som_radius must be > 1")
        if self.som_learn_rate * self.som_radius > 1:
            raise ConfigError("som_learn_rate x som_radius (the first SOM "
                              "pass's gain) must be <= 1")

    @property
    def windows(self) -> tuple[int, int, int]:
        return (self.window_hours, self.window_days, self.window_weeks)

    @property
    def split_sizes(self) -> tuple[int, int, int]:
        return (self.train_size, self.val_size, self.test_size)

    def out_path(self, name: str) -> Path:
        return Path(self.out_dir) / name

    def model_config(self, n_roads: int,
                     resolutions=model.RESOLUTION_KEYS) -> model.ModelConfig:
        try:
            return model.ModelConfig(
                n_roads=n_roads, resolutions=resolutions,
                **{f.name: getattr(self, f.name)
                   for f in fields(model.ModelConfig)
                   if f.name not in ("n_roads", "resolutions")})
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    values: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                loaded = yaml.safe_load(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        except yaml.YAMLError as exc:  # its message spans lines
            raise ConfigError(f"malformed config {path}: "
                              f"{' '.join(str(exc).split())}") from None
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {path} must be a key-value mapping")
        values.update(loaded)
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    known = {f.name for f in fields(RunConfig)}
    unknown = sorted(map(str, set(values) - known))  # a YAML key: any scalar
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def make_dir(key: str, path) -> None:
    """Create directory `path`, with its parents, for config key `key`."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. a regular file of that name exists
        raise ConfigError(f"cannot create {key} directory {path}: "
                          f"{exc.strerror}") from None


# -- shared loading steps ---------------------------------------------------------


def load_inputs(cfg: RunConfig):
    net, road_ids = graphs.read_network_csv(cfg.network)
    cfg.model_config(net.n)  # a config `train` refuses reaches no stage
    series = data.read_measurements_csv(cfg.measurements, road_ids)
    return net, series, road_ids


def split_hours(cfg: RunConfig, series_t: int, horizon: int):
    """The split's anchor ranges and the fit window: the hours that fitted
    state (normalization, graphs, grades) sees, up to the last training
    target.  The pattern graph's window must fit inside it."""
    try:
        splits = data.split_anchors(series_t, horizon, cfg.windows,
                                    cfg.split_sizes)
    except DataError as exc:
        raise DataError(f"{cfg.measurements}: {exc}") from None
    fit_hours = splits[0].stop + horizon
    if cfg.pattern_hours > fit_hours:
        raise ConfigError(f"pattern_hours {cfg.pattern_hours} exceeds the "
                          f"{fit_hours} h fit window")
    return splits, (0, fit_hours)


def _read_grades(path: Path, road_ids: list[str], n_grades: int):
    """A grade or predictions file whose grades all lie in [1, n_grades]."""
    grades, start = data.read_grades_csv(path, road_ids)
    if grades.min() < 1 or grades.max() > n_grades:
        raise DataError(f"{path}: grades must lie in [1, {n_grades}]")
    return grades, start


def _hours(start, count: int) -> dict:
    """The hours that a road×hour table covers."""
    return {"first hour": start.isoformat(), "hour count": count}


def _graph_inputs(cfg: RunConfig, window: tuple[int, int]) -> dict:
    """What the graphs depend on besides the network and measurements."""
    return {"window_hours": list(window), "alpha_speed": cfg.alpha_speed,
            "alpha_flow": cfg.alpha_flow, "pattern_hours": cfg.pattern_hours}


def _read_graphs(cfg: RunConfig, road_ids: list[str],
                 window: tuple[int, int]) -> graphs.GraphSet:
    """The four graphs that `graphs` wrote with this config and window."""
    report_path = cfg.out_path("moran_report.json")
    data.check_artifact(report_path, data.read_json_object(
        report_path, "Moran report"), _graph_inputs(cfg, window), "graphs")
    matrices = {}
    for key in graphs.GRAPH_KEYS:
        path = cfg.out_path(f"adjacency_{key}.csv")
        matrices[key], header = graphs.read_adjacency_csv(path)
        data.check_artifact(path, {"header": header}, {"header": road_ids},
                            "graphs")
    return graphs.GraphSet(**matrices)


def _prepared(cfg: RunConfig, horizon: int, *wanted: str, inputs=None,
              targets: bool = True):
    """What the model stages share: the graphs read, and the samples of the
    `wanted` splits ("train", "val", "test"), in that order.

    `inputs` are those `load_inputs` returns, read here when not given.
    Without `targets`, the samples hold no grades and the grade file is not
    read.
    """
    _, series, road_ids = inputs or load_inputs(cfg)
    splits, window = split_hours(cfg, series.t, horizon)
    normalized = data.minmax_normalize(series, window)
    grade_values = None
    if targets:
        grade_path = artifact(cfg, "grades", horizon, "csv")
        grade_values, start = _read_grades(grade_path, road_ids,
                                           cfg.n_grades)
        data.check_artifact(grade_path, _hours(start, grade_values.shape[1]),
                            _hours(series.start, series.t), "label")
    graph_set = _read_graphs(cfg, road_ids, window)
    anchors = dict(zip(("train", "val", "test"), splits))
    samples = tuple(data.enumerate_samples(normalized, grade_values,
                                           anchors[name], horizon, cfg.windows)
                    for name in wanted)
    return series, road_ids, graph_set, samples


# -- artifact names ---------------------------------------------------------------


def artifact(cfg: RunConfig, stem: str, horizon: int, ext: str,
             variant: str = "full") -> Path:
    """The path of a per-horizon artifact: `<stem>_h<horizon>.<ext>` in the
    output directory, with `_<variant>` before the extension for an
    ablation variant other than the full model."""
    suffix = "" if variant == "full" else f"_{variant}"
    return cfg.out_path(f"{stem}_h{horizon}{suffix}.{ext}")


# -- commands ----------------------------------------------------------------------


def run_synth(cfg: RunConfig) -> list[Path]:
    net, series = synth.generate_synthetic(cfg.synth_roads, cfg.synth_weeks,
                                           cfg.seed)
    ids = synth.road_ids(net.n)
    for key in ("network", "measurements"):
        make_dir(key, Path(getattr(cfg, key)).parent)
    graphs.write_network_csv(cfg.network, net, ids)
    data.write_measurements_csv(cfg.measurements, series, ids)
    return [Path(cfg.network), Path(cfg.measurements)]


def run_graphs(cfg: RunConfig, horizon: int, inputs=None) -> list[Path]:
    net, series, road_ids = inputs or load_inputs(cfg)
    _, window = split_hours(cfg, series.t, horizon)
    # the Moran report first, so that a numeric failure writes no artifact
    conn = net.connectivity()
    report = {**_graph_inputs(cfg, window), "channels": {}}
    for channel, name in enumerate(data.CHANNEL_NAMES):
        try:
            # an overflow raises in numpy and in a Python float power, while
            # a Python float product or quotient gives inf: both exit 3
            with np.errstate(over="raise"):
                field_values = series.values[:, window[0]:window[1],
                                             channel].mean(axis=1)
                stats = (graphs.global_morans_i(field_values, conn),
                         graphs.local_morans_i(field_values, conn))
            if not np.isfinite(np.hstack(stats)).all():
                raise OverflowError
            entry = {"degenerate": False, "global": stats[0],
                     "local": stats[1].tolist()}
        except DegenerateVarianceError as exc:
            entry = {"degenerate": True, "reason": str(exc),
                     "global": None, "local": None}
        except (FloatingPointError, OverflowError):
            raise NumericError(f"{cfg.measurements}: Moran's I of the {name} "
                               "channel overflows; its values are too large"
                               ) from None
        report["channels"][name] = entry
    graph_set = graphs.GraphSet.build(
        net, series, window, alpha_speed=cfg.alpha_speed,
        alpha_flow=cfg.alpha_flow, pattern_hours=cfg.pattern_hours)
    written = []
    for key in graphs.GRAPH_KEYS:
        path = cfg.out_path(f"adjacency_{key}.csv")
        graphs.write_adjacency_csv(path, graph_set.raw(key), road_ids)
        written.append(path)
    report_path = cfg.out_path("moran_report.json")
    data.write_json(report_path, report)
    written.append(report_path)
    return written


def run_label(cfg: RunConfig, horizon: int, inputs=None) -> list[Path]:
    _, series, road_ids = inputs or load_inputs(cfg)
    _, window = split_hours(cfg, series.t, horizon)
    normalized = data.minmax_normalize(series, window)
    grades = grading.label_series(
        normalized.values, cfg.n_grades, seed=cfg.seed,
        learn_rate0=cfg.som_learn_rate, radius0=cfg.som_radius,
        max_iter=cfg.som_max_iter)
    path = artifact(cfg, "grades", horizon, "csv")
    data.write_grades_csv(path, grades, series.start, road_ids)
    return [path]


def _train_and_save(cfg: RunConfig, horizon: int, n_roads: int, graph_set,
                    train_set, val_set, variant: str) -> model.ModelState:
    resolutions = VARIANT_NAMES[variant]
    state = model.init_state(cfg.model_config(n_roads, resolutions), cfg.seed)
    log = model.train(state, train_set, val_set, graph_set)
    model.save_checkpoint(artifact(cfg, "checkpoint", horizon, "json",
                                   variant), state)
    data.write_json(artifact(cfg, "training_log", horizon, "json", variant), {
        "horizon": horizon,
        "variant": variant,
        "epochs": log,
    })
    return state


def run_train(cfg: RunConfig, horizon: int) -> list[Path]:
    _, road_ids, graph_set, (train_set, val_set) = _prepared(
        cfg, horizon, "train", "val")
    _train_and_save(cfg, horizon, len(road_ids), graph_set, train_set,
                    val_set, "full")
    return [artifact(cfg, stem, horizon, "json")
            for stem in ("checkpoint", "training_log")]


def run_predict(cfg: RunConfig, horizon: int) -> list[Path]:
    series, road_ids, graph_set, (test_set,) = _prepared(
        cfg, horizon, "test", targets=False)
    if not test_set:
        raise DataError("test split is empty; nothing to predict")
    state = model.load_checkpoint(artifact(cfg, "checkpoint", horizon, "json"),
                                  cfg.model_config(len(road_ids)))
    preds, mean_attention = model.predict_many(state, test_set, graph_set)
    pred_path = artifact(cfg, "predictions", horizon, "csv")
    first_target = int(test_set.anchors[0]) + horizon
    data.write_grades_csv(pred_path, preds.T, series.timestamp(first_target),
                          road_ids)
    trace_path = artifact(cfg, "attention", horizon, "json")
    explain.write_attention_record(trace_path, mean_attention, horizon)
    return [pred_path, trace_path]


def run_evaluate(cfg: RunConfig, horizon: int) -> list[Path]:
    """Score the predictions file against the grade file on the test split."""
    if cfg.test_size < 1:
        raise DataError("test split is empty; nothing to evaluate")
    _, road_ids = graphs.read_network_csv(cfg.network)
    grade_path = artifact(cfg, "grades", horizon, "csv")
    grade_values, start = _read_grades(grade_path, road_ids, cfg.n_grades)
    pred_path = artifact(cfg, "predictions", horizon, "csv")
    preds, pred_start = _read_grades(pred_path, road_ids, cfg.n_grades)
    try:
        _, _, test = data.split_anchors(grade_values.shape[1], horizon,
                                        cfg.windows, cfg.split_sizes)
    except DataError as exc:
        raise DataError(f"{grade_path}: {exc}") from None
    first, last = test.start + horizon, test.stop + horizon
    first_stamp = start + first * data.HOUR
    data.check_artifact(pred_path, _hours(pred_start, preds.shape[1]),
                        _hours(first_stamp, len(test)), "predict")
    truth = grade_values[:, first:last]
    payload = {
        "horizon": horizon,
        "accuracy": metrics.accuracy(preds, truth),
        "quadratic_weighted_kappa": metrics.quadratic_weighted_kappa(
            preds, truth, cfg.n_grades),
    }
    metrics_path = artifact(cfg, "metrics", horizon, "json")
    data.write_json(metrics_path, payload)
    mae = metrics.grade_mae_series(preds, truth).tolist()
    mae_path = artifact(cfg, "mae_series", horizon, "csv")
    data.write_table(mae_path, ["timestamp", "grade_mae"],
                     ([(first_stamp + offset * data.HOUR).isoformat(), value]
                      for offset, value in enumerate(mae)))
    return [metrics_path, mae_path]


def run_explain(cfg: RunConfig, horizon: int) -> list[Path]:
    n = len(model.COMBINATION_LABELS)
    attention = explain.read_attention_record(
        artifact(cfg, "attention", horizon, "json"), horizon,
        (cfg.heads, n, n, cfg.hidden2))
    report = explain.build_report(attention, horizon)
    json_path = artifact(cfg, "importance", horizon, "json")
    csv_path = artifact(cfg, "importance", horizon, "csv")
    data.write_json(json_path, report)
    explain.write_report_csv(csv_path, report)
    return [json_path, csv_path]


def run_ablate(cfg: RunConfig) -> list[Path]:
    """Train the full model and the single-resolution variants, then compare.

    Self-contained: per horizon it runs `graphs` and `label`, then trains,
    so only the network and measurement files are required up front.  It
    reads them once for every horizon.
    """
    inputs = load_inputs(cfg)
    rows = []
    for horizon in cfg.horizons:
        run_graphs(cfg, horizon, inputs)
        run_label(cfg, horizon, inputs)
        _, road_ids, graph_set, (train_set, val_set, test_set) = _prepared(
            cfg, horizon, "train", "val", "test", inputs=inputs)
        if not test_set:
            raise DataError("test split is empty; nothing to compare")
        truth = test_set.target
        for variant in VARIANT_NAMES:
            state = _train_and_save(cfg, horizon, len(road_ids), graph_set,
                                    train_set, val_set, variant)
            preds, _ = model.predict_many(state, test_set, graph_set)
            rows.append([variant, horizon, metrics.accuracy(preds, truth),
                         metrics.quadratic_weighted_kappa(
                             preds, truth, cfg.n_grades)])
    path = cfg.out_path("ablation.csv")
    data.write_table(path, ["variant", "horizon", "accuracy", "kappa"], rows)
    return [path]


def run_all(cfg: RunConfig):
    """Each per-horizon stage, horizon by horizon, run as the paths are read:
    `graphs` of a horizon writes the files that its later stages check."""
    return (path for horizon in cfg.horizons
            for stage in STAGES.values() if stage.per_horizon
            for path in stage.runner(cfg, horizon))


# in pipeline order; a stage per horizon takes `--horizon` and is in `run`
Stage = namedtuple("Stage", "help runner per_horizon")
STAGES = {
    "synth": Stage("generate a synthetic network and measurement series",
                   run_synth, False),
    "graphs": Stage("build the four adjacency matrices and a Moran report",
                    run_graphs, True),
    "label": Stage("assign congestion grades with the self-organizing map",
                   run_label, True),
    "train": Stage("train the prediction model", run_train, True),
    "predict": Stage("predict test-split grades and dump the attention trace",
                     run_predict, True),
    "evaluate": Stage("score the predictions file against the grade file: "
                      "accuracy, kappa and the per-hour grade MAE",
                      run_evaluate, True),
    "explain": Stage("derive combination-importance reports", run_explain,
                     True),
    "ablate": Stage("compare full and single-resolution models", run_ablate,
                    False),
    "run": Stage("run graphs to explain for each horizon", run_all, False),
}
