"""Traffic series ingestion, normalization and model-input slicing.

Observations are hourly per-road (speed, flow) pairs.  A prediction sample
anchored at hour tau packs three views of the history: the trailing hours,
the same time-of-day across prior days, and the same time-of-week across
prior weeks, together with the grade targets at tau + horizon.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from .errors import DataError

SPEED, FLOW = 0, 1
CHANNEL_NAMES = ("speed", "flow")

HOUR = timedelta(hours=1)


@dataclass(frozen=True)
class TrafficSeries:
    """Hourly road observations, shape (roads, hours, 2): speed then flow."""

    values: np.ndarray
    start: datetime

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 3 or values.shape[2] != 2 or values.shape[1] < 1:
            raise ValueError("values must have shape (roads, hours >= 1, 2)")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        if np.any(values < 0):
            raise ValueError("speed/flow must be non-negative")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def t(self) -> int:
        return self.values.shape[1]

    def timestamp(self, hour: int) -> datetime:
        return self.start + hour * HOUR

    def timestamps(self) -> list[datetime]:
        return [self.timestamp(h) for h in range(self.t)]


def minmax_normalize(series: TrafficSeries,
                     fit_range: tuple[int, int]) -> TrafficSeries:
    """Map each channel to [0, 1] with min/max taken on `fit_range` only.

    Hours outside the fit range can fall outside [0, 1] and are clamped.
    """
    lo, hi = int(fit_range[0]), int(fit_range[1])
    if not (0 <= lo < hi <= series.t):
        raise ValueError(f"fit range [{lo}, {hi}) outside series")
    window = series.values[:, lo:hi, :]
    cmin = window.min(axis=(0, 1))
    cmax = window.max(axis=(0, 1))
    for c, name in enumerate(CHANNEL_NAMES):
        if cmax[c] <= cmin[c]:
            raise DataError(f"channel {name!r} is constant on the fit range")
    scaled = (series.values - cmin) / (cmax - cmin)
    return TrafficSeries(np.clip(scaled, 0.0, 1.0), series.start)


@dataclass(frozen=True)
class ResolutionSample:
    """One model input: three history views plus the grade targets."""

    hourly: np.ndarray     # (roads, window_hours, 2)
    daily: np.ndarray      # (roads, window_days, 2)
    weekly: np.ndarray     # (roads, window_weeks, 2)
    target: np.ndarray     # (roads,) grades in [1, n_grades]
    tau: int
    horizon: int

    def history(self, resolution: str) -> np.ndarray:
        return {"hour": self.hourly, "day": self.daily,
                "week": self.weekly}[resolution]

    @property
    def target_hour(self) -> int:
        return self.tau + self.horizon


def resolution_indices(tau: int, horizon: int,
                       windows: tuple[int, int, int]) -> dict[str, np.ndarray]:
    """Hour indices feeding each resolution channel for anchor `tau`."""
    delta_h, delta_d, delta_w = windows
    t_d = tau + horizon - 24
    t_w = tau + horizon - 168
    return {
        "hour": np.arange(tau - delta_h + 1, tau + 1),
        "day": t_d - 24 * np.arange(delta_d - 1, -1, -1),
        "week": t_w - 168 * np.arange(delta_w - 1, -1, -1),
    }


def slice_sample(series: TrafficSeries, grades: np.ndarray, tau: int,
                 horizon: int,
                 windows: tuple[int, int, int] = (24, 7, 3)
                 ) -> ResolutionSample:
    """Cut the three-resolution input anchored at hour `tau`."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if tau + horizon >= series.t:
        raise ValueError(f"target hour {tau + horizon} beyond series end")
    indices = resolution_indices(tau, horizon, windows)
    for name, idx in indices.items():
        if idx[0] < 0:
            raise ValueError(
                f"insufficient history for the {name} channel at tau={tau}")
    grades = np.asarray(grades)
    if grades.shape != (series.n, series.t):
        raise ValueError("grades shape must match the series")
    return ResolutionSample(
        hourly=series.values[:, indices["hour"], :],
        daily=series.values[:, indices["day"], :],
        weekly=series.values[:, indices["week"], :],
        target=grades[:, tau + horizon].astype(np.int64),
        tau=tau,
        horizon=horizon,
    )


def first_anchor(horizon: int, windows: tuple[int, int, int]) -> int:
    """Earliest anchor hour with full history in every resolution channel."""
    delta_h, delta_d, delta_w = windows
    return max(delta_h - 1,
               24 * (delta_d - 1) + 24 - horizon,
               168 * (delta_w - 1) + 168 - horizon)


def enumerate_samples(series: TrafficSeries, grades: np.ndarray, horizon: int,
                      windows: tuple[int, int, int] = (24, 7, 3)
                      ) -> list[ResolutionSample]:
    """All valid samples in chronological anchor order."""
    return [slice_sample(series, grades, tau, horizon, windows)
            for tau in range(first_anchor(horizon, windows),
                             series.t - horizon)]


def split(samples: list, sizes: tuple[int, int, int]):
    """Chronological train/validation/test split; no shuffling."""
    n_train, n_val, n_test = (int(s) for s in sizes)
    if min(n_train, n_val, n_test) < 0:
        raise ValueError("split sizes must be non-negative")
    if n_train + n_val + n_test > len(samples):
        raise ValueError(
            f"split sizes sum to {n_train + n_val + n_test} but only "
            f"{len(samples)} samples exist")
    train = samples[:n_train]
    val = samples[n_train:n_train + n_val]
    test = samples[n_train + n_val:n_train + n_val + n_test]
    return train, val, test


# -- CSV formats -----------------------------------------------------------------

_MEASUREMENT_HEADER = ["road_id", "timestamp", "speed", "flow"]
_GRADE_HEADER = ["road_id", "timestamp", "grade"]


def _parse_hour(raw: str, path, lineno: int) -> datetime:
    try:
        ts = datetime.fromisoformat(raw)
    except ValueError:
        raise DataError(f"{path}:{lineno}: bad timestamp {raw!r}") from None
    if ts.minute or ts.second or ts.microsecond or ts.tzinfo is not None:
        raise DataError(
            f"{path}:{lineno}: timestamp {raw!r} must be a naive whole hour")
    return ts


def write_measurements_csv(path, series: TrafficSeries,
                           road_ids: list[str]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_MEASUREMENT_HEADER)
        stamps = [ts.isoformat() for ts in series.timestamps()]
        for r, rid in enumerate(road_ids):
            for h, stamp in enumerate(stamps):
                writer.writerow([rid, stamp,
                                 repr(float(series.values[r, h, SPEED])),
                                 repr(float(series.values[r, h, FLOW]))])


def read_measurements_csv(path, road_ids: list[str] | None = None
                          ) -> tuple[TrafficSeries, list[str]]:
    """Parse hourly measurements; every road must cover every hour."""
    rows: dict[str, dict[datetime, tuple[float, float, int]]] = {}
    order: list[str] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _MEASUREMENT_HEADER:
            raise DataError(
                f"{path}:1: expected header {','.join(_MEASUREMENT_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise DataError(f"{path}:{lineno}: expected 4 columns")
            rid, raw_ts, raw_speed, raw_flow = row
            ts = _parse_hour(raw_ts, path, lineno)
            try:
                speed, flow = float(raw_speed), float(raw_flow)
            except ValueError:
                raise DataError(
                    f"{path}:{lineno}: bad speed/flow value") from None
            per_road = rows.setdefault(rid, {})
            if ts in per_road:
                raise DataError(
                    f"{path}:{lineno}: duplicate observation for {rid!r} "
                    f"at {raw_ts}")
            if rid not in order:
                order.append(rid)
            per_road[ts] = (speed, flow, lineno)
    if not rows:
        raise DataError(f"{path}: no measurements")
    if road_ids is not None:
        missing = [rid for rid in road_ids if rid not in rows]
        extra = [rid for rid in order if rid not in set(road_ids)]
        if missing or extra:
            raise DataError(
                f"{path}: road ids disagree with the network "
                f"(missing={missing}, unknown={extra})")
        order = list(road_ids)
    start = min(min(per_road) for per_road in rows.values())
    end = max(max(per_road) for per_road in rows.values())
    n_hours = int((end - start) / HOUR) + 1
    values = np.zeros((len(order), n_hours, 2))
    for r, rid in enumerate(order):
        per_road = rows[rid]
        previous_line = None
        for h in range(n_hours):
            ts = start + h * HOUR
            if ts not in per_road:
                where = (f"after line {previous_line}" if previous_line
                         else "at the start of the file")
                raise DataError(
                    f"{path}: road {rid!r} is missing hour "
                    f"{ts.isoformat()} ({where})")
            speed, flow, previous_line = per_road[ts]
            values[r, h] = (speed, flow)
    try:
        series = TrafficSeries(values, start)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    return series, order


def write_grades_csv(path, grades: np.ndarray, start: datetime,
                     road_ids: list[str]) -> None:
    grades = np.asarray(grades)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_GRADE_HEADER)
        for r, rid in enumerate(road_ids):
            for h in range(grades.shape[1]):
                stamp = (start + h * HOUR).isoformat()
                writer.writerow([rid, stamp, int(grades[r, h])])


def read_grades_csv(path, road_ids: list[str]
                    ) -> tuple[np.ndarray, datetime]:
    per_road: dict[str, dict[datetime, int]] = {rid: {} for rid in road_ids}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _GRADE_HEADER:
            raise DataError(
                f"{path}:1: expected header {','.join(_GRADE_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise DataError(f"{path}:{lineno}: expected 3 columns")
            rid, raw_ts, raw_grade = row
            if rid not in per_road:
                raise DataError(f"{path}:{lineno}: unknown road id {rid!r}")
            ts = _parse_hour(raw_ts, path, lineno)
            try:
                per_road[rid][ts] = int(raw_grade)
            except ValueError:
                raise DataError(
                    f"{path}:{lineno}: bad grade {raw_grade!r}") from None
    hours = sorted({ts for marks in per_road.values() for ts in marks})
    if not hours:
        raise DataError(f"{path}: no grades")
    for before, after in zip(hours, hours[1:]):
        if after - before != HOUR:
            raise DataError(f"{path}: no grades for the hour after "
                            f"{before.isoformat()}")
    start = hours[0]
    grades = np.zeros((len(road_ids), len(hours)), dtype=np.int64)
    for r, rid in enumerate(road_ids):
        for h, ts in enumerate(hours):
            if ts not in per_road[rid]:
                raise DataError(
                    f"{path}: road {rid!r} missing grade at {ts.isoformat()}")
            grades[r, h] = per_road[rid][ts]
    return grades, start


def read_json_object(path, role: str) -> dict:
    """A JSON artifact whose top level is an object."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read {role} {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise DataError(f"{path}: {role} must be a JSON object")
    return payload
