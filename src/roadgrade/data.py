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
_EPOCH = datetime(1, 1, 1)


def read_csv_rows(path):
    """The rows of a UTF-8 CSV file, as lists of fields, one at a time."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield from csv.reader(fh)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def _parse_hour(raw: str, path, lineno: int) -> int:
    """Hours since `_EPOCH` of a naive whole-hour ISO timestamp."""
    try:
        ts = datetime.fromisoformat(raw)
    except ValueError:
        raise DataError(f"{path}:{lineno}: bad timestamp {raw!r}") from None
    if ts.minute or ts.second or ts.microsecond or ts.tzinfo is not None:
        raise DataError(
            f"{path}:{lineno}: timestamp {raw!r} must be a naive whole hour")
    return (ts - _EPOCH) // HOUR


def _stamp(hour: int) -> str:
    return (_EPOCH + hour * HOUR).isoformat()


def _read_road_hours(path, header: list[str], road_ids: list[str] | None,
                     convert) -> tuple[np.ndarray, datetime, list[str]]:
    """A road×hour table: one `road_id,timestamp,<values>` row per cell.

    Rows come in any order, and every road covers every hour exactly once.
    Returns the values (roads, hours, k) as `convert`'s numpy type, the
    first hour and the road order: `road_ids`, or the file's when None.
    """
    rows = read_csv_rows(path)
    if next(rows, None) != header:
        raise DataError(f"{path}:1: expected header {','.join(header)}")
    width, what = len(header), "/".join(header[2:])
    index = ({} if road_ids is None
             else {rid: r for r, rid in enumerate(road_ids)})
    hour_of: dict[str, int] = {}  # each distinct timestamp is parsed once
    roads, hours, cells = [], [], []
    for lineno, row in enumerate(rows, start=2):
        if len(row) != width:
            if not row:
                continue
            raise DataError(f"{path}:{lineno}: expected {width} columns")
        r = index.get(row[0])
        if r is None:
            if road_ids is not None:
                raise DataError(f"{path}:{lineno}: unknown road id "
                                f"{row[0]!r}; road ids disagree with the "
                                "network")
            r = index[row[0]] = len(index)
        hour = hour_of.get(row[1])
        if hour is None:
            hour = hour_of[row[1]] = _parse_hour(row[1], path, lineno)
        try:
            cells.extend(map(convert, row[2:]))
        except ValueError:
            raise DataError(
                f"{path}:{lineno}: bad {what} value {row[2:]}") from None
        roads.append(r)
        hours.append(hour)
    if not roads:
        raise DataError(f"{path}: no rows")
    distinct = sorted(set(hour_of.values()))
    first, span = distinct[0], distinct[-1] - distinct[0] + 1
    if len(distinct) != span:  # before any array is sized by the span
        gap = next(a for a, b in zip(distinct, distinct[1:]) if b - a > 1)
        raise DataError(f"{path}: missing hour {_stamp(gap + 1)}: no row "
                        f"for the hour after {_stamp(gap)}")
    order = list(index)
    keys = np.array(roads) * span + (np.array(hours) - first)
    filled, first_rows = np.unique(keys, return_index=True)
    if filled.size < keys.size:  # name the first row that repeats a cell
        i = int(np.setdiff1d(np.arange(keys.size), first_rows)[0])
        r, h = divmod(int(keys[i]), span)
        lines = [n for n, row in enumerate(read_csv_rows(path), 1) if row]
        raise DataError(f"{path}:{lines[i + 1]}: duplicate row for road "
                        f"{order[r]!r} at {_stamp(first + h)}")
    if filled.size < len(order) * span:  # name the first cell no row fills
        wrong = np.flatnonzero(filled != np.arange(filled.size))
        r, h = divmod(int(wrong[0]) if wrong.size else filled.size, span)
        raise DataError(f"{path}: road {order[r]!r} is missing hour "
                        f"{_stamp(first + h)}")
    try:
        flat = np.array(cells, dtype=convert).reshape(keys.size, -1)
    except OverflowError:
        raise DataError(f"{path}: a {what} value is out of range") from None
    values = np.empty_like(flat)
    values[keys] = flat
    return (values.reshape(len(order), span, -1), _EPOCH + first * HOUR,
            order)


def _write_road_hours(path, header: list[str], values: np.ndarray,
                      start: datetime, road_ids: list[str]) -> None:
    """Values (roads, hours, k) as a road×hour table, road by road."""
    stamps = [(start + h * HOUR).isoformat() for h in range(values.shape[1])]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rid, road in zip(road_ids, values.tolist()):
            writer.writerows([rid, stamp, *cells]
                             for stamp, cells in zip(stamps, road))


def write_measurements_csv(path, series: TrafficSeries,
                           road_ids: list[str]) -> None:
    _write_road_hours(path, _MEASUREMENT_HEADER, series.values, series.start,
                      road_ids)


def read_measurements_csv(path, road_ids: list[str] | None = None
                          ) -> tuple[TrafficSeries, list[str]]:
    """Parse hourly measurements; every road must cover every hour."""
    values, start, order = _read_road_hours(path, _MEASUREMENT_HEADER,
                                            road_ids, float)
    try:
        return TrafficSeries(values, start), order
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def write_grades_csv(path, grades: np.ndarray, start: datetime,
                     road_ids: list[str]) -> None:
    values = np.asarray(grades).astype(np.int64)[:, :, None]
    _write_road_hours(path, _GRADE_HEADER, values, start, road_ids)


def read_grades_csv(path, road_ids: list[str]
                    ) -> tuple[np.ndarray, datetime]:
    values, start, _ = _read_road_hours(path, _GRADE_HEADER, road_ids, int)
    return values[:, :, 0], start


def read_json_object(path, role: str) -> dict:
    """A JSON artifact whose top level is an object."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise DataError(f"cannot read {role} {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise DataError(f"{path}: {role} must be a JSON object")
    return payload
