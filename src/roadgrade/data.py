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
class Samples:
    """Model inputs for a run of anchor hours, one row per anchor."""

    history: dict[str, np.ndarray]  # resolution -> (samples, roads, window, 2)
    target: np.ndarray              # (samples, roads) grades, horizon ahead
    anchors: np.ndarray             # (samples,) anchor hours

    def __len__(self) -> int:
        return len(self.anchors)

    def take(self, index) -> Samples:
        """The sub-batch at `index`, a slice or an array of positions."""
        return Samples({res: h[index] for res, h in self.history.items()},
                       self.target[index], self.anchors[index])


def resolution_indices(tau, horizon: int,
                       windows: tuple[int, int, int]) -> dict[str, np.ndarray]:
    """Hour indices feeding each resolution channel for anchor `tau`.

    An array of anchors gives one row of indices per anchor.
    """
    tau = np.asarray(tau)[..., None]
    delta_h, delta_d, delta_w = windows
    t_d = tau + horizon - 24
    t_w = tau + horizon - 168
    return {
        "hour": tau + np.arange(1 - delta_h, 1),
        "day": t_d - 24 * np.arange(delta_d - 1, -1, -1),
        "week": t_w - 168 * np.arange(delta_w - 1, -1, -1),
    }


def first_anchor(horizon: int, windows: tuple[int, int, int]) -> int:
    """Earliest anchor hour with full history in every resolution channel."""
    delta_h, delta_d, delta_w = windows
    return max(delta_h - 1,
               24 * (delta_d - 1) + 24 - horizon,
               168 * (delta_w - 1) + 168 - horizon)


def split_anchors(t: int, horizon: int, windows: tuple[int, int, int],
                  sizes: tuple[int, int, int]) -> tuple[range, range, range]:
    """Chronological train/validation/test anchor hours of a `t`-hour series.

    The three runs follow each other from the first anchor with full
    history; the last test target must lie inside the series.
    """
    n_train, n_val, n_test = (int(s) for s in sizes)
    if min(n_train, n_val, n_test) < 0:
        raise ValueError("split sizes must be non-negative")
    start = first_anchor(horizon, windows)
    train = range(start, start + n_train)
    val = range(train.stop, train.stop + n_val)
    test = range(val.stop, val.stop + n_test)
    if test.stop + horizon > t:
        raise DataError(
            f"series of {t} h cannot hold {n_train} training, {n_val} "
            f"validation and {n_test} test samples at horizon {horizon}")
    return train, val, test


def enumerate_samples(series: TrafficSeries, grades: np.ndarray,
                      anchors: range, horizon: int,
                      windows: tuple[int, int, int] = (24, 7, 3)) -> Samples:
    """The three-resolution inputs and grade targets of `anchors`."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    grades = np.asarray(grades)
    if grades.shape != (series.n, series.t):
        raise ValueError("grades shape must match the series")
    anchors = np.asarray(anchors, dtype=np.int64)
    indices = resolution_indices(anchors, horizon, windows)
    if anchors.size:
        for name, idx in indices.items():
            if idx.min() < 0:
                raise ValueError(f"insufficient history for the {name} "
                                 f"channel at tau={anchors.min()}")
        if anchors.max() + horizon >= series.t:
            raise ValueError(
                f"target hour {anchors.max() + horizon} beyond series end")
    # One gather per resolution.  Memory runs (anchor, hour, road, channel)
    # and `take` keeps that order: matmul rounding depends on the layout, so
    # another layout would change the trained bits.
    by_hour = series.values.transpose(1, 0, 2)
    history = {name: by_hour[idx].transpose(0, 2, 1, 3)
               for name, idx in indices.items()}
    target = grades.T[anchors + horizon].astype(np.int64)
    return Samples(history, target, anchors)


# -- file formats ----------------------------------------------------------------

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


def write_json(path, payload, indent: int | None = 2) -> None:
    """A JSON artifact with sorted keys; `indent=None` writes one line,
    built by the C encoder, which `json.dump` to a file never uses."""
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=indent))


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


def read_versioned(path, role: str, fmt: str, version: int) -> dict:
    """A JSON object artifact whose `format` and `version` are `fmt` and
    `version`."""
    payload = read_json_object(path, role)
    if payload.get("format") != fmt or payload.get("version") != version:
        raise DataError(f"{path} is not a version-{version} {role}")
    return payload
