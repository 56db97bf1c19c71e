"""Traffic series ingestion, normalization and model-input slicing.

Observations are hourly per-road (speed, flow) pairs.  A prediction sample
anchored at hour tau packs three views of the history: the trailing hours,
the same time-of-day across prior days, and the same time-of-week across
prior weeks, together with the grade targets at tau + horizon.
"""

from __future__ import annotations

import base64
import csv
import hashlib
import io
import json
import os
import warnings
from collections import OrderedDict
from contextlib import suppress
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import chain, repeat

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
    lo, hi = fit_range
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
    """Model inputs for a run of anchor hours, one row per anchor;
    `target` is None when they were built without grades."""

    history: dict[str, np.ndarray]  # resolution -> (samples, roads, window, 2)
    target: np.ndarray | None       # (samples, roads) grades, horizon ahead
    anchors: np.ndarray             # (samples,) anchor hours

    def __len__(self) -> int:
        return len(self.anchors)

    def take(self, index) -> Samples:
        """The sub-batch at `index`, a slice or an array of positions."""
        return Samples({res: h[index] for res, h in self.history.items()},
                       None if self.target is None else self.target[index],
                       self.anchors[index])


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
    return -min(int(idx.min())
                for idx in resolution_indices(0, horizon, windows).values())


def split_anchors(t: int, horizon: int, windows: tuple[int, int, int],
                  sizes: tuple[int, int, int]) -> tuple[range, range, range]:
    """Chronological train/validation/test anchor hours of a `t`-hour series.

    The three runs follow each other from the first anchor with full
    history; the last test target must lie inside the series.
    """
    n_train, n_val, n_test = (int(s) for s in sizes)
    start = first_anchor(horizon, windows)
    train = range(start, start + n_train)
    val = range(train.stop, train.stop + n_val)
    test = range(val.stop, val.stop + n_test)
    if test.stop + horizon > t:
        raise DataError(
            f"series of {t} h cannot hold {n_train} training, {n_val} "
            f"validation and {n_test} test samples at horizon {horizon}")
    return train, val, test


def enumerate_samples(series: TrafficSeries, grades: np.ndarray | None,
                      anchors: range, horizon: int,
                      windows: tuple[int, int, int]) -> Samples:
    """The three-resolution inputs and grade targets of `anchors`; without
    `grades`, the inputs alone.  The anchors come from `split_anchors`, so
    every hour they read lies in the series."""
    anchors = np.asarray(anchors, dtype=np.int64)
    indices = resolution_indices(anchors, horizon, windows)
    # One gather per resolution.  Memory runs (anchor, hour, road, channel)
    # and `take` keeps that order: matmul rounding depends on the layout, so
    # another layout would change the trained bits.
    by_hour = series.values.transpose(1, 0, 2)
    history = {name: by_hour[idx].transpose(0, 2, 1, 3)
               for name, idx in indices.items()}
    target = (None if grades is None
              else np.asarray(grades).T[anchors + horizon].astype(np.int64))
    return Samples(history, target, anchors)


# -- file formats ----------------------------------------------------------------

_MEASUREMENT_HEADER = ["road_id", "timestamp", "speed", "flow"]
_GRADE_HEADER = ["road_id", "timestamp", "grade"]
_EPOCH = datetime(1, 1, 1)


def read_csv_rows(path, raw: bytes | None = None):
    """The rows of a UTF-8 CSV file, as lists of fields, one at a time;
    given `raw`, the file's bytes read before, the rows of those."""
    try:
        with (open(path, newline="", encoding="utf-8") if raw is None
              else io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8",
                                    newline="")) as fh:
            yield from csv.reader(fh)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def _parse_hour(raw: str) -> int:
    """Hours since `_EPOCH` of a naive whole-hour ISO timestamp; ValueError
    says what is wrong with another string."""
    try:
        ts = datetime.fromisoformat(raw)
    except ValueError:
        raise ValueError(f"bad timestamp {raw!r}") from None
    if ts.minute or ts.second or ts.microsecond or ts.tzinfo is not None:
        raise ValueError(f"timestamp {raw!r} must be a naive whole hour")
    return (ts - _EPOCH) // HOUR


def _stamp(hour: int) -> str:
    return (_EPOCH + hour * HOUR).isoformat()


def _read_plain(raw: bytes, header: list[str], index: dict[str, int],
                convert):
    """The road, hour and values of each row of a road×hour table, the
    file's bytes `raw`, and the hour of each timestamp, through numpy's text
    reader.  None where numpy might read otherwise than csv.reader, float()
    and int(): a quote, a NUL (dropped at a field's end), a byte \\x1c-\\x1f
    (a space to numpy only), a line long enough for a field they refuse
    (131,072 characters, 4,300 digits), a field that fills its width (cut);
    and a field that numpy, `index` or `_parse_hour` refuses, or a
    warning."""
    try:
        if (any(byte in raw for byte in b'"\0\x1c\x1d\x1e\x1f')
                or max(map(len, io.BytesIO(raw))) > 4096):  # < 4,300 digits
            return None
        specs = (("road", max(map(len, index), default=0) + 1,
                  index.__getitem__),
                 ("stamp", 20, _parse_hour))  # isoformat() writes 19 bytes
        # universal newlines and UTF-8, as loadtxt decodes a file it opens
        text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")
        with warnings.catch_warnings(action="error"):
            table = np.loadtxt(
                text, [(name, f"S{size}") for name, size, _ in specs]
                + [(name, convert) for name in header[2:]], comments=None,
                delimiter=",", skiprows=1, ndmin=1, encoding="utf-8")
        columns = []
        for name, size, parse in specs:
            # return_index: a stable sort, twice as fast on road-by-road tables
            distinct, _, where = np.unique(table[name], return_index=True,
                                           return_inverse=True)
            texts = [field.decode("latin-1") for field in distinct.tolist()]
            if max(map(len, texts)) >= size:  # it may have been cut short
                return None
            parsed = dict(zip(texts, map(parse, texts)))
            columns.append(np.array(list(parsed.values()))[where])
    except Exception:  # any fault: the csv path reads the table and names it
        return None
    return *columns, [table[name] for name in header[2:]], parsed


# the parsed road×hour tables of the last reads, by path, content digest,
# header, road ids and value type: unchanged bytes are parsed once
_PARSED: OrderedDict[tuple, tuple[np.ndarray, datetime]] = OrderedDict()
_PARSED_LIMIT = 4


def _read_road_hours(path, header: list[str], road_ids: list[str],
                     convert) -> tuple[np.ndarray, datetime]:
    """A road×hour table: one `road_id,timestamp,<values>` row per cell.

    Rows come in any order, and every road in `road_ids` covers every hour
    exactly once.  Returns the values (roads, hours, k) in `road_ids` order
    as `convert`'s numpy type, read-only, and the first hour.

    The file is read once, and its bytes are hashed and parsed: an edit
    after the read waits for the next one.  A table whose bytes were parsed
    before, among the last `_PARSED_LIMIT`, is not parsed again; a refused
    one is parsed on every read.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    key = (os.fspath(path), hashlib.sha256(raw).digest(), tuple(header),
           tuple(road_ids), convert)
    if key in _PARSED:
        _PARSED.move_to_end(key)
    else:
        values, start = _parse_road_hours(path, raw, header, road_ids,
                                          convert)
        values.flags.writeable = False  # shared by every later read
        _PARSED[key] = values, start
        if len(_PARSED) > _PARSED_LIMIT:
            _PARSED.popitem(last=False)
    return _PARSED[key]


def _parse_road_hours(path, raw: bytes, header: list[str],
                      road_ids: list[str], convert):
    """`_read_road_hours`' table from the file's bytes `raw`.

    A plain table is read by numpy (`_read_plain`), any other a row at a
    time, which names the first bad row.
    """
    width, what = len(header), "/".join(header[2:])
    index = {rid: r for r, rid in enumerate(road_ids)}
    hour_of: dict[str, int] = {}  # each distinct timestamp is parsed once
    roads, hours, *cells = ([] for _ in header)  # a list per column
    source = read_csv_rows(path, raw)
    if next(source, None) != header:
        raise DataError(f"{path}:1: expected header {','.join(header)}")
    if (plain := _read_plain(raw, header, index, convert)) is not None:
        roads, hours, cells, hour_of = plain
    else:
        for record, row in enumerate(source, start=2):
            if not row:
                continue
            if len(row) != width:
                raise DataError(f"{path}:{record}: expected {width} columns")
            if (road := index.get(row[0])) is None:
                raise DataError(f"{path}:{record}: unknown road id "
                                f"{row[0]!r}; road ids disagree with the "
                                "network")
            if (hour := hour_of.get(row[1])) is None:
                try:
                    hour = hour_of[row[1]] = _parse_hour(row[1])
                except ValueError as exc:
                    raise DataError(f"{path}:{record}: {exc}") from None
            try:
                for column, field in zip(cells, row[2:]):
                    column.append(convert(field))
            except ValueError:
                raise DataError(
                    f"{path}:{record}: bad {what} value {row[2:]}") from None
            roads.append(road)
            hours.append(hour)
    if not len(roads):
        raise DataError(f"{path}: no rows")
    distinct = sorted(set(hour_of.values()))
    first, span = distinct[0], distinct[-1] - distinct[0] + 1
    if len(distinct) != span:  # before any array is sized by the span
        gap = next(a for a, b in zip(distinct, distinct[1:]) if b - a > 1)
        raise DataError(f"{path}: missing hour {_stamp(gap + 1)}: no row "
                        f"for the hour after {_stamp(gap)}")
    keys = np.array(roads) * span + (np.array(hours) - first)
    filled, first_rows = np.unique(keys, return_index=True)
    if filled.size < keys.size:  # name the first row that repeats a cell
        i = int(np.setdiff1d(np.arange(keys.size), first_rows)[0])
        r, h = divmod(int(keys[i]), span)
        lines = [n for n, row in enumerate(read_csv_rows(path, raw), 1)
                 if row]
        raise DataError(f"{path}:{lines[i + 1]}: duplicate row for road "
                        f"{road_ids[r]!r} at {_stamp(first + h)}")
    if filled.size < len(road_ids) * span:  # name the first cell no row fills
        wrong = np.flatnonzero(filled != np.arange(filled.size))
        r, h = divmod(int(wrong[0]) if wrong.size else filled.size, span)
        raise DataError(f"{path}: road {road_ids[r]!r} is missing hour "
                        f"{_stamp(first + h)}")
    try:
        flat = np.stack([np.array(column, dtype=convert) for column in cells],
                        axis=1)
    except OverflowError:
        raise DataError(f"{path}: a {what} value is out of range") from None
    values = np.empty_like(flat)
    values[keys] = flat
    return values.reshape(len(road_ids), span, -1), _EPOCH + first * HOUR


def _write_text(path, write) -> None:
    """What `write(fh)` writes, in a file beside `path` that then replaces
    it: a failed write leaves the previous file and no other."""
    temporary = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temporary, "w", newline="") as fh:
            write(fh)
        os.replace(temporary, path)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror}") from None
    finally:  # after the replace there is no such file
        with suppress(OSError):
            os.remove(temporary)


def _csv_text(rows) -> str:
    """`rows` in `csv.writer`'s defaults: CRLF ends, minimal quoting."""
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    return text.getvalue()


def write_table(path, header: list[str], rows) -> None:
    """A CSV table: `header`, then `rows`, as `_csv_text` renders them."""
    _write_text(path, lambda fh: fh.write(_csv_text(chain([header], rows))))


def _write_road_hours(path, header: list[str], values: np.ndarray,
                      start: datetime, road_ids: list[str]) -> None:
    """Values (roads, hours, k) as a road×hour table, road by road, in
    `write_table`'s bytes: `csv.writer` quotes each road id once, and each
    value is spelled by `repr`, as `csv.writer` spells a float or an int."""
    stamps = [(start + h * HOUR).isoformat() for h in range(values.shape[1])]
    parts = [_csv_text([header])]
    for rid, columns in zip(road_ids, values.transpose(0, 2, 1).tolist()):
        # a two-field row, as an empty id alone on its row would be quoted
        quoted = _csv_text([[rid, ""]])[:-len(",\r\n")]
        rows = zip(repeat(quoted), stamps, *(map(repr, c) for c in columns))
        parts.append("\r\n".join(map(",".join, rows)) + "\r\n")
    _write_text(path, lambda fh: fh.writelines(parts))


def write_measurements_csv(path, series: TrafficSeries,
                           road_ids: list[str]) -> None:
    _write_road_hours(path, _MEASUREMENT_HEADER, series.values, series.start,
                      road_ids)


def read_measurements_csv(path, road_ids: list[str]) -> TrafficSeries:
    """Parse hourly measurements; every road must cover every hour."""
    values, start = _read_road_hours(path, _MEASUREMENT_HEADER, road_ids,
                                     float)
    try:
        return TrafficSeries(values, start)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def write_grades_csv(path, grades: np.ndarray, start: datetime,
                     road_ids: list[str]) -> None:
    values = np.asarray(grades).astype(np.int64)[:, :, None]
    _write_road_hours(path, _GRADE_HEADER, values, start, road_ids)


def read_grades_csv(path, road_ids: list[str]
                    ) -> tuple[np.ndarray, datetime]:
    values, start = _read_road_hours(path, _GRADE_HEADER, road_ids, int)
    return values[:, :, 0], start


def write_json(path, payload, indent: int | None = 2) -> None:
    """A JSON artifact with sorted keys; `indent=None` writes one line,
    built by the C encoder, which `json.dump` to a file never uses."""
    text = json.dumps(payload, sort_keys=True, indent=indent)
    _write_text(path, lambda fh: fh.write(text))


def encode_floats(array) -> str:
    """The values of `array` in C order as little-endian float64 bytes, in
    base64: an exact round trip through `decode_floats`, at half the size
    of the JSON number text and without its per-value `repr`."""
    raw = np.asarray(array, dtype="<f8").tobytes()
    return base64.b64encode(raw).decode("ascii")


def decode_floats(text: str, shape) -> np.ndarray:
    """The float64 array of `shape` that `encode_floats` wrote as `text`;
    text that is not base64, or whose bytes do not fill `shape`, raises
    ValueError, and a payload that is no string TypeError."""
    raw = base64.b64decode(text, validate=True)
    return np.frombuffer(raw, "<f8").astype(np.float64).reshape(shape)


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


def check_artifact(path, found: dict, expected: dict, stage: str) -> None:
    """Name the path, the first key of `expected` whose value differs from
    `found`'s as a JSON value (1 equals 1.0; `true` equals no number), and
    `stage`, which writes the artifact, to rerun."""
    for key, wanted in expected.items():
        shown = [json.dumps(item) for item in (found.get(key), wanted)]
        if len({json.dumps(json.loads(text, parse_int=float), sort_keys=True)
                for text in shown}) > 1:
            detail = ("differs" if len("".join(shown)) > 80  # e.g. road ids
                      else f"is {shown[0]}, expected {shown[1]}")
            raise DataError(f"{path}: {key} {detail}; rerun {stage}")
