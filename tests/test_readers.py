"""Every file reader either parses its input or raises DataError."""

import contextlib
import csv
import io
import re
import time
from datetime import datetime, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadgrade import data, pipeline
from roadgrade.data import (TrafficSeries, read_csv_rows, read_grades_csv,
                            read_measurements_csv, write_grades_csv,
                            write_measurements_csv)
from roadgrade.errors import DataError
from roadgrade.explain import read_attention_record, write_attention_record
from roadgrade.graphs import (RoadNetwork, read_adjacency_csv,
                              read_network_csv, write_adjacency_csv,
                              write_network_csv)

START = datetime(2020, 1, 6)
IDS = ["A", "B"]


def _measurements(path):
    values = np.arange(12, dtype=float).reshape(2, 3, 2) + 0.5
    write_measurements_csv(path, TrafficSeries(values, START), IDS)


def _grades(path):
    write_grades_csv(path, np.array([[1, 2, 3], [3, 2, 1]]), START, IDS)


def _network(path):
    write_network_csv(path, RoadNetwork(np.array([1.0, 2.5]), ((0, 1),)),
                      IDS)


def _adjacency(path):
    write_adjacency_csv(path, np.array([[0.0, 0.5], [0.5, 0.0]]), IDS)


ATTENTION_SHAPE = (1, 12, 12, 1)


def _attention(path):
    write_attention_record(path, np.full(ATTENTION_SHAPE, 1 / 12), 1)


# name -> (writer of a valid file, reader)
READERS = {
    "measurements": (_measurements,
                     lambda path: read_measurements_csv(path, IDS)),
    "grades": (_grades, lambda path: read_grades_csv(path, IDS)),
    "network": (_network, read_network_csv),
    "adjacency": (_adjacency, read_adjacency_csv),
    "attention-record": (_attention, lambda path: read_attention_record(
        path, 1, ATTENTION_SHAPE)),
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("valid")
    files = {}
    for name, (write, read) in READERS.items():
        write(folder / name)
        read(folder / name)
        files[name] = (folder / name).read_bytes()
    return files


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("mangled") / "input"


# A span of a valid file replaced by arbitrary bytes, or bytes alone.
mangling = st.one_of(
    st.tuples(st.floats(0, 1), st.integers(0, 12), st.binary(max_size=12)),
    st.binary(max_size=80))


def _mangle(valid: bytes, how) -> bytes:
    if isinstance(how, bytes):
        return how
    where, cut, junk = how
    at = int(where * len(valid))
    return valid[:at] + junk + valid[at + cut:]


@pytest.mark.parametrize("name", list(READERS))
@settings(max_examples=60, deadline=None)
@given(how=mangling)
def test_arbitrary_bytes_parse_or_raise_data_error(valid_files, scratch,
                                                    name, how):
    scratch.write_bytes(_mangle(valid_files[name], how))
    try:
        READERS[name][1](scratch)
    except DataError:
        pass


def test_rows_in_any_order(valid_files, tmp_path):
    path = tmp_path / "shuffled.csv"
    header, *rows = valid_files["measurements"].splitlines(keepends=True)
    path.write_bytes(header + b"".join(reversed(rows)))
    shuffled = read_measurements_csv(path, IDS)
    (tmp_path / "sorted.csv").write_bytes(valid_files["measurements"])
    expected = read_measurements_csv(tmp_path / "sorted.csv", IDS)
    np.testing.assert_array_equal(shuffled.values, expected.values)


@pytest.mark.parametrize("name", list(READERS))
def test_undecodable_or_unopenable_input_names_the_file(tmp_path, name):
    path = tmp_path / "input.csv"
    path.write_bytes(b"\xff\xfe")
    for target in (path, tmp_path):
        with pytest.raises(DataError, match=re.escape(str(target))):
            READERS[name][1](target)


@pytest.mark.parametrize("header, cell", [
    ("road_id,timestamp,speed,flow", "1.0,1.0"),
    ("road_id,timestamp,grade", "1"),
], ids=["measurements", "grades"])
def test_rows_centuries_apart_fail_at_once(tmp_path, header, cell):
    path = tmp_path / "far.csv"
    path.write_text(f"{header}\nA,0001-01-01T00:00:00,{cell}\n"
                    f"A,9999-12-31T23:00:00,{cell}\n")
    read = read_measurements_csv if "speed" in header else read_grades_csv
    started = time.perf_counter()
    with pytest.raises(DataError, match="missing hour"):
        read(path, ["A"])
    assert time.perf_counter() - started < 1.0


# -- the road×hour table against its row-by-row reference ---------------------

_EPOCH = datetime(1, 1, 1)
_HOUR = timedelta(hours=1)


def _reference_parse_hour(raw, path, lineno):
    try:
        ts = datetime.fromisoformat(raw)
    except ValueError:
        raise DataError(f"{path}:{lineno}: bad timestamp {raw!r}") from None
    if ts.minute or ts.second or ts.microsecond or ts.tzinfo is not None:
        raise DataError(
            f"{path}:{lineno}: timestamp {raw!r} must be a naive whole hour")
    return (ts - _EPOCH) // _HOUR


def _reference_stamp(hour):
    return (_EPOCH + hour * _HOUR).isoformat()


def reference_read_road_hours(path, header, road_ids, convert):
    """The road×hour reader as it was before batches: one csv.reader row at
    a time, the oracle for `data._read_road_hours`."""
    rows = read_csv_rows(path)
    if next(rows, None) != header:
        raise DataError(f"{path}:1: expected header {','.join(header)}")
    width, what = len(header), "/".join(header[2:])
    index = {rid: r for r, rid in enumerate(road_ids)}
    hour_of = {}
    roads, hours, cells = [], [], []
    for lineno, row in enumerate(rows, start=2):
        if len(row) != width:
            if not row:
                continue
            raise DataError(f"{path}:{lineno}: expected {width} columns")
        r = index.get(row[0])
        if r is None:
            raise DataError(f"{path}:{lineno}: unknown road id {row[0]!r}; "
                            "road ids disagree with the network")
        hour = hour_of.get(row[1])
        if hour is None:
            hour = hour_of[row[1]] = _reference_parse_hour(row[1], path,
                                                           lineno)
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
    if len(distinct) != span:
        gap = next(a for a, b in zip(distinct, distinct[1:]) if b - a > 1)
        raise DataError(f"{path}: missing hour {_reference_stamp(gap + 1)}: "
                        f"no row for the hour after {_reference_stamp(gap)}")
    keys = np.array(roads) * span + (np.array(hours) - first)
    filled, first_rows = np.unique(keys, return_index=True)
    if filled.size < keys.size:
        i = int(np.setdiff1d(np.arange(keys.size), first_rows)[0])
        r, h = divmod(int(keys[i]), span)
        lines = [n for n, row in enumerate(read_csv_rows(path), 1) if row]
        raise DataError(f"{path}:{lines[i + 1]}: duplicate row for road "
                        f"{road_ids[r]!r} at {_reference_stamp(first + h)}")
    if filled.size < len(road_ids) * span:
        wrong = np.flatnonzero(filled != np.arange(filled.size))
        r, h = divmod(int(wrong[0]) if wrong.size else filled.size, span)
        raise DataError(f"{path}: road {road_ids[r]!r} is missing hour "
                        f"{_reference_stamp(first + h)}")
    try:
        flat = np.array(cells, dtype=convert).reshape(keys.size, -1)
    except OverflowError:
        raise DataError(f"{path}: a {what} value is out of range") from None
    values = np.empty_like(flat)
    values[keys] = flat
    return values.reshape(len(road_ids), span, -1), _EPOCH + first * _HOUR


# (header, convert, values of one cell)
KINDS = {
    "measurements": (["road_id", "timestamp", "speed", "flow"], float,
                     st.lists(st.floats(), min_size=2, max_size=2)),
    "grades": (["road_id", "timestamp", "grade"], int,
               st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1,
                        max_size=1)),
}

# Road ids that csv.writer leaves unquoted, some with a NUL, which csv.reader
# reads as any other character, or with what `str.splitlines` but not
# csv.reader takes for a line break; ids with what makes csv.writer quote
# them; and unquoted ids with neither, which numpy's text reader takes.
PLAIN_ID = st.text("AB1_- é'\x00\x0b\x85\u2028", max_size=3)
ANY_ID = st.text('AB1,"\r\n é', max_size=4)
NUMPY_ID = st.text("AB1_- é'", max_size=3)

# flavour -> (road ids, quoting)
FLAVOURS = {"minimal": (PLAIN_ID, csv.QUOTE_MINIMAL),
            "all": (ANY_ID, csv.QUOTE_ALL),
            "numpy": (NUMPY_ID, csv.QUOTE_MINIMAL)}


@st.composite
def tables(draw, kind, flavour):
    """A valid road×hour table as text: road ids and quoting as the
    flavour says; rows shuffled, blank lines between them, one line end
    throughout."""
    header, _, cell = KINDS[kind]
    road_id, quoting = FLAVOURS[flavour]
    ids = draw(st.lists(road_id, min_size=1, max_size=3, unique=True))
    hours = draw(st.integers(1, 4))
    start = datetime(2020, 1, 6) + draw(st.integers(-30, 30)) * _HOUR
    rows = [[rid, (start + h * _HOUR).isoformat(), *map(repr, draw(cell))]
            for rid in ids for h in range(hours)]
    rows = draw(st.permutations(rows))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    lines = []
    for row in [header, *rows]:
        out = io.StringIO()
        csv.writer(out, lineterminator=ending, quoting=quoting).writerow(row)
        lines.append(out.getvalue())
        if draw(st.booleans()):
            lines.append(ending)
    return "".join(lines), ids


@contextlib.contextmanager
def _plain_reads():
    """The results of `data._read_plain` while the block runs, in order."""
    results = []
    read_plain = data._read_plain

    def record(*args):
        results.append(read_plain(*args))
        return results[-1]

    with mock.patch.object(data, "_read_plain", record):
        yield results


def _read_both(scratch, content: bytes, kind, ids):
    """The package reader's and the reference's result or DataError
    message, in that order; the package parses the table afresh, as
    `scratch` may have held the same bytes before."""
    header, convert, _ = KINDS[kind]
    scratch.write_bytes(content)
    data._PARSED.clear()
    outcomes = []
    for read in (data._read_road_hours, reference_read_road_hours):
        try:
            values, start = read(scratch, header, ids, convert)
            outcomes.append((values.dtype, values.shape, values.tobytes(),
                             start))
        except DataError as exc:
            outcomes.append(str(exc))
    return outcomes


@pytest.mark.parametrize("flavour", list(FLAVOURS))
@pytest.mark.parametrize("kind", list(KINDS))
@settings(max_examples=80, deadline=None)
@given(data_=st.data())
def test_valid_table_reads_as_the_reference_reads_it(scratch, kind, flavour,
                                                     data_):
    text, ids = data_.draw(tables(kind, flavour))
    with _plain_reads() as plain:
        package, reference = _read_both(scratch, text.encode(), kind, ids)
    assert not isinstance(reference, str), reference
    assert package == reference
    # a numpy-flavoured table must not reach the row loop
    assert flavour != "numpy" or plain[0] is not None


@pytest.mark.parametrize("kind", list(KINDS))
def test_plain_table_is_read_by_numpy_and_quoted_one_is_not(valid_files,
                                                            scratch, kind):
    # a numpy path that always handed a table over would pass every
    # differential test and gain nothing
    plain = valid_files[kind]
    header, *rows = plain.splitlines(keepends=True)
    quoted = header + b"".join(b'"' + row[:1] + b'"' + row[1:]
                               for row in rows)
    with _plain_reads() as tables:
        assert (_read_both(scratch, plain, kind, IDS)
                == _read_both(scratch, quoted, kind, IDS))
    assert [table is not None for table in tables] == [True, False]


# Tables on which numpy's text reader and csv.reader, or float() and int(),
# part ways: (kind, road ids, rows after the header, refused by the reference)
HAZARDS = {
    "empty-and-nul-ids": ("measurements", ["", "\x00"],
                          ",2020-01-06T00:00:00,1.0,2.0\n"
                          "\x00,2020-01-06T00:00:00,3.0,4.0\n", False),
    "id-longer-than-every-network-id": (
        "measurements", ["R00000", "R00001"],
        "R00000,2020-01-06T00:00:00,1.0,2.0\n"
        "R0000000000001,2020-01-06T00:00:00,3.0,4.0\n", True),
    "quoted-id-of-a-network-id-with-quotes": (
        "measurements", ['"A"'], '"A",2020-01-06T00:00:00,1.0,2.0\n', True),
    "space-and-microsecond-timestamps": (
        "measurements", ["A"], "A,2020-01-06 00:00:00,1.0,2.0\n"
        "A,2020-01-06T01:00:00.000000,3.0,4.0\n", False),
    "timestamp-whose-first-20-bytes-are-a-whole-hour": (
        "measurements", ["A"], "A,20200106T010000.00001,1.0,2.0\n", True),
    "information-separator-before-a-value": (
        "measurements", ["A"], "A,2020-01-06T00:00:00,\x1c0.0,1.0\n", True),
    "digit-group-underscore": ("measurements", ["A"],
                               "A,2020-01-06T00:00:00,6_9.5,1.0\n", False),
    "arabic-indic-digits": ("measurements", ["A"],
                            "A,2020-01-06T00:00:00,٦٩.٥,1.0\n",
                            False),
    "grade-of-4301-digits": ("grades", ["A"], "A,2020-01-06T00:00:00,"
                             + "0" * 4300 + "1\n", True),
    "field-over-the-csv-limit": ("measurements", ["A"],
                                 "A,2020-01-06T00:00:00,0." + "0" * 131072
                                 + "1,1.0\n", True),
    # a table that only the row loop reads, refused after that loop
    "quoted-table-with-a-duplicate-row": (
        "measurements", ["A"], '"A",2020-01-06T00:00:00,1.0,2.0\n'
        '"A",2020-01-06T00:00:00,3.0,4.0\n', True),
}


@pytest.mark.parametrize("name", list(HAZARDS))
def test_hazard_reads_as_the_reference_reads_it(scratch, name):
    kind, ids, rows, refused = HAZARDS[name]
    text = ",".join(KINDS[kind][0]) + "\n" + rows
    package, reference = _read_both(scratch, text.encode(), kind, ids)
    assert isinstance(reference, str) == refused, reference
    assert package == reference


# Characters that break a table's structure, replacing a span of its text;
# or arbitrary bytes, which need not be UTF-8.
JUNK = st.one_of(st.text(',"\r\n\x00 AB1.:-Te\x85', max_size=6),
                 st.binary(max_size=4))


@pytest.mark.parametrize("flavour", list(FLAVOURS))
@pytest.mark.parametrize("kind", list(KINDS))
@settings(max_examples=120, deadline=None)
@given(data_=st.data(), where=st.floats(0, 1), cut=st.integers(0, 8),
       junk=JUNK)
def test_mangled_table_fails_as_the_reference_fails(scratch, kind, flavour,
                                                    data_, where, cut, junk):
    text, ids = data_.draw(tables(kind, flavour))
    valid = text.encode()
    at = int(where * len(valid))
    if isinstance(junk, str):
        junk = junk.encode()
    mangled = valid[:at] + junk + valid[at + cut:]
    package, reference = _read_both(scratch, mangled, kind, ids)
    assert package == reference


@pytest.mark.parametrize("write, read, values", [
    (lambda path, values, ids: write_measurements_csv(
        path, TrafficSeries(values, START), ids),
     lambda path, ids: read_measurements_csv(path, ids).values,
     np.array([[[0.1, 2.0], [1e-300, 3.5]]] * 6)),
    (lambda path, values, ids: write_grades_csv(path, values, START, ids),
     lambda path, ids: read_grades_csv(path, ids)[0],
     np.array([[1, 2]] * 6)),
    (lambda path, values, ids: write_measurements_csv(
        path, TrafficSeries(values, START), ids),
     lambda path, ids: read_measurements_csv(path, ids).values,
     np.array([np.roll([1e16, 1e-05, 5e-324, 0.1 + 0.2, -0.0, 7.0], r)
               .reshape(3, 2) for r in range(6)])),
    (lambda path, values, ids: write_grades_csv(path, values, START, ids),
     lambda path, ids: read_grades_csv(path, ids)[0],
     np.arange(6 * 5).reshape(6, 5) * 37 + 3),
], ids=["measurements", "grades", "float-spellings", "multi-digit-grades"])
def test_writer_quotes_road_ids_as_csv_writer_does(tmp_path, write, read,
                                                    values):
    ids = ["a,b", 'say "hi"', "two\nlines", "", "cr\rlf\r\n", "plain"]
    path = tmp_path / "table.csv"
    write(path, values, ids)
    cells = values.reshape(len(ids), values.shape[1], -1).tolist()
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(data._MEASUREMENT_HEADER if values.ndim == 3
                    else data._GRADE_HEADER)
    for rid, road in zip(ids, cells):
        writer.writerows([rid, (START + h * _HOUR).isoformat(), *cell]
                         for h, cell in enumerate(road))
    assert path.read_bytes() == expected.getvalue().encode()
    np.testing.assert_array_equal(read(path, ids), values)


def _shift_a_field(lines):
    lines[3] = lines[3].rsplit(b",", 1)[0]  # one field short ...
    lines[4] = b"1.0," + lines[4]           # ... and one over, next row


def _bad_value_then_bad_byte(lines):
    lines[3] = lines[3][:lines[3].rindex(b",") + 1] + b"x"
    lines[250] = b"\xff" + lines[250]


def _open_quote_until_bad_byte(lines):
    lines[3] = b'"' + lines[3]
    lines[250] = b"\xff" + lines[250]


@pytest.mark.parametrize("mangle", [
    _shift_a_field, _bad_value_then_bad_byte, _open_quote_until_bad_byte])
def test_long_table_fails_as_the_reference_fails(scratch, mangle):
    # 300 rows span several of the 8 KB blocks that the text layer decodes
    # at a time, so a bad byte late in the table surfaces only after the
    # rows before it
    values = np.arange(600, dtype=float).reshape(1, 300, 2)
    write_measurements_csv(scratch, TrafficSeries(values, START), ["A"])
    lines = scratch.read_bytes().split(b"\r\n")
    mangle(lines)
    package, reference = _read_both(scratch, b"\r\n".join(lines),
                                    "measurements", ["A"])
    assert isinstance(reference, str)
    assert package == reference


# Faults of three kinds, by the record they go in; record n is `lines[n - 1]`,
# the header being record 1
FAULTS = {
    4: lambda line: line[:line.rindex(b",") + 1] + b"x",  # bad value
    9: lambda line: b"Z" + line[1:],                      # unknown road id
    20: lambda line: line.replace(b"-01-", b"-13-", 1),   # bad timestamp
}


@pytest.mark.parametrize("first", list(FAULTS))
def test_first_of_several_faults_is_named(scratch, first):
    values = np.arange(2048.0).reshape(1, 1024, 2)
    write_measurements_csv(scratch, TrafficSeries(values, START), ["A"])
    lines = scratch.read_bytes().split(b"\r\n")
    for record, fault in FAULTS.items():
        if record >= first:
            lines[record - 1] = fault(lines[record - 1])
    package, reference = _read_both(scratch, b"\r\n".join(lines),
                                    "measurements", ["A"])
    assert package == reference
    assert package.startswith(f"{scratch}:{first}: ")


# -- unchanged bytes are parsed once --------------------------------------------


@contextlib.contextmanager
def _parses():
    """The paths that `data._parse_road_hours` parses while the block runs,
    in order."""
    paths = []
    parse = data._parse_road_hours

    def record(path, *args):
        paths.append(path)
        return parse(path, *args)

    with mock.patch.object(data, "_parse_road_hours", record):
        yield paths


def test_same_length_rewrite_is_parsed_again(tmp_path):
    # one digit changed in place: the size stays, and the mtime may too
    path = tmp_path / "measurements.csv"
    _measurements(path)
    with _parses() as parsed:
        before = read_measurements_csv(path, IDS).values
        read_measurements_csv(path, IDS)
        text = path.read_bytes()
        path.write_bytes(text.replace(b",11.5", b",19.5"))
        after = read_measurements_csv(path, IDS).values
    assert parsed == [path, path]
    assert before[1, 2, 1] == 11.5 and after[1, 2, 1] == 19.5
    assert np.array_equal(np.delete(before.ravel(), -1),
                          np.delete(after.ravel(), -1))


@pytest.mark.parametrize("write, read", [
    (_measurements, lambda path: read_measurements_csv(path, IDS).values),
    (_grades, lambda path: read_grades_csv(path, IDS)[0]),
    (_grades, lambda path: pipeline._read_grades(path, IDS, 3)[0]),
], ids=["measurements", "grades", "predictions"])
def test_returned_tables_are_read_only(tmp_path, write, read):
    path = tmp_path / "table.csv"
    write(path)
    for _ in range(2):  # the parse, then the kept table
        with pytest.raises(ValueError, match="read-only"):
            read(path)[0, 0] = 2
    assert np.all(read(path)[0, 0] != 2)


def test_refused_table_is_refused_on_every_read(tmp_path):
    path = tmp_path / "grades.csv"
    _grades(path)
    valid = path.read_bytes()
    header, first, *rest = valid.splitlines(keepends=True)
    path.write_bytes(b"".join([header, first, first, *rest]))
    with _parses() as parsed:
        for _ in range(2):
            with pytest.raises(DataError, match=":3: duplicate row"):
                read_grades_csv(path, IDS)
        path.write_bytes(valid)
        grades, _ = read_grades_csv(path, IDS)
    assert parsed == [path] * 3
    np.testing.assert_array_equal(grades, [[1, 2, 3], [3, 2, 1]])


def test_at_most_four_tables_are_kept(tmp_path):
    paths = [tmp_path / f"grades_{i}.csv" for i in range(5)]
    for path in paths:
        _grades(path)
    with _parses() as parsed:
        for path in paths:
            read_grades_csv(path, IDS)
        for path in paths[:0:-1]:  # the last four, none parsed again
            read_grades_csv(path, IDS)
        read_grades_csv(paths[0], IDS)  # evicted by the fifth
    assert parsed == [*paths, paths[0]]
    assert len(data._PARSED) == data._PARSED_LIMIT == 4
