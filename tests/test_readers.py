"""Every file reader either parses its input or raises DataError."""

import re
import time
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadgrade.data import (TrafficSeries, read_grades_csv,
                            read_measurements_csv, write_grades_csv,
                            write_measurements_csv)
from roadgrade.errors import DataError
from roadgrade.explain import (AttentionRecord, read_attention_record,
                               write_attention_record)
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


def _attention(path):
    attention = np.full((1, 2, 2, 1), 0.5)
    write_attention_record(path, AttentionRecord(attention, ("r_h", "p_h"),
                                                 1))


# name -> (writer of a valid file, reader)
READERS = {
    "measurements": (_measurements,
                     lambda path: read_measurements_csv(path, IDS)),
    "grades": (_grades, lambda path: read_grades_csv(path, IDS)),
    "network": (_network, read_network_csv),
    "adjacency": (_adjacency, read_adjacency_csv),
    "attention-record": (_attention, read_attention_record),
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
