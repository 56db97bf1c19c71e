"""Normalization, three-resolution slicing, splits, measurement files, the
staleness check of artifacts read back, atomic artifact writes, and the
float payloads of machine-read artifacts."""

import base64
import errno
import os
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadgrade.data import (TrafficSeries, check_artifact, decode_floats,
                            encode_floats, enumerate_samples,
                            first_anchor, minmax_normalize,
                            read_grades_csv, read_measurements_csv,
                            resolution_indices, split_anchors,
                            write_grades_csv, write_json,
                            write_measurements_csv, write_table)
from roadgrade.errors import DataError

START = datetime(2020, 1, 6)


def make_series(n=3, t=900, seed=0):
    rng = np.random.default_rng(seed)
    return TrafficSeries(rng.uniform(1.0, 100.0, size=(n, t, 2)), START)


class TestTrafficSeries:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TrafficSeries(np.zeros((3, 0, 2)), START)
        with pytest.raises(ValueError):
            TrafficSeries(np.zeros((3, 5, 3)), START)

    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(ValueError):
            TrafficSeries(-np.ones((2, 3, 2)), START)
        bad = np.ones((2, 3, 2))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            TrafficSeries(bad, START)


class TestMinmaxNormalize:
    def test_three_point_channel(self):
        values = np.zeros((1, 3, 2))
        values[0, :, 0] = [10.0, 20.0, 30.0]
        values[0, :, 1] = [1.0, 2.0, 3.0]
        series = TrafficSeries(values, START)
        normalized = minmax_normalize(series, (0, 3))
        np.testing.assert_allclose(normalized.values[0, :, 0],
                                   [0.0, 0.5, 1.0])

    def test_out_of_fit_values_clamp(self):
        values = np.zeros((1, 4, 2))
        values[0, :, 0] = [10.0, 20.0, 30.0, 95.0]
        values[0, :, 1] = [1.0, 2.0, 3.0, 0.5]
        series = TrafficSeries(values, START)
        normalized = minmax_normalize(series, (0, 3))
        assert normalized.values[0, 3, 0] == 1.0
        assert normalized.values[0, 3, 1] == 0.0

    def test_constant_channel_rejected(self):
        values = np.ones((2, 5, 2))
        values[:, :, 0] = np.arange(5)
        series = TrafficSeries(values, START)
        with pytest.raises(DataError, match="flow"):
            minmax_normalize(series, (0, 5))


class TestSliceSample:
    def test_hourly_indices(self):
        idx = resolution_indices(tau=100, horizon=1, windows=(24, 7, 3))
        assert idx["hour"].tolist() == list(range(77, 101))

    def test_daily_indices_hand_case(self):
        idx = resolution_indices(tau=200, horizon=1, windows=(24, 7, 3))
        assert idx["day"].tolist() == [33, 57, 81, 105, 129, 153, 177]

    def test_shapes_and_target(self):
        series = make_series(t=900)
        grades = np.ones((series.n, series.t), dtype=int)
        grades[:, 601] = 3
        sample = enumerate_samples(series, grades, range(600, 601), horizon=1,
                                   windows=(24, 7, 3))
        assert sample.history["hour"].shape == (1, 3, 24, 2)
        assert sample.history["day"].shape == (1, 3, 7, 2)
        assert sample.history["week"].shape == (1, 3, 3, 2)
        assert sample.target.tolist() == [[3, 3, 3]]

    def test_no_target_leakage(self):
        windows = (24, 7, 3)
        for horizon in (1, 3, 24):
            tau = first_anchor(horizon, windows) + 10
            idx = resolution_indices(tau, horizon, windows)
            for channel in idx.values():
                assert np.all(np.diff(channel) > 0)
                assert channel.max() < tau + horizon

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 48), st.integers(1, 10), st.integers(1, 5),
           st.integers(1, 400))
    def test_first_anchor_is_the_earliest_with_full_history(
            self, delta_h, delta_d, delta_w, horizon):
        windows = (delta_h, delta_d, delta_w)
        tau = first_anchor(horizon, windows)
        at = resolution_indices(tau, horizon, windows).values()
        assert all(idx.min() >= 0 for idx in at)
        earlier = resolution_indices(tau - 1, horizon, windows).values()
        assert any(idx.min() < 0 for idx in earlier)

    def test_enumerate_counts(self):
        series = make_series(t=840)
        grades = np.ones((series.n, series.t), dtype=int)
        train, _, test = split_anchors(840, 1, (24, 7, 3), (200, 100, 36))
        samples = enumerate_samples(series, grades,
                                    range(train.start, test.stop), horizon=1,
                                    windows=(24, 7, 3))
        assert len(samples) == 840 - 504
        assert samples.anchors[0] == 503
        taus = samples.anchors.tolist()
        assert taus == sorted(taus)


class TestSplit:
    def test_documented_partition(self):
        train, val, test = split_anchors(1008, 1, (24, 7, 3), (240, 80, 80))
        assert train == range(503, 743)
        assert val == range(743, 823)
        assert test == range(823, 903)

    def test_insufficient_samples(self):
        # 11 anchors from hour 503 need targets up to hour 514
        split_anchors(515, 1, (24, 7, 3), (8, 2, 1))
        with pytest.raises(DataError, match="cannot hold"):
            split_anchors(514, 1, (24, 7, 3), (8, 2, 1))

    def test_disjoint_and_ordered(self):
        windows = (24, 7, 3)
        train, val, test = split_anchors(2000, 3, windows, (30, 10, 5))
        start = first_anchor(3, windows)
        assert [*train, *val, *test] == list(range(start, start + 45))

    # what the stages trust: enumerate_samples the hours that each anchor
    # reads, minmax_normalize and the graph builders the fit window
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 48), st.integers(1, 10), st.integers(1, 5),
           st.integers(1, 400), st.integers(1, 300), st.integers(0, 100),
           st.integers(0, 100), st.integers(-4, 4))
    def test_every_hour_it_admits_lies_in_the_series(
            self, delta_h, delta_d, delta_w, horizon, n_train, n_val, n_test,
            slack):
        windows = (delta_h, delta_d, delta_w)
        sizes = (n_train, n_val, n_test)
        # within a few hours of the shortest series that holds the splits
        t = max(1, first_anchor(horizon, windows) + sum(sizes) + horizon
                + slack)
        try:
            train, val, test = split_anchors(t, horizon, windows, sizes)
        except DataError:
            return
        for anchors in (train, val, test):
            if anchors:
                at = resolution_indices(np.asarray(anchors), horizon, windows)
                assert all(idx.min() >= 0 for idx in at.values())
                assert anchors[-1] + horizon < t
        assert 0 < train.stop + horizon <= t


class TestMeasurementCsv:
    def test_round_trip(self, tmp_path):
        series = make_series(n=2, t=30)
        ids = ["A", "B"]
        path = tmp_path / "measurements.csv"
        write_measurements_csv(path, series, ids)
        loaded = read_measurements_csv(path, ids)
        assert loaded.start == series.start
        np.testing.assert_array_equal(loaded.values, series.values)

    def test_missing_hour_rejected_with_location(self, tmp_path):
        series = make_series(n=1, t=5)
        path = tmp_path / "m.csv"
        write_measurements_csv(path, series, ["A"])
        lines = path.read_text().splitlines()
        del lines[3]  # drop hour 2 of road A
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="missing hour"):
            read_measurements_csv(path, ["A"])

    def test_malformed_row_carries_line_number(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("road_id,timestamp,speed,flow\n"
                        "A,2020-01-06T00:00:00,10.0,1.0\n"
                        "A,2020-01-06T01:30:00,10.0,1.0\n")
        with pytest.raises(DataError, match=":3"):
            read_measurements_csv(path, ["A"])

    def test_road_set_must_match_network(self, tmp_path):
        series = make_series(n=2, t=4)
        path = tmp_path / "m.csv"
        write_measurements_csv(path, series, ["A", "B"])
        with pytest.raises(DataError, match="disagree"):
            read_measurements_csv(path, road_ids=["A", "C"])


class TestGradeCsv:
    def test_round_trip(self, tmp_path):
        grades = np.array([[1, 2, 3], [3, 2, 1]])
        path = tmp_path / "grades.csv"
        write_grades_csv(path, grades, START, ["A", "B"])
        loaded, start = read_grades_csv(path, ["A", "B"])
        assert start == START
        np.testing.assert_array_equal(loaded, grades)

    def test_unknown_road_rejected(self, tmp_path):
        path = tmp_path / "grades.csv"
        write_grades_csv(path, np.array([[1]]), START, ["A"])
        with pytest.raises(DataError, match="unknown road"):
            read_grades_csv(path, ["B"])

    def test_gap_in_hours_rejected(self, tmp_path):
        path = tmp_path / "grades.csv"
        write_grades_csv(path, np.array([[1, 2, 3]]), START, ["A"])
        lines = path.read_text().splitlines()
        del lines[2]  # drop hour 1 of the only road
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="grades.csv.*hour after"):
            read_grades_csv(path, ["A"])

    def test_duplicate_row_rejected(self, tmp_path):
        path = tmp_path / "grades.csv"
        write_grades_csv(path, np.array([[1, 2, 3]]), START, ["A"])
        lines = path.read_text().splitlines()
        lines.append(lines[1].rsplit(",", 1)[0] + ",3")  # hour 0, grade 3
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="grades.csv:5: duplicate row"):
            read_grades_csv(path, ["A"])


class TestCheckArtifact:
    """Values compare as JSON values: numbers by value, a bool equal to no
    number, strings and lists exactly."""

    @pytest.mark.parametrize("found, wanted", [
        (1, 1.0), (1.0, 1), ([0, 744], [0.0, 744.0]), (True, True),
        ({"w": [2, 3], "b": [2]}, {"b": [2.0], "w": [2, 3]}),
        (["r_h", "w_h"], ("r_h", "w_h")),
    ], ids=["int-float", "float-int", "list-of-numbers", "bool", "dict",
            "tuple"])
    def test_equal_json_values_pass(self, found, wanted):
        check_artifact("a.json", {"k": found}, {"k": wanted}, "graphs")

    @pytest.mark.parametrize("found, wanted", [
        (True, 1), (1, True), (False, 0), ([True], [1]), ("1", 1),
        ([0, 744], [744, 0]), (["r_h", "w_h"], ["w_h", "r_h"]), (None, 0),
    ], ids=["true-1", "1-true", "false-0", "list-true-1", "string-number",
            "reordered-numbers", "reordered-labels", "null-0"])
    def test_different_json_values_fail(self, found, wanted):
        with pytest.raises(DataError, match="rerun train"):
            check_artifact("a.json", {"k": found}, {"k": wanted}, "train")

    def test_message_names_path_first_differing_key_and_stage(self):
        with pytest.raises(DataError) as caught:
            check_artifact("out/m.json", {"a": 1, "b": 2, "c": 3},
                           {"a": 1.0, "b": 0.5, "c": 4}, "graphs")
        assert str(caught.value) == \
            "out/m.json: b is 2, expected 0.5; rerun graphs"

    def test_missing_key_and_long_values(self):
        with pytest.raises(DataError, match=r"^p: k is null, expected 1; "
                                            "rerun label$"):
            check_artifact("p", {}, {"k": 1}, "label")
        ids = [f"R{i:03d}" for i in range(20)]
        with pytest.raises(DataError, match=r"^p: header differs; "
                                            "rerun graphs$"):
            check_artifact("p", {"header": ids[::-1]}, {"header": ids},
                           "graphs")


def _rows_then_disk_full():
    yield ["a", 1]
    yield ["b", 2]
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestAtomicWrites:
    """A failed write leaves the previous artifact's bytes and no other
    file, and names the artifact, not the temporary file."""

    def test_table_failing_halfway_keeps_previous_artifact(self, tmp_path):
        path = tmp_path / "artifact.csv"
        write_table(path, ["k", "v"], [["old", 0]])
        before = path.read_bytes()
        with pytest.raises(DataError) as caught:
            write_table(path, ["k", "v"], _rows_then_disk_full())
        assert str(caught.value) == \
            f"cannot write {path}: {os.strerror(errno.ENOSPC)}"
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["artifact.csv"]

    def test_json_failing_at_the_rename_keeps_previous_artifact(
            self, tmp_path, monkeypatch):
        path = tmp_path / "artifact.json"
        write_json(path, {"old": 1})
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(DataError) as caught:
            write_json(path, {"new": 2})
        assert str(caught.value) == \
            f"cannot write {path}: {os.strerror(errno.EIO)}"
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["artifact.json"]

    def test_write_replaces_the_artifact(self, tmp_path):
        path = tmp_path / "artifact.json"
        write_json(path, {"old": 1})
        write_json(path, {"new": 2})
        assert path.read_text() == '{\n  "new": 2\n}'
        assert os.listdir(tmp_path) == ["artifact.json"]


def _bits(array):
    return np.ascontiguousarray(array, dtype="<f8").view("<u8")


class TestFloatPayload:
    def test_round_trip_is_bitwise(self):
        rng = np.random.default_rng(5)
        special = np.array([-0.0, 0.0, 5e-324, 2.2e-308, 1.5e308, -1.5e308,
                            np.inf, -np.inf])
        # a NaN with payload bits, which a float round trip could drop
        nan = np.array([0x7FF8_0000_DEAD_BEEF, 0xFFF0_0000_0000_0001],
                       dtype="<u8").view("<f8")
        values = np.concatenate([rng.normal(size=40) * 10.0 ** rng.integers(
            -300, 300, size=40), special, nan]).reshape(2, 5, 5)
        decoded = decode_floats(encode_floats(values), values.shape)
        assert decoded.shape == values.shape and decoded.dtype == np.float64
        np.testing.assert_array_equal(_bits(decoded), _bits(values))

    def test_c_order_of_any_layout(self):
        values = np.arange(12.0).reshape(3, 4)
        text = encode_floats(values.T)  # a Fortran-ordered view
        np.testing.assert_array_equal(decode_floats(text, (4, 3)), values.T)

    def test_big_endian_input_encodes_as_its_little_endian_copy(self):
        values = np.random.default_rng(6).normal(size=(4, 3))
        assert encode_floats(values.astype(">f8")) == \
            encode_floats(values.astype("<f8"))

    def test_text_is_base64_of_little_endian_float64(self):
        assert encode_floats([1.0]) == "AAAAAAAA8D8="
        assert encode_floats([]) == ""
        assert decode_floats("", (0, 3)).shape == (0, 3)

    def test_decoded_array_is_writable(self):
        decoded = decode_floats(encode_floats([1.0, 2.0]), (2,))
        decoded[0] = 3.0
        assert decoded.tolist() == [3.0, 2.0]

    @pytest.mark.parametrize("text", ["AAAAAAAA8D8", "AAAAAAAA 8D8=",
                                      "AAAAAAAA!8D8=", "AAAAAAAA8D8=é",
                                      "AAAAAAAA\n8D8="],
                             ids=["unpadded", "space", "symbol",
                                  "non-ascii", "newline"])
    def test_non_base64_text_raises_value_error(self, text):
        with pytest.raises(ValueError):
            decode_floats(text, (1,))

    @pytest.mark.parametrize("values, shape", [
        ([1.0, 2.0], (3,)), ([1.0, 2.0], (1,)), ([1.0] * 6, (2, 2))],
        ids=["short", "long", "matrix"])
    def test_payload_not_filling_the_shape_raises_value_error(
            self, values, shape):
        with pytest.raises(ValueError):
            decode_floats(encode_floats(values), shape)

    def test_byte_count_not_a_multiple_of_eight_raises_value_error(self):
        raw = base64.b64decode(encode_floats([1.0, 2.0]))
        cut = base64.b64encode(raw[:-3]).decode("ascii")
        with pytest.raises(ValueError):
            decode_floats(cut, (2,))

    @pytest.mark.parametrize("payload", [None, [1.0], 1.0, {"a": 1}])
    def test_a_non_string_payload_raises_type_error(self, payload):
        with pytest.raises(TypeError):
            decode_floats(payload, (1,))
