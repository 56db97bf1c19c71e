"""Normalization, three-resolution slicing, splits and measurement files."""

from datetime import datetime

import numpy as np
import pytest

from roadgrade.data import (TrafficSeries, enumerate_samples, first_anchor, minmax_normalize,
                            read_grades_csv, read_measurements_csv,
                            resolution_indices, slice_sample, split,
                            write_grades_csv, write_measurements_csv)
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

    def test_timestamps_are_hourly(self):
        series = make_series(t=3)
        stamps = series.timestamps()
        assert stamps[0] == START
        assert (stamps[2] - stamps[1]).total_seconds() == 3600


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

    def test_weekly_insufficient_history(self):
        series = make_series(t=700)
        grades = np.ones((series.n, series.t), dtype=int)
        # tau=400, horizon=1: weekly channel would need hour -103
        with pytest.raises(ValueError, match="week"):
            slice_sample(series, grades, tau=400, horizon=1)

    def test_shapes_and_target(self):
        series = make_series(t=900)
        grades = np.ones((series.n, series.t), dtype=int)
        grades[:, 601] = 3
        sample = slice_sample(series, grades, tau=600, horizon=1)
        assert sample.hourly.shape == (3, 24, 2)
        assert sample.daily.shape == (3, 7, 2)
        assert sample.weekly.shape == (3, 3, 2)
        assert sample.target.tolist() == [3, 3, 3]

    def test_no_target_leakage(self):
        windows = (24, 7, 3)
        for horizon in (1, 3, 24):
            tau = first_anchor(horizon, windows) + 10
            idx = resolution_indices(tau, horizon, windows)
            for channel in idx.values():
                assert np.all(np.diff(channel) > 0)
                assert channel.max() < tau + horizon

    def test_horizon_beyond_series_end(self):
        series = make_series(t=600)
        grades = np.ones((series.n, series.t), dtype=int)
        with pytest.raises(ValueError, match="beyond"):
            slice_sample(series, grades, tau=590, horizon=24)

    def test_enumerate_counts(self):
        series = make_series(t=840)
        grades = np.ones((series.n, series.t), dtype=int)
        samples = enumerate_samples(series, grades, horizon=1)
        assert len(samples) == 840 - 504
        assert samples[0].tau == 503
        taus = [s.tau for s in samples]
        assert taus == sorted(taus)


class TestSplit:
    def test_documented_partition(self):
        samples = list(range(400))
        train, val, test = split(samples, (240, 80, 80))
        assert train == list(range(0, 240))
        assert val == list(range(240, 320))
        assert test == list(range(320, 400))

    def test_insufficient_samples(self):
        with pytest.raises(ValueError):
            split(list(range(10)), (8, 2, 1))

    def test_disjoint_and_ordered(self):
        rng = np.random.default_rng(0)
        samples = rng.permutation(50).tolist()
        train, val, test = split(samples, (30, 10, 5))
        assert train + val + test == samples[:45]


class TestMeasurementCsv:
    def test_round_trip(self, tmp_path):
        series = make_series(n=2, t=30)
        ids = ["A", "B"]
        path = tmp_path / "measurements.csv"
        write_measurements_csv(path, series, ids)
        loaded, loaded_ids = read_measurements_csv(path)
        assert loaded_ids == ids
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
            read_measurements_csv(path)

    def test_malformed_row_carries_line_number(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("road_id,timestamp,speed,flow\n"
                        "A,2020-01-06T00:00:00,10.0,1.0\n"
                        "A,2020-01-06T01:30:00,10.0,1.0\n")
        with pytest.raises(DataError, match=":3"):
            read_measurements_csv(path)

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
