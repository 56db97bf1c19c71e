"""Attention aggregation, heatmap normalization and importance decoupling."""

import json

import numpy as np
import pytest

from oracles import decouple as decouple_by_label
from roadgrade.data import write_json
from roadgrade.errors import DataError
from roadgrade.explain import (aggregate_attention, build_report,
                               combination_importance, decouple,
                               normalize_heatmap, read_attention_record,
                               write_attention_record, write_report_csv)
from roadgrade.model import COMBINATION_LABELS, forward

SHAPE = (2, 12, 12, 3)


def uniform_attention(heads=2, tp=12, d=3):
    return np.full((heads, tp, tp, d), 1.0 / tp)


class TestAggregate:
    def test_uniform_tensor(self):
        heads, tp, d = 2, 12, 3
        agg = aggregate_attention(uniform_attention(heads, tp, d))
        np.testing.assert_allclose(agg, heads * d / tp, atol=1e-12)

    def test_single_head_single_feature_is_identity(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(size=(1, 4, 4, 1))
        np.testing.assert_array_equal(aggregate_attention(a), a[0, :, :, 0])

    def test_linearity(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(size=(2, 3, 3, 4))
        b = rng.uniform(size=(2, 3, 3, 4))
        np.testing.assert_allclose(
            aggregate_attention(a + b),
            aggregate_attention(a) + aggregate_attention(b), atol=1e-12)


class TestNormalizeHeatmap:
    def test_constant_matrix_becomes_uniform(self):
        heat = normalize_heatmap(np.full((12, 12), 3.7))
        np.testing.assert_allclose(heat, 1.0 / 144.0, atol=1e-15)

    def test_total_mass_one(self):
        rng = np.random.default_rng(2)
        heat = normalize_heatmap(rng.normal(size=(5, 5)))
        assert heat.sum() == pytest.approx(1.0, abs=1e-9)

    def test_order_preserved(self):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(4, 4))
        heat = normalize_heatmap(raw)
        assert np.array_equal(np.argsort(raw.ravel()),
                              np.argsort(heat.ravel()))


class TestCombinationImportance:
    def test_uniform_heatmap(self):
        importance = combination_importance(np.full((12, 12), 1.0 / 144))
        np.testing.assert_allclose(importance, 1.0 / 12, atol=1e-12)

    def test_dominant_column_wins(self):
        heat = np.full((6, 6), 0.01)
        heat[:, 2] = 0.5
        importance = combination_importance(heat)
        assert importance.argmax() == 2

    def test_sums_to_one(self):
        rng = np.random.default_rng(4)
        heat = normalize_heatmap(rng.normal(size=(12, 12)))
        assert combination_importance(heat).sum() == pytest.approx(
            1.0, abs=1e-9)


def matches_oracle(importance, resolution, graph):
    """Both views equal, bit for bit, the label-grouping reference."""
    return (resolution == decouple_by_label(importance, COMBINATION_LABELS,
                                            "resolution")
            and graph == decouple_by_label(importance, COMBINATION_LABELS,
                                           "graph"))


class TestDecouple:
    def test_uniform_importance_gives_uniform_groups(self):
        res, graph = decouple(np.full(12, 1.0 / 12))
        np.testing.assert_allclose(list(res.values()), 1.0 / 3, atol=1e-12)
        np.testing.assert_allclose(list(graph.values()), 1.0 / 4, atol=1e-12)
        assert list(res) == ["hour", "day", "week"]
        assert list(graph) == ["topological", "weighted", "pattern",
                               "attribute"]

    def test_hourly_mass_ranks_hourly_first(self):
        importance = np.zeros(12)
        importance[:4] = 0.25
        res, _ = decouple(importance)
        assert max(res, key=res.get) == "hour"

    def test_group_sums_match_index_grouping_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            importance = rng.dirichlet(np.ones(12))
            assert matches_oracle(importance, *decouple(importance))

    def test_simplex_property(self):
        rng = np.random.default_rng(6)
        importance = rng.dirichlet(np.ones(12))
        for view in decouple(importance):
            values = np.array(list(view.values()))
            assert np.all(values >= 0)
            assert values.sum() == pytest.approx(1.0, abs=1e-9)


class TestReports:
    def test_report_from_live_forward(self, toy):
        _, attention = forward(toy.state, toy.samples(), toy.graphs)
        report = build_report(attention[0], 1)
        assert np.sum(report["heatmap"]) == pytest.approx(1.0, abs=1e-9)
        for view in ("combination", "resolution", "graph"):
            assert sum(report[f"{view}_importance"].values()) == \
                pytest.approx(1.0, abs=1e-9)
        assert list(report["resolution_importance"]) == ["hour", "day",
                                                         "week"]
        importance = np.array(list(report["combination_importance"].values()))
        assert matches_oracle(importance, report["resolution_importance"],
                              report["graph_importance"])

    def test_record_validation(self, tmp_path):
        path = tmp_path / "attention.json"
        write_attention_record(path, np.full(SHAPE, 0.2), 1)  # rows sum to 2.4
        with pytest.raises(DataError, match="not normalized"):
            read_attention_record(path, 1, SHAPE)
        write_attention_record(path, uniform_attention(), 1)
        with pytest.raises(DataError, match="prediction_length"):
            read_attention_record(path, 2, SHAPE)
        with pytest.raises(DataError, match="shape"):
            read_attention_record(path, 1, (1, 12, 12, 3))

    def test_record_file_round_trip(self, tmp_path):
        attention = uniform_attention()
        path = tmp_path / "attention.json"
        write_attention_record(path, attention, 3)
        assert json.loads(path.read_text())["labels"] == \
            list(COMBINATION_LABELS)
        loaded = read_attention_record(path, 3, SHAPE)
        np.testing.assert_array_equal(loaded, attention)

    def test_corrupt_record_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"format\": \"something-else\"}")
        with pytest.raises(DataError):
            read_attention_record(path, 1, SHAPE)

    def test_report_files_are_deterministic(self, tmp_path):
        rng = np.random.default_rng(7)
        attention = rng.dirichlet(np.ones(12), size=(2, 12, 3))
        attention = np.transpose(attention, (0, 1, 3, 2))
        report = build_report(attention, 1)
        first_json = tmp_path / "a.json"
        second_json = tmp_path / "b.json"
        write_json(first_json, report)
        write_json(second_json, build_report(attention, 1))
        assert first_json.read_bytes() == second_json.read_bytes()
        first_csv = tmp_path / "a.csv"
        write_report_csv(first_csv, report)
        text = first_csv.read_text().splitlines()
        assert text[0] == "row,col,value"
        assert len(text) == 1 + 144
