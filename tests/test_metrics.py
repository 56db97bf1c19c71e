"""Accuracy, quadratic weighted kappa and the per-hour grade MAE."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadgrade.metrics import (accuracy, grade_mae_series,
                               quadratic_weight_matrix,
                               quadratic_weighted_kappa)

grades5 = st.lists(st.integers(1, 5), min_size=1, max_size=40)


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_all_wrong(self):
        assert accuracy([1, 1, 1], [2, 3, 4]) == 0.0

    def test_three_of_four(self):
        assert accuracy([1, 2, 3, 4], [1, 2, 3, 5]) == 0.75


class TestKappa:
    def test_perfect_prediction(self):
        pred = np.array([1, 2, 3, 4, 5, 1, 3])
        assert quadratic_weighted_kappa(pred, pred, 5) == pytest.approx(
            1.0, abs=1e-9)

    def test_uniform_two_class_case(self):
        # confusion proportions 0.25 everywhere: observed = chance agreement
        pred = np.array([1, 2, 1, 2])
        truth = np.array([1, 1, 2, 2])
        assert quadratic_weighted_kappa(pred, truth, 2) == pytest.approx(
            0.0, abs=1e-9)

    def test_weight_spot_values_for_five_classes(self):
        w = quadratic_weight_matrix(5)
        assert w[0, 4] == 0.0
        assert np.all(np.diag(w) == 1.0)
        assert w[1, 3] == 0.75

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(0)
        pred = rng.integers(1, 6, size=60)
        truth = rng.integers(1, 6, size=60)
        assert quadratic_weighted_kappa(pred, truth, 5) == pytest.approx(
            quadratic_weighted_kappa(truth, pred, 5), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(grades5, st.randoms(use_true_random=False))
    def test_invariant_under_sample_reordering(self, values, rnd):
        truth = np.array(values)
        pred = np.clip(truth + np.resize([0, 1, -1], truth.size), 1, 5)
        order = list(range(truth.size))
        rnd.shuffle(order)
        base = quadratic_weighted_kappa(pred, truth, 5)
        shuffled = quadratic_weighted_kappa(pred[order], truth[order], 5)
        assert shuffled == pytest.approx(base, abs=1e-12)

    def test_degenerate_marginals_policy(self):
        # chance agreement hits 1 only when both sides are constant at the
        # same grade, which forces observed agreement to 1 as well
        assert quadratic_weighted_kappa([3, 3], [3, 3], 5) == 1.0
        # constant but different grades: 1 - P_e stays positive, kappa is 0
        assert quadratic_weighted_kappa([3, 3], [4, 4], 4) == pytest.approx(
            0.0, abs=1e-12)

    def test_matches_confusion_recomputation(self):
        rng = np.random.default_rng(1)
        pred = rng.integers(1, 6, size=100)
        truth = rng.integers(1, 6, size=100)
        counts = np.zeros((5, 5), dtype=np.int64)
        np.add.at(counts, (truth - 1, pred - 1), 1)
        assert counts.sum() == 100
        acc_from_matrix = np.trace(counts / counts.sum())
        assert accuracy(pred, truth) == pytest.approx(acc_from_matrix,
                                                      abs=1e-12)
        # disagreement form: 1 - sum(d * observed) / sum(d * expected)
        idx = np.arange(5)
        d = (idx[:, None] - idx[None, :]) ** 2
        expected = np.outer(counts.sum(axis=1), counts.sum(axis=0)) / 100
        kappa = 1.0 - (d * counts).sum() / (d * expected).sum()
        assert quadratic_weighted_kappa(pred, truth, 5) == pytest.approx(
            kappa, abs=1e-12)


class TestGradeMae:
    def test_perfect(self):
        grades = np.array([[1, 2], [3, 4]])
        np.testing.assert_array_equal(grade_mae_series(grades, grades),
                                      [0.0, 0.0])

    def test_uniform_off_by_one(self):
        truth = np.array([[1, 2], [3, 4]])
        np.testing.assert_array_equal(grade_mae_series(truth + 1, truth),
                                      [1.0, 1.0])

    def test_hand_two_by_three(self):
        pred = np.array([[1, 2, 5], [3, 3, 3]])
        truth = np.array([[2, 2, 1], [3, 1, 5]])
        np.testing.assert_allclose(grade_mae_series(pred, truth),
                                   [0.5, 1.0, 3.0])
