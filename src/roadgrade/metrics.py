"""Evaluation indices for ordinal grade predictions."""

from __future__ import annotations

import numpy as np


def accuracy(pred, truth) -> float:
    """Fraction of exactly matching grades."""
    return float((np.asarray(pred) == np.asarray(truth)).mean())


def quadratic_weight_matrix(class_count: int) -> np.ndarray:
    """Agreement weights 1 - ((i - j) / (Class - 1))^2."""
    idx = np.arange(class_count)
    return 1.0 - ((idx[:, None] - idx[None, :]) / (class_count - 1)) ** 2


def quadratic_weighted_kappa(pred, truth, class_count: int) -> float:
    """Chance-corrected ordinal agreement in [-1, 1]; grades are 1-based."""
    pred, truth = (np.ravel(arr) for arr in (pred, truth))
    counts = np.zeros((class_count, class_count), dtype=np.int64)
    np.add.at(counts, (truth - 1, pred - 1), 1)   # [true grade, predicted]
    p = counts / counts.sum()
    w = quadratic_weight_matrix(class_count)
    p_observed = float((w * p).sum())
    marginal = np.outer(p.sum(axis=1), p.sum(axis=0))
    p_expected = float((w * marginal).sum())
    if 1.0 - p_expected < 1e-12:  # both sides constant at one grade
        return 1.0
    return (p_observed - p_expected) / (1.0 - p_expected)


def grade_mae_series(pred, truth) -> np.ndarray:
    """Mean absolute grade error across roads, one value per time point.

    Inputs have shape (roads, time points).
    """
    return np.abs(np.asarray(pred, dtype=np.float64) - truth).mean(axis=0)
