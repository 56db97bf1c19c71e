"""Evaluation indices for ordinal grade predictions."""

from __future__ import annotations

import numpy as np


def _check_pair(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise ValueError("empty prediction arrays")
    return pred, truth


def accuracy(pred, truth) -> float:
    """Fraction of exactly matching grades."""
    pred, truth = _check_pair(pred, truth)
    return float((pred == truth).mean())


def quadratic_weight_matrix(class_count: int) -> np.ndarray:
    """Agreement weights 1 - ((i - j) / (Class - 1))^2."""
    idx = np.arange(class_count)
    return 1.0 - ((idx[:, None] - idx[None, :]) / (class_count - 1)) ** 2


def quadratic_weighted_kappa(pred, truth, class_count: int) -> float:
    """Chance-corrected ordinal agreement in [-1, 1]; grades are 1-based."""
    pred, truth = (arr.ravel() for arr in _check_pair(pred, truth))
    for name, arr in (("pred", pred), ("truth", truth)):
        if arr.min() < 1 or arr.max() > class_count:
            raise ValueError(f"{name} grades must lie in [1, {class_count}]")
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
    pred, truth = _check_pair(pred, truth)
    if pred.ndim != 2:
        raise ValueError("expected (roads, time) grade matrices")
    return np.abs(pred.astype(np.float64) - truth).mean(axis=0)
