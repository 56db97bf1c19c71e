"""Ordinal congestion grades via a self-organizing map.

Each (road, hour) observation, as a normalized (speed, flow) vector, is
clustered by a small SOM strip; nodes are then relabeled into ordinal grades
by descending mean speed, so grade 1 is the most free-flowing state and the
highest grade the most congested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SomNetwork:
    """Trained map: node weight vectors on an n_row x n_col grid."""

    weights: np.ndarray          # (nodes, features)
    grid: tuple[int, int]

    def __post_init__(self):
        rows, cols = self.grid
        if rows * cols != self.weights.shape[0]:
            raise ValueError("grid size must equal the node count")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("node weights must be finite")

    @property
    def n_nodes(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class GradeSeries:
    """Per-road, per-hour ordinal grades in [1, class_count]."""

    values: np.ndarray
    class_count: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.int64)
        object.__setattr__(self, "values", values)
        if values.ndim != 2:
            raise ValueError("grades must be a (roads, hours) array")
        if values.min() < 1 or values.max() > self.class_count:
            raise ValueError(
                f"grades must lie in [1, {self.class_count}]")


def _check_samples(samples: np.ndarray) -> np.ndarray:
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] == 0:
        raise ValueError("samples must be a non-empty (count, features) array")
    return samples


def som_train(samples: np.ndarray, class_count: int,
              grid: tuple[int, int] | None = None, seed: int = 0,
              learn_rate0: float = 0.1, radius0: float = 3.0,
              max_iter: int = 200) -> SomNetwork:
    """Competitive training with exponentially decaying schedules.

    One iteration is a full pass over the samples in order.  The winning node
    and every grid neighbor within the current (decaying) reach move toward
    the sample by learn_rate * radius; late iterations update the winner
    alone.
    """
    if learn_rate0 <= 0 or max_iter <= 0:
        raise ValueError("learning rate and iteration count must be positive")
    samples = _check_samples(samples)
    if np.any(samples < 0) or np.any(samples > 1):
        raise ValueError("samples must be normalized to [0, 1]")
    if grid is None:
        grid = (1, class_count)
    rows, cols = grid
    if rows * cols != class_count:
        raise ValueError(f"grid {grid} cannot hold {class_count} classes")
    if radius0 <= 1.0:
        raise ValueError("initial radius must exceed 1 for the decay schedule")
    # The decayed radius approaches 1 by construction, so membership is
    # grid_dist <= radius - 1: initially every node closer than radius0,
    # shrinking to winner-only updates late in training.  Keeping distance-1
    # neighbors in forever would make adjacent nodes identical.
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.0, 1.0, size=(class_count, samples.shape[1]))
    coords = np.array([divmod(j, cols) for j in range(class_count)])
    # chebyshev distance between every pair of grid positions
    grid_dist = np.abs(coords[:, None, :] - coords[None, :, :]).max(axis=2)
    t1 = max_iter / math.log(radius0)
    t2 = float(max_iter)
    # The per-point loop runs on Python floats: numpy calls on a handful of
    # nodes cost far more than their arithmetic.  It makes the float
    # operations of the array form in the same order (the squared distance
    # summed feature by feature, then w + gain * (x - w)), so the weights
    # equal those of the numpy oracle in tests/test_grading.py bit for bit.
    nodes = weights.tolist()
    points = samples.tolist()
    for iteration in range(1, max_iter):
        radius = radius0 * math.exp(-(iteration - 1) / t1)
        rate = learn_rate0 * math.exp(-(iteration - 1) / t2)
        gain = rate * radius
        hoods = [np.flatnonzero(row).tolist()
                 for row in grid_dist <= radius - 1.0]
        for x in points:
            winner, best = 0, math.inf
            for j, w in enumerate(nodes):
                dist = 0.0
                for wk, xk in zip(w, x):
                    delta = wk - xk
                    dist += delta * delta
                if dist < best:  # strict: ties go to the lowest index
                    winner, best = j, dist
            for j in hoods[winner]:
                w = nodes[j]
                for k, xk in enumerate(x):
                    w[k] += gain * (xk - w[k])
    return SomNetwork(weights=np.array(nodes), grid=grid)


def som_assign(som: SomNetwork, samples: np.ndarray) -> np.ndarray:
    """Nearest node per sample (0-based indices, ties to the lowest index)."""
    samples = _check_samples(samples)
    if samples.shape[1] != som.weights.shape[1]:
        raise ValueError(
            f"sample dimension {samples.shape[1]} does not match the map "
            f"dimension {som.weights.shape[1]}")
    diff = samples[:, None, :] - som.weights[None, :, :]
    return np.argmin((diff ** 2).sum(axis=2), axis=1)


def ordinalize(som: SomNetwork, samples: np.ndarray,
               speed_index: int = 0) -> np.ndarray:
    """Grade per node (1..n_nodes), ordered by descending mean sample speed.

    Nodes that win no samples are ranked by their weight's speed component.
    Returns a bijective permutation `perm` with perm[node_index] = grade.
    """
    samples = _check_samples(samples)
    assigned = som_assign(som, samples)
    keys = np.empty(som.n_nodes)
    for node in range(som.n_nodes):
        mask = assigned == node
        if mask.any():
            keys[node] = samples[mask, speed_index].mean()
        else:
            keys[node] = som.weights[node, speed_index]
    order = np.argsort(-keys, kind="stable")
    perm = np.empty(som.n_nodes, dtype=np.int64)
    perm[order] = np.arange(1, som.n_nodes + 1)
    return perm


def label_series(values: np.ndarray, class_count: int, seed: int = 0,
                 fit_hours: tuple[int, int] | None = None,
                 grid: tuple[int, int] | None = None,
                 learn_rate0: float = 0.1, radius0: float = 3.0,
                 max_iter: int = 200) -> tuple[GradeSeries, SomNetwork,
                                               np.ndarray]:
    """Grade every (road, hour) of a normalized series.

    By default the map is trained on all observations; pass `fit_hours` to
    restrict training to a sub-range while still assigning every hour.
    """
    values = np.asarray(values, dtype=np.float64)
    n, t, channels = values.shape
    lo, hi = (0, t) if fit_hours is None else (int(fit_hours[0]),
                                               int(fit_hours[1]))
    if not (0 <= lo < hi <= t):
        raise ValueError(f"fit hours [{lo}, {hi}) outside series")
    fit = values[:, lo:hi, :].reshape(-1, channels)
    som = som_train(fit, class_count, grid=grid, seed=seed,
                    learn_rate0=learn_rate0, radius0=radius0,
                    max_iter=max_iter)
    perm = ordinalize(som, fit)
    nodes = som_assign(som, values.reshape(-1, channels))
    grades = perm[nodes].reshape(n, t)
    return GradeSeries(grades, class_count), som, perm
