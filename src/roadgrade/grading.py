"""Ordinal congestion grades via a self-organizing map.

Each (road, hour) observation, as a normalized (speed, flow) vector, is
clustered by a small SOM strip; nodes are then relabeled into ordinal grades
by descending mean speed, so grade 1 is the most free-flowing state and the
highest grade the most congested.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError


def som_train(samples: np.ndarray, class_count: int, seed: int,
              learn_rate0: float, radius0: float, max_iter: int) -> np.ndarray:
    """Competitive training with exponentially decaying schedules.

    Returns the (class_count, 2) node weights of a 1-D strip, where nodes i
    and j lie |i - j| apart, for (speed, flow) samples.  One iteration is a
    full pass over the samples in order.  The winning node and every strip
    neighbor within the current (decaying) reach move toward the sample by
    learn_rate * radius; late iterations update the winner alone.  The
    caller passes finite (count, 2) samples in [0, 1] and keeps radius0 > 1
    and the first gain learn_rate0 * radius0 <= 1.
    """
    # The decayed radius approaches 1 by construction, so membership is
    # |i - j| <= radius - 1: initially every node closer than radius0,
    # shrinking to winner-only updates late in training.  Keeping distance-1
    # neighbors in forever would make adjacent nodes identical.
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.0, 1.0, size=(class_count, 2))
    t1 = max_iter / math.log(radius0)
    t2 = float(max_iter)
    # The per-point loop runs on Python float pairs: numpy calls on a
    # handful of nodes cost far more than their arithmetic.  It makes the
    # float operations of the numpy oracle in tests/test_grading.py in the
    # same order, the distance d0 * d0 + d1 * d1 and the update
    # w + gain * (x - w) per component, so the weights equal the oracle's
    # bit for bit.  Each node is paired with its neighborhood's node lists.
    nodes = weights.tolist()
    points = samples.tolist()
    for iteration in range(1, max_iter):
        radius = radius0 * math.exp(-(iteration - 1) / t1)
        rate = learn_rate0 * math.exp(-(iteration - 1) / t2)
        gain = rate * radius
        hoods = [(w, [nodes[j] for j in range(class_count)
                      if abs(i - j) <= radius - 1.0])
                 for i, w in enumerate(nodes)]
        for x0, x1 in points:
            best, moved = math.inf, hoods[0][1]
            for w, hood in hoods:
                d0 = w[0] - x0
                d1 = w[1] - x1
                dist = d0 * d0 + d1 * d1
                if dist < best:  # strict: ties go to the lowest index
                    best, moved = dist, hood
            for w in moved:
                w[0] += gain * (x0 - w[0])
                w[1] += gain * (x1 - w[1])
    weights = np.array(nodes)
    if not np.all(np.isfinite(weights)):
        raise NumericError("SOM weights diverged to non-finite values; "
                           "lower som_learn_rate or som_radius")
    return weights


def som_assign(weights: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Nearest node per sample (0-based indices, ties to the lowest index);
    squared differences are summed feature by feature, as `som_train` does."""
    dist = np.zeros((len(samples), len(weights)))
    for k in range(samples.shape[1]):
        dist += (samples[:, None, k] - weights[None, :, k]) ** 2
    return np.argmin(dist, axis=1)


def ordinalize(weights: np.ndarray, samples: np.ndarray,
               assigned: np.ndarray) -> np.ndarray:
    """Grade per node (1..n_nodes), ordered by descending mean sample speed.

    Speed is feature 0 and `assigned` each sample's node from `som_assign`.
    Nodes that win no samples are ranked by their weight's speed component.
    Returns a bijective permutation `perm` with perm[node_index] = grade.
    """
    n_nodes = weights.shape[0]
    keys = weights[:, 0].copy()
    for node in range(n_nodes):
        mask = assigned == node
        if mask.any():
            keys[node] = samples[mask, 0].mean()
    order = np.argsort(-keys, kind="stable")
    perm = np.empty(n_nodes, dtype=np.int64)
    perm[order] = np.arange(1, n_nodes + 1)
    return perm


def label_series(values: np.ndarray, class_count: int, seed: int,
                 learn_rate0: float, radius0: float,
                 max_iter: int) -> np.ndarray:
    """Grade every (road, hour) of a normalized (roads, hours, channels)
    series; returns the (roads, hours) grades in [1, class_count].  The map
    is trained on all observations."""
    n, t, channels = values.shape
    samples = values.reshape(-1, channels)
    weights = som_train(samples, class_count, seed=seed,
                        learn_rate0=learn_rate0, radius0=radius0,
                        max_iter=max_iter)
    nodes = som_assign(weights, samples)
    perm = ordinalize(weights, samples, nodes)
    return perm[nodes].reshape(n, t)
