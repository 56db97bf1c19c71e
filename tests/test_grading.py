"""Self-organizing map training, assignment and ordinal relabeling."""

import math

import numpy as np
import pytest

from roadgrade import grading
from roadgrade.grading import label_series, ordinalize, som_assign, som_train


def two_cluster_samples(rng, per_cluster=100):
    low = rng.normal(0.15, 0.03, size=(per_cluster, 2))
    high = rng.normal(0.85, 0.03, size=(per_cluster, 2))
    samples = np.clip(np.vstack([low, high]), 0.0, 1.0)
    labels = np.repeat([0, 1], per_cluster)
    return samples, labels


def som_train_numpy(samples, class_count, seed, learn_rate0, radius0,
                    max_iter):
    """som_train as array code: one numpy update per point (the oracle)."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.0, 1.0, size=(class_count, samples.shape[1]))
    idx = np.arange(class_count)
    strip_dist = np.abs(idx[:, None] - idx[None, :])
    t1 = max_iter / math.log(radius0)
    t2 = float(max_iter)
    for iteration in range(1, max_iter):
        radius = radius0 * math.exp(-(iteration - 1) / t1)
        rate = learn_rate0 * math.exp(-(iteration - 1) / t2)
        gain = rate * radius
        hoods = strip_dist <= radius - 1.0
        for x in samples:
            deltas = weights - x
            winner = int(np.argmin(np.einsum("ij,ij->i", deltas, deltas)))
            hood = hoods[winner]
            weights[hood] += gain * (x - weights[hood])
    return weights


class TestSomTrain:
    # ids kept from the 1x5, 2x2 and 2x3 grids these node counts stand for
    @pytest.mark.parametrize("count", [5, 4, 6],
                             ids=["grid0", "grid1", "grid2"])
    @pytest.mark.parametrize("features", [2])
    def test_bitwise_equal_to_numpy_oracle(self, count, features):
        rng = np.random.default_rng(count + features)
        points = rng.uniform(0, 1, size=(30, features))
        # repeated points, and a coarse lattice where distances tie exactly
        samples = np.vstack([points, points[:10], np.round(points * 2) / 2])
        kwargs = dict(seed=features, learn_rate0=0.1, radius0=3.0,
                      max_iter=15)
        expected = som_train_numpy(samples, count, **kwargs)
        got = som_train(samples, count, **kwargs)
        assert np.array_equal(got, expected)

    def test_bitwise_equal_to_numpy_oracle_at_label_scale(self):
        # shaped like `label` on city36-prep: 5 nodes and 7 iterations, whose
        # passes go from neighborhood updates to winner-only updates
        rng = np.random.default_rng(13)
        samples = rng.uniform(0, 1, size=(2016, 2))
        kwargs = dict(seed=1, learn_rate0=0.1, radius0=3.0, max_iter=7)
        expected = som_train_numpy(samples, 5, **kwargs)
        assert np.array_equal(som_train(samples, 5, **kwargs), expected)

    def test_distance_tie_goes_to_lowest_index(self):
        # Pass 1 (gain 1, both nodes in reach) puts both nodes exactly on
        # the last sample, (0.75, 0.75).  In pass 2 (winner only) the first
        # sample is equally far from both, so node 0 must be the one moving.
        samples = np.array([[0.5, 0.5], [0.75, 0.75]])
        weights = som_train(samples, class_count=2, seed=5, learn_rate0=0.5,
                            radius0=2.0, max_iter=3)
        assert weights[1].tolist() == [0.75, 0.75]
        assert np.all(weights[0] < 0.75)
        assert np.array_equal(weights, som_train_numpy(
            samples, 2, seed=5, learn_rate0=0.5, radius0=2.0, max_iter=3))

    def test_constant_samples_converge_to_the_constant(self):
        target = np.array([0.3, 0.7])
        samples = np.tile(target, (50, 1))
        weights = som_train(samples, class_count=3, seed=0, learn_rate0=0.1,
                            radius0=3.0, max_iter=200)
        winner = som_assign(weights, target[None, :])[0]
        assert np.linalg.norm(weights[winner] - target) < 1e-3

    def test_unit_gain_sets_winner_to_sample(self):
        # one pass, learn_rate0 * radius0 = 1: nodes in range jump onto x
        sample = np.array([[0.25, 0.75]])
        weights = som_train(sample, class_count=2, seed=1,
                            learn_rate0=0.5, radius0=2.0, max_iter=2)
        winner = som_assign(weights, sample)[0]
        np.testing.assert_array_equal(weights[winner], sample[0])

    def test_two_separated_clusters_recovered(self):
        rng = np.random.default_rng(2)
        samples, labels = two_cluster_samples(rng)
        weights = som_train(samples, class_count=2, seed=3, learn_rate0=0.1,
                            radius0=3.0, max_iter=200)
        assigned = som_assign(weights, samples)
        agreement = (assigned == labels).mean()
        purity = max(agreement, 1.0 - agreement)
        assert purity >= 0.95

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        samples, _ = two_cluster_samples(rng, per_cluster=30)
        kwargs = dict(seed=9, learn_rate0=0.1, radius0=3.0, max_iter=200)
        first = som_train(samples, class_count=4, **kwargs)
        second = som_train(samples, class_count=4, **kwargs)
        assert np.array_equal(first, second)


class TestSomAssign:
    def test_nearest_node_wins(self):
        weights = np.array([[0.0], [1.0]])
        assert som_assign(weights, np.array([[0.1]]))[0] == 0
        assert som_assign(weights, np.array([[0.9]]))[0] == 1

    def test_tie_breaks_to_lowest_index(self):
        weights = np.array([[0.0], [1.0]])
        assert som_assign(weights, np.array([[0.5]]))[0] == 0

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(5)
        weights = rng.uniform(0, 1, size=(6, 3))
        samples = rng.uniform(0, 1, size=(40, 3))
        assigned = som_assign(weights, samples)
        for sample, node in zip(samples, assigned):
            dists = [np.sum((w - sample) ** 2) for w in weights]
            assert node == int(np.argmin(dists))

    def test_equals_the_summed_squares_formula(self):
        # nodes on a 1/8 grid, one of them twice, and every midpoint of two
        # nodes: the squares are exact, so midpoints tie exactly
        rng = np.random.default_rng(9)
        weights = rng.integers(0, 9, size=(6, 2)) / 8
        weights[5] = weights[2]
        midpoints = [(a + b) / 2 for i, a in enumerate(weights)
                     for b in weights[i + 1:]]
        samples = np.vstack([rng.uniform(0, 1, size=(300, 2)), midpoints])
        dist = ((samples[:, None] - weights) ** 2).sum(axis=2)
        ties = (dist == dist.min(axis=1, keepdims=True)).sum(axis=1) > 1
        assert ties[300:].sum() >= 5
        np.testing.assert_array_equal(som_assign(weights, samples),
                                      np.argmin(dist, axis=1))


def grade_nodes(weights, samples):
    return ordinalize(weights, samples, som_assign(weights, samples))


class TestOrdinalize:
    def test_fast_node_gets_grade_one(self):
        weights = np.array([[0.2, 0.5], [0.6, 0.5]])
        samples = np.array([[0.2, 0.5], [0.6, 0.5], [0.62, 0.5]])
        perm = grade_nodes(weights, samples)
        assert perm[1] == 1  # node with mean speed 0.61 is most free-flowing
        assert perm[0] == 2

    def test_ordered_nodes_give_identity(self):
        weights = np.array([[0.9, 0.1], [0.5, 0.5], [0.1, 0.9]])
        samples = np.array([[0.88, 0.1], [0.52, 0.5], [0.12, 0.9]])
        np.testing.assert_array_equal(grade_nodes(weights, samples),
                                      [1, 2, 3])

    def test_empty_node_falls_back_to_weight_speed(self):
        # node 2 sits far away and wins nothing; its weight decides its rank
        weights = np.array([[0.9, 0.5], [0.2, 0.5], [0.55, 0.5]])
        samples = np.array([[0.9, 0.5], [0.2, 0.5]])
        assert som_assign(weights, samples).tolist() == [0, 1]
        perm = grade_nodes(weights, samples)
        assert perm.tolist() == [1, 3, 2]

    def test_permutation_is_bijective(self):
        rng = np.random.default_rng(7)
        weights = rng.uniform(0, 1, size=(5, 2))
        samples = rng.uniform(0, 1, size=(30, 2))
        perm = grade_nodes(weights, samples)
        assert sorted(perm.tolist()) == [1, 2, 3, 4, 5]


class TestLabelSeries:
    def test_shapes_ranges_and_mean_speed_ordering(self):
        rng = np.random.default_rng(8)
        congestion = rng.uniform(0, 1, size=(5, 200))
        values = np.stack([1.0 - 0.8 * congestion, 0.2 + 0.8 * congestion],
                          axis=2)
        grades = label_series(values, class_count=4, seed=0, learn_rate0=0.1,
                              radius0=3.0, max_iter=60)
        assert grades.shape == (5, 200)
        assert grades.dtype == np.int64
        assert grades.min() >= 1 and grades.max() <= 4
        # mean speed must not increase with the grade index
        flat_speed = values[:, :, 0].ravel()
        flat_grade = grades.ravel()
        means = [flat_speed[flat_grade == g].mean()
                 for g in range(1, 5) if np.any(flat_grade == g)]
        assert all(a >= b - 1e-12 for a, b in zip(means, means[1:]))

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        values = rng.uniform(0, 1, size=(3, 120, 2))
        kwargs = dict(seed=5, learn_rate0=0.1, radius0=3.0, max_iter=40)
        first = label_series(values, class_count=3, **kwargs)
        second = label_series(values, class_count=3, **kwargs)
        assert np.array_equal(first, second)

    def test_assigns_once_and_matches_separate_steps(self, monkeypatch):
        rng = np.random.default_rng(12)
        values = rng.uniform(0, 1, size=(4, 120, 2))
        samples = values.reshape(-1, 2)
        schedule = dict(seed=2, learn_rate0=0.1, radius0=3.0, max_iter=20)
        weights = som_train(samples, 3, **schedule)
        expected = grade_nodes(weights, samples)[som_assign(weights, samples)]
        calls = []

        def counted(*args):
            calls.append(args)
            return som_assign(*args)

        monkeypatch.setattr(grading, "som_assign", counted)
        grades = label_series(values, 3, **schedule)
        assert len(calls) == 1
        assert np.array_equal(grades, expected.reshape(4, 120))
