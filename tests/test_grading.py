"""Self-organizing map training, assignment and ordinal relabeling."""

import math

import numpy as np
import pytest

from roadgrade.grading import (GradeSeries, SomNetwork, label_series,
                               ordinalize, som_assign, som_train)


def two_cluster_samples(rng, per_cluster=100):
    low = rng.normal(0.15, 0.03, size=(per_cluster, 2))
    high = rng.normal(0.85, 0.03, size=(per_cluster, 2))
    samples = np.clip(np.vstack([low, high]), 0.0, 1.0)
    labels = np.repeat([0, 1], per_cluster)
    return samples, labels


def som_train_numpy(samples, class_count, grid, seed, learn_rate0=0.1,
                    radius0=3.0, max_iter=200):
    """som_train as array code: one numpy update per point (the oracle)."""
    _, cols = grid
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.0, 1.0, size=(class_count, samples.shape[1]))
    coords = np.array([divmod(j, cols) for j in range(class_count)])
    grid_dist = np.abs(coords[:, None, :] - coords[None, :, :]).max(axis=2)
    t1 = max_iter / math.log(radius0)
    t2 = float(max_iter)
    for iteration in range(1, max_iter):
        radius = radius0 * math.exp(-(iteration - 1) / t1)
        rate = learn_rate0 * math.exp(-(iteration - 1) / t2)
        gain = rate * radius
        hoods = grid_dist <= radius - 1.0
        for x in samples:
            deltas = weights - x
            winner = int(np.argmin(np.einsum("ij,ij->i", deltas, deltas)))
            hood = hoods[winner]
            weights[hood] += gain * (x - weights[hood])
    return weights


class TestSomTrain:
    @pytest.mark.parametrize("grid", [(1, 5), (2, 2), (2, 3)])
    @pytest.mark.parametrize("features", [1, 2, 3])
    def test_bitwise_equal_to_numpy_oracle(self, grid, features):
        rng = np.random.default_rng(10 * grid[0] + grid[1] + features)
        points = rng.uniform(0, 1, size=(30, features))
        # repeated points, and a coarse lattice where distances tie exactly
        samples = np.vstack([points, points[:10], np.round(points * 2) / 2])
        count = grid[0] * grid[1]
        kwargs = dict(grid=grid, seed=features, max_iter=15)
        expected = som_train_numpy(samples, count, **kwargs)
        got = som_train(samples, count, **kwargs).weights
        assert np.array_equal(got, expected)

    def test_distance_tie_goes_to_lowest_index(self):
        # Pass 1 (gain 1, both nodes in reach) puts both nodes exactly on
        # the last sample, (0.75, 0.75).  In pass 2 (winner only) the first
        # sample is equally far from both, so node 0 must be the one moving.
        samples = np.array([[0.5, 0.5], [0.75, 0.75]])
        som = som_train(samples, class_count=2, seed=5, learn_rate0=0.5,
                        radius0=2.0, max_iter=3)
        assert som.weights[1].tolist() == [0.75, 0.75]
        assert np.all(som.weights[0] < 0.75)
        assert np.array_equal(som.weights, som_train_numpy(
            samples, 2, (1, 2), seed=5, learn_rate0=0.5, radius0=2.0,
            max_iter=3))

    def test_constant_samples_converge_to_the_constant(self):
        target = np.array([0.3, 0.7])
        samples = np.tile(target, (50, 1))
        som = som_train(samples, class_count=3, seed=0)
        winner = som_assign(som, target[None, :])[0]
        assert np.linalg.norm(som.weights[winner] - target) < 1e-3

    def test_unit_gain_sets_winner_to_sample(self):
        # one pass, learn_rate0 * radius0 = 1: nodes in range jump onto x
        sample = np.array([[0.25, 0.75]])
        som = som_train(sample, class_count=2, seed=1,
                        learn_rate0=0.5, radius0=2.0, max_iter=2)
        winner = som_assign(som, sample)[0]
        np.testing.assert_array_equal(som.weights[winner], sample[0])

    def test_two_separated_clusters_recovered(self):
        rng = np.random.default_rng(2)
        samples, labels = two_cluster_samples(rng)
        som = som_train(samples, class_count=2, seed=3)
        assigned = som_assign(som, samples)
        agreement = (assigned == labels).mean()
        purity = max(agreement, 1.0 - agreement)
        assert purity >= 0.95

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        samples, _ = two_cluster_samples(rng, per_cluster=30)
        first = som_train(samples, class_count=4, grid=(2, 2), seed=9)
        second = som_train(samples, class_count=4, grid=(2, 2), seed=9)
        assert np.array_equal(first.weights, second.weights)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            som_train(np.empty((0, 2)), class_count=2)
        with pytest.raises(ValueError):
            som_train(np.full((4, 2), 0.5), class_count=5, grid=(2, 2))
        with pytest.raises(ValueError):
            som_train(np.full((4, 2), 1.5), class_count=2)
        with pytest.raises(ValueError):
            som_train(np.full((4, 2), 0.5), class_count=2, learn_rate0=0.0)
        with pytest.raises(ValueError):
            som_train(np.full((4, 2), 0.5), class_count=2, max_iter=0)


class TestSomAssign:
    def test_nearest_node_wins(self):
        som = SomNetwork(np.array([[0.0], [1.0]]), grid=(1, 2))
        assert som_assign(som, np.array([[0.1]]))[0] == 0
        assert som_assign(som, np.array([[0.9]]))[0] == 1

    def test_tie_breaks_to_lowest_index(self):
        som = SomNetwork(np.array([[0.0], [1.0]]), grid=(1, 2))
        assert som_assign(som, np.array([[0.5]]))[0] == 0

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(5)
        som = SomNetwork(rng.uniform(0, 1, size=(6, 3)), grid=(2, 3))
        samples = rng.uniform(0, 1, size=(40, 3))
        assigned = som_assign(som, samples)
        for sample, node in zip(samples, assigned):
            dists = [np.sum((w - sample) ** 2) for w in som.weights]
            assert node == int(np.argmin(dists))

    def test_dimension_mismatch(self):
        som = SomNetwork(np.zeros((2, 3)), grid=(1, 2))
        with pytest.raises(ValueError):
            som_assign(som, np.zeros((4, 2)))


class TestOrdinalize:
    def test_fast_node_gets_grade_one(self):
        som = SomNetwork(np.array([[0.2, 0.5], [0.6, 0.5]]), grid=(1, 2))
        samples = np.array([[0.2, 0.5], [0.6, 0.5], [0.62, 0.5]])
        perm = ordinalize(som, samples)
        assert perm[1] == 1  # node with mean speed 0.61 is most free-flowing
        assert perm[0] == 2

    def test_ordered_nodes_give_identity(self):
        som = SomNetwork(np.array([[0.9, 0.1], [0.5, 0.5], [0.1, 0.9]]),
                         grid=(1, 3))
        samples = np.array([[0.88, 0.1], [0.52, 0.5], [0.12, 0.9]])
        np.testing.assert_array_equal(ordinalize(som, samples), [1, 2, 3])

    def test_empty_node_falls_back_to_weight_speed(self):
        # node 2 sits far away and wins nothing; its weight decides its rank
        som = SomNetwork(np.array([[0.9, 0.5], [0.2, 0.5], [0.55, 0.5]]),
                         grid=(1, 3))
        samples = np.array([[0.9, 0.5], [0.2, 0.5]])
        assert som_assign(som, samples).tolist() == [0, 1]
        perm = ordinalize(som, samples)
        assert perm.tolist() == [1, 3, 2]

    def test_permutation_is_bijective(self):
        rng = np.random.default_rng(7)
        som = SomNetwork(rng.uniform(0, 1, size=(5, 2)), grid=(1, 5))
        samples = rng.uniform(0, 1, size=(30, 2))
        perm = ordinalize(som, samples)
        assert sorted(perm.tolist()) == [1, 2, 3, 4, 5]


class TestLabelSeries:
    def test_shapes_ranges_and_mean_speed_ordering(self):
        rng = np.random.default_rng(8)
        congestion = rng.uniform(0, 1, size=(5, 200))
        values = np.stack([1.0 - 0.8 * congestion, 0.2 + 0.8 * congestion],
                          axis=2)
        grades, som, perm = label_series(values, class_count=4, seed=0,
                                         max_iter=60)
        assert isinstance(grades, GradeSeries)
        assert grades.values.shape == (5, 200)
        assert grades.values.min() >= 1 and grades.values.max() <= 4
        # mean speed must not increase with the grade index
        flat_speed = values[:, :, 0].ravel()
        flat_grade = grades.values.ravel()
        means = [flat_speed[flat_grade == g].mean()
                 for g in range(1, 5) if np.any(flat_grade == g)]
        assert all(a >= b - 1e-12 for a, b in zip(means, means[1:]))

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        values = rng.uniform(0, 1, size=(3, 120, 2))
        first, _, _ = label_series(values, class_count=3, seed=5,
                                   max_iter=40)
        second, _, _ = label_series(values, class_count=3, seed=5,
                                    max_iter=40)
        assert np.array_equal(first.values, second.values)


def test_grade_series_validation():
    with pytest.raises(ValueError):
        GradeSeries(np.array([[0, 1]]), class_count=2)
    with pytest.raises(ValueError):
        GradeSeries(np.array([[1, 3]]), class_count=2)
