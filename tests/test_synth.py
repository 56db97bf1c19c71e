"""Planted structure of the synthetic generators."""

import numpy as np

from roadgrade.graphs import shortest_paths
from roadgrade.synth import generate_synthetic


def autocorrelation(series, lag):
    a = series[:-lag] - series[:-lag].mean()
    b = series[lag:] - series[lag:].mean()
    return float((a * b).mean() / (a.std() * b.std() + 1e-12))


def test_deterministic_in_seed():
    net_a, series_a = generate_synthetic(8, 4, seed=7)
    net_b, series_b = generate_synthetic(8, 4, seed=7)
    assert np.array_equal(series_a.values, series_b.values)
    assert np.array_equal(net_a.lengths, net_b.lengths)
    assert net_a.edges == net_b.edges


def test_different_seeds_differ():
    _, series_a = generate_synthetic(8, 4, seed=1)
    _, series_b = generate_synthetic(8, 4, seed=2)
    assert not np.array_equal(series_a.values, series_b.values)


def test_daily_period_planted_per_road():
    _, series = generate_synthetic(12, 5, seed=0)
    for road in range(series.n):
        speed = series.values[road, :, 0]
        assert autocorrelation(speed, 24) > autocorrelation(speed, 13)


def test_network_is_connected():
    for seed in range(5):
        net, _ = generate_synthetic(10, 4, seed=seed)
        assert np.all(np.isfinite(shortest_paths(net)[0]))


def test_shapes_and_positivity():
    net, series = generate_synthetic(9, 4, seed=3)
    assert net.n == 9
    assert series.values.shape == (9, 4 * 168, 2)
    assert np.all(series.values >= 0)

