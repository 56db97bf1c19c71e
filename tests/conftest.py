"""Shared toy fixtures: tiny networks, graph sets and model states."""

import numpy as np
import pytest

from roadgrade.data import Samples, TrafficSeries
from roadgrade.graphs import GraphSet, RoadNetwork
from roadgrade.model import ModelConfig, init_state
from roadgrade.synth import DEFAULT_START


def random_symmetric(rng, n, density=0.6):
    w = rng.uniform(0.1, 1.0, size=(n, n)) * (rng.random((n, n)) < density)
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    return w


def toy_graphs(rng, n):
    return GraphSet(topological=random_symmetric(rng, n),
                    weighted=random_symmetric(rng, n),
                    pattern=random_symmetric(rng, n),
                    attribute=random_symmetric(rng, n))


def toy_config(n=4, grades=3, hidden=3, heads=2, windows=(6, 3, 2),
               resolutions=("hour", "day", "week"), epochs=50,
               batch_size=4, lr=1e-2):
    return ModelConfig(n_roads=n, n_grades=grades, hidden1=hidden,
                       hidden2=hidden, heads=heads,
                       window_hours=windows[0], window_days=windows[1],
                       window_weeks=windows[2], resolutions=resolutions,
                       learning_rate=lr, batch_size=batch_size, epochs=epochs)


def toy_samples(rng, config, count=1):
    """`count` random samples, each drawn as a whole before the next."""
    n = config.n_roads
    drawn = [(rng.integers(1, config.n_grades + 1, size=n),
              rng.uniform(0, 1, size=(n, config.window_hours, 2)),
              rng.uniform(0, 1, size=(n, config.window_days, 2)),
              rng.uniform(0, 1, size=(n, config.window_weeks, 2)))
             for _ in range(count)]
    target, hourly, daily, weekly = (np.stack(part) for part in zip(*drawn))
    return Samples({"hour": hourly, "day": daily, "week": weekly},
                   target.astype(np.int64), np.full(count, 500))


class ToySetup:
    def __init__(self, seed=0, **config_kwargs):
        self.rng = np.random.default_rng(seed)
        self.config = toy_config(**config_kwargs)
        self.graphs = toy_graphs(self.rng, self.config.n_roads)
        self.state = init_state(self.config, seed=seed)

    def samples(self, count=1):
        return toy_samples(self.rng, self.config, count)


@pytest.fixture
def toy():
    return ToySetup(seed=0)


def tiny_series(rng, n=4, t=400):
    return TrafficSeries(rng.uniform(1.0, 99.0, size=(n, t, 2)),
                         DEFAULT_START)


def path_network(n, lengths=None):
    lengths = np.ones(n) if lengths is None else np.asarray(lengths)
    return RoadNetwork(lengths, tuple((i, i + 1) for i in range(n - 1)))
