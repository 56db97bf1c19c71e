"""Desk-scale synthetic road networks and traffic series.

The generator plants the structure the pipeline is meant to recover: a
connected network whose roads fall into clusters, daily and weekly periodic
congestion shared within each cluster, cluster-correlated congestion
episodes, and additive observation noise.  Everything is a pure function of
the seed.
"""

from __future__ import annotations

from datetime import datetime

import numpy as np

from .data import TrafficSeries
from .graphs import RoadNetwork

# Monday 00:00, so hour index 0 starts a calendar week
DEFAULT_START = datetime(2020, 1, 6)


def road_ids(n_roads: int) -> list[str]:
    return [f"R{i:03d}" for i in range(n_roads)]


def _cluster_assignment(n_roads: int, n_clusters: int) -> np.ndarray:
    return (np.arange(n_roads) * n_clusters) // n_roads


def _random_connected_network(rng: np.random.Generator, n_roads: int,
                              clusters: np.ndarray) -> RoadNetwork:
    # chain keeps the graph connected; chords densify within clusters
    edges = [(i - 1, i) for i in range(1, n_roads)]
    for c in np.unique(clusters):
        members = np.flatnonzero(clusters == c)
        if members.size < 3:
            continue
        n_chords = max(1, members.size // 2)
        for _ in range(n_chords):
            a, b = rng.choice(members, size=2, replace=False)
            edges.append((int(a), int(b)))
    return RoadNetwork(rng.uniform(0.5, 5.0, size=n_roads), tuple(edges))


def _episode_track(rng: np.random.Generator, t: int, count: int,
                   boost: float) -> np.ndarray:
    track = np.zeros(t)
    starts = rng.integers(0, t, size=count)
    durations = rng.integers(3, 9, size=count)
    for start, duration in zip(starts, durations):
        track[start:start + duration] += boost
    return track


def _observe(rng: np.random.Generator, congestion: np.ndarray,
             n_roads: int) -> np.ndarray:
    """Turn a per-road congestion level in [0, 1] into (speed, flow)."""
    t = congestion.shape[1]
    free_speed = rng.uniform(55.0, 75.0, size=n_roads)
    capacity = rng.uniform(600.0, 1200.0, size=n_roads)
    speed = free_speed[:, None] * (1.0 - 0.72 * congestion)
    speed = speed + rng.normal(0.0, 0.8, size=(n_roads, t))
    flow = capacity[:, None] * (0.12 + 0.88 * congestion)
    flow = flow + rng.normal(0.0, 6.0, size=(n_roads, t))
    return np.clip(np.stack([speed, flow], axis=2), 0.0, None)


def generate_synthetic(n_roads: int, weeks: int, seed: int
                       ) -> tuple[RoadNetwork, TrafficSeries]:
    """Connected network plus periodic speed/flow series with planted cycles."""
    rng = np.random.default_rng(seed)
    n_clusters = max(2, min(4, n_roads // 4))
    clusters = _cluster_assignment(n_roads, n_clusters)
    net = _random_connected_network(rng, n_roads, clusters)

    t = weeks * 168
    hours = np.arange(t)
    tod = hours % 24
    weekend = (hours // 24) % 7 >= 5
    # regime plateaus keep observations well away from grade boundaries
    regime = np.array([0.05, 0.05, 0.05, 0.05, 0.05, 0.1,   # night
                       0.35, 0.9, 0.9, 0.9, 0.45, 0.45,     # morning peak
                       0.45, 0.45, 0.45, 0.45, 0.55, 0.95,  # midday -> peak
                       0.95, 0.95, 0.4, 0.4, 0.1, 0.05])    # wind-down
    daily = regime[tod] * np.where(weekend, 0.4, 1.0)

    cluster_amp = np.linspace(0.95, 0.35, n_clusters)
    episodes = np.stack([
        _episode_track(rng, t, count=2 * weeks, boost=0.25)
        for _ in range(n_clusters)])
    road_gain = 1.0 + rng.uniform(-0.05, 0.05, size=n_roads)
    congestion = (road_gain[:, None]
                  * (cluster_amp[clusters, None] * daily[None, :]
                     + episodes[clusters]))
    congestion = np.clip(
        congestion + rng.normal(0.0, 0.01, size=(n_roads, t)), 0.0, 1.0)
    values = _observe(rng, congestion, n_roads)
    return net, TrafficSeries(values, DEFAULT_START)

