"""Road graphs: four adjacency constructions, normalization, spatial statistics.

A road network is an undirected graph whose nodes are roads.  Four pairwise
similarity matrices are built from it: reciprocal hop distance, length-weighted
hop distance, historical-pattern similarity (DTW kernel on speed/flow
histories), and inherent-attribute similarity (daily max flow/speed plus
length).  Each raw matrix is symmetric with zero diagonal; graph convolution
consumes the self-loop-augmented symmetric normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .data import TrafficSeries, read_csv_rows, write_table
from .errors import DataError, DegenerateVarianceError

GRAPH_KEYS = ("topological", "weighted", "pattern", "attribute")


@dataclass(frozen=True)
class RoadNetwork:
    """Undirected road connectivity with per-road lengths."""

    lengths: np.ndarray
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        lengths = np.asarray(self.lengths, dtype=np.float64)
        object.__setattr__(self, "lengths", lengths)
        if lengths.ndim != 1 or lengths.size == 0:
            raise ValueError("lengths must be a non-empty 1-D array")
        # a finite total bounds every kept path length and every l_i + l_j
        # with i != j; a sum of Python floats overflows without a warning
        if not (np.all(lengths > 0) and math.isfinite(sum(lengths.tolist()))):
            raise ValueError("road lengths must be positive with a finite sum")
        n = lengths.size
        canonical = set()
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-edge on road {a}")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a}, {b}) out of range")
            canonical.add((min(a, b), max(a, b)))
        object.__setattr__(self, "edges", tuple(sorted(canonical)))

    @property
    def n(self) -> int:
        return self.lengths.size

    def connectivity(self) -> np.ndarray:
        """Symmetric 0/1 matrix of which roads touch, zero on the diagonal."""
        conn = np.zeros((self.n, self.n))
        a, b = np.array(self.edges, dtype=int).reshape(-1, 2).T
        conn[a, b] = conn[b, a] = 1.0
        return conn

    @cached_property
    def paths(self) -> tuple[np.ndarray, np.ndarray]:
        """`shortest_paths` of this network, computed on first use only, so
        the two hop graphs share one breadth-first pass; read-only, since
        every later reader gets the same arrays."""
        paths = shortest_paths(self)
        for arr in paths:
            arr.flags.writeable = False
        return paths


# -- shortest paths ------------------------------------------------------------


def shortest_paths(net: RoadNetwork) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs hop counts and, per pair, the least total road length over
    the hop-shortest paths, both end roads counted; +inf when unreachable.

    One breadth-first pass from every road at once, one hop layer per step:
    a road first reached at hop k + 1 takes its own length plus the least
    path length among its neighbors on layer k.
    """
    n = net.n
    # 0 where two roads touch, +inf elsewhere: adding it keeps or drops a value
    gate = np.where(net.connectivity() == 1.0, 0.0, np.inf)
    hops = np.full((n, n), np.inf)
    np.fill_diagonal(hops, 0.0)
    path_lengths = np.where(np.eye(n, dtype=bool), net.lengths, np.inf)
    frontier = np.eye(n, dtype=bool)   # [source, road]: road on the layer
    hop = 0.0
    while frontier.any():
        layer = np.where(frontier, path_lengths, np.inf)
        best = np.full((n, n), np.inf)
        for u in np.flatnonzero(frontier.any(axis=0)):
            np.minimum(best, layer[:, u, None] + gate[u], out=best)
        hop += 1.0
        frontier = np.isfinite(best) & np.isinf(hops)
        hops[frontier] = hop
        with np.errstate(over="ignore"):  # only dropped cells overflow
            path_lengths[frontier] = (net.lengths + best)[frontier]
    return hops, path_lengths


def build_topological(net: RoadNetwork) -> np.ndarray:
    """Similarity = reciprocal of the hop distance; 0 when unreachable."""
    with np.errstate(divide="ignore"):
        w = 1.0 / net.paths[0]
    np.fill_diagonal(w, 0.0)
    return w


def build_weighted_topological(net: RoadNetwork) -> np.ndarray:
    """Similarity = (len_i + len_j) / total length of the hop-shortest path.

    Among equally short (by hops) paths the one of minimum total length is
    used, which makes the ratio well defined; the upper triangle is mirrored,
    so the matrix is exactly symmetric.
    """
    lengths = net.lengths
    with np.errstate(over="ignore"):  # only the dropped diagonal overflows
        w = np.triu((lengths[:, None] + lengths) / net.paths[1], k=1)
    return w + w.T


# -- dynamic time warping ------------------------------------------------------


def _lag_table_dtw(first: np.ndarray, second: np.ndarray, length: int,
                   lags: list[np.ndarray], dp: list[np.ndarray]) -> np.ndarray:
    """DTW distance between first[s:s + length] and second[s:s + length],
    (hours, P) each, for every anchor s: (anchors * P,), anchor-major.

    Cell (r, c) of anchor s costs |first[s + r] - second[s + c]|, which
    depends only on the hour s + r and the lag k = c - r.  So each cost is
    read from a lag table, lag[k][u] = |first[u] - second[u + k]| (a negative
    k counts from the end of `lags`): cell (r, c) of all anchors is the block
    lag[c - r][r:r + anchors].  The DP runs row by row, with only abs, min
    and +, so it agrees exactly with `dtw_distance` of tests/oracles.py.
    `lags` and `dp` are flat working arrays; a call uses their front.
    """
    hours, width = first.shape
    rows = (hours - length + 1) * width
    for k in range(1 - length, length):
        lo, hi = max(0, -k), hours - max(0, k)
        out = lags[k][:hours * width].reshape(hours, width)[lo:hi]
        np.abs(np.subtract(first[lo:hi], second[lo + k:hi + k], out=out),
               out=out)
    prev, cur, best = (array[:(length + extra) * rows].reshape(-1, rows)
                       for array, extra in zip(dp, (1, 1, 0)))
    prev[0] = 0.0
    prev[1:] = np.inf
    for r in range(length):
        # the moves from the previous row need no loop, only the one along
        # the current row does
        np.minimum(prev[1:], prev[:-1], out=best)
        cur[0] = np.inf
        skip = r * width
        for c in range(length):
            np.minimum(best[c], cur[c], out=best[c])
            np.add(lags[c - r][skip:skip + rows], best[c], out=cur[c + 1])
        prev, cur = cur, prev
    return prev[length]


# Rows, one per (anchor, channel, road pair), of one DP in
# build_pattern_graph: a few MB of working set.  Fewer rows pay more numpy
# call overhead per cell; far more run slower and cost memory.
DTW_CHUNK_ROWS = 8192


def build_pattern_graph(history: TrafficSeries, alpha_speed: float,
                        alpha_flow: float, window: tuple[int, int],
                        pattern_hours: int) -> np.ndarray:
    """Historical-pattern similarity via an exponential kernel on DTW distance.

    For every hourly anchor in `window` whose trailing `pattern_hours` history
    fits inside the window, the speed and flow histories of each road pair are
    compared with DTW; exp(-alpha_c * dist) is averaged over the two channels
    and then over anchors.  Diagonal forced to zero.  A distance that
    overflows to +inf gives kernel 0, its limit.
    """
    start, stop = window
    n_anchors = stop - start - pattern_hours + 1
    n = history.n
    if n < 2:  # no pair to compare
        return np.zeros((n, n))
    ii, jj = np.triu_indices(n, k=1)
    neg_alphas = -np.array([alpha_speed, alpha_flow])[:, None]
    channels = len(neg_alphas)
    # (hours, channels, roads): the window hour by hour, a view on the series
    steps = history.values[:, start:stop, :].transpose(1, 2, 0)
    # a DP takes at least as many anchors as a pattern has hours, so that a
    # lag row serves many anchors, and then as many road pairs as fit
    step = min(n_anchors, max(pattern_hours,
                              DTW_CHUNK_ROWS // (channels * ii.size)))
    block = min(ii.size, max(1, DTW_CHUNK_ROWS // (step * channels)))
    hours, width = step + pattern_hours - 1, channels * block
    # flat working arrays, allocated once: the lag table and the DP rows
    lags = [np.empty(hours * width) for _ in range(2 * pattern_hours - 1)]
    dp = [np.empty((pattern_hours + 1) * step * width) for _ in range(3)]
    total = np.zeros(ii.size)
    for lo in range(0, n_anchors, step):
        chunk = steps[lo:lo + step + pattern_hours - 1]
        for p in range(0, ii.size, block):
            pairs = slice(p, p + block)
            # (hours, channels x pairs): each pair's first and second road
            seqs = [chunk[..., index[pairs]].reshape(len(chunk), -1)
                    for index in (ii, jj)]
            with np.errstate(over="ignore"):  # infinite distance: kernel 0
                dist = _lag_table_dtw(*seqs, pattern_hours, lags, dp)
                kernels = np.exp(neg_alphas * dist.reshape(
                    -1, channels, ii[pairs].size))
            # anchor by anchor, speed + flow, as a per-anchor loop would add
            for speed, flow in kernels:
                total[pairs] += (speed + flow) / channels
    w = np.zeros((n, n))
    w[ii, jj] = w[jj, ii] = total / n_anchors
    return w


def build_attribute_graph(history: TrafficSeries, net: RoadNetwork,
                          window: tuple[int, int]) -> np.ndarray:
    """Inherent-attribute similarity from daily max flow/speed and length.

    Per complete day in the window each road gets the vector
    [max flow, max speed, length] with the first two min-max normalized
    across roads; similarity is exp(-squared distance), averaged over days.
    """
    start, stop = window
    n_days = (stop - start) // 24
    n = history.n
    total = np.zeros((n, n))
    for day in range(n_days):
        lo = start + 24 * day
        block = history.values[:, lo:lo + 24, :]
        max_speed = block[:, :, 0].max(axis=1)
        max_flow = block[:, :, 1].max(axis=1)
        attrs = np.column_stack([
            _minmax_across_roads(max_flow),
            _minmax_across_roads(max_speed),
            net.lengths,
        ])
        diff = attrs[:, None, :] - attrs[None, :, :]
        with np.errstate(over="ignore"):  # a square overflows to kernel 0
            total += np.exp(-(diff ** 2).sum(axis=2))
    w = total / n_days
    np.fill_diagonal(w, 0.0)
    return w


def _minmax_across_roads(values: np.ndarray) -> np.ndarray:
    lo, hi = values.min(), values.max()
    if hi == lo:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


# -- normalization -------------------------------------------------------------


def normalize_adjacency(w: np.ndarray) -> np.ndarray:
    """Self-loop-augmented symmetric normalization D^-1/2 (W+I) D^-1/2 of a
    symmetric, non-negative W, so that every degree is at least 1."""
    w_tilde = w + np.eye(w.shape[0])
    degree = w_tilde.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(degree)
    # outer product keeps the result exactly symmetric
    return w_tilde * np.outer(inv_sqrt, inv_sqrt)


@dataclass(frozen=True)
class GraphSet:
    """The four raw adjacency matrices and their normalized forms."""

    topological: np.ndarray
    weighted: np.ndarray
    pattern: np.ndarray
    attribute: np.ndarray
    # (graphs, roads, roads) in GRAPH_KEYS order, as the model reads them
    normalized: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "normalized", np.stack(
            [normalize_adjacency(self.raw(key)) for key in GRAPH_KEYS]))

    def raw(self, key: str) -> np.ndarray:
        return getattr(self, key)

    @classmethod
    def build(cls, net: RoadNetwork, history: TrafficSeries,
              window: tuple[int, int], alpha_speed: float, alpha_flow: float,
              pattern_hours: int) -> "GraphSet":
        return cls(
            topological=build_topological(net),
            weighted=build_weighted_topological(net),
            pattern=build_pattern_graph(history, alpha_speed, alpha_flow,
                                        window, pattern_hours),
            attribute=build_attribute_graph(history, net, window),
        )


# -- spatial autocorrelation ----------------------------------------------------


def global_morans_i(x, conn: np.ndarray) -> float:
    """Global spatial autocorrelation of a per-road field over the 0/1
    connectivity matrix `conn`."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    s0 = float(conn.sum())
    if s0 == 0.0:
        raise DegenerateVarianceError("network has no connections")
    dev = x - x.mean()
    denom = float(dev @ dev)
    if denom == 0.0:
        raise DegenerateVarianceError("field is constant across roads")
    numer = float(dev @ conn @ dev)
    return (n / s0) * numer / denom


def local_morans_i(x, conn: np.ndarray) -> np.ndarray:
    """Per-road local autocorrelation (zero for isolated roads)."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    dev = x - x.mean()
    mean_sq_dev = float(dev @ dev) / n
    if mean_sq_dev == 0.0:
        raise DegenerateVarianceError("field is constant across roads")
    return dev * (conn @ dev) / (mean_sq_dev ** 2)


# -- file formats ----------------------------------------------------------------

_ROAD_HEADER = ["road_id", "length"]
_EDGE_HEADER = ["road_a", "road_b"]


def write_network_csv(path, net: RoadNetwork, road_ids: list[str]) -> None:
    """Single-file network description: road rows, then an edge section."""
    write_table(path, _ROAD_HEADER,
                [*zip(road_ids, net.lengths.tolist()), _EDGE_HEADER,
                 *([road_ids[a], road_ids[b]] for a, b in net.edges)])


def read_network_csv(path) -> tuple[RoadNetwork, list[str]]:
    """The network and its road ids, sorted by id, whatever the row order."""
    lengths: dict[str, float] = {}
    edges: list[tuple[str, str]] = []
    section = "roads"
    rows = list(read_csv_rows(path))
    if not rows or rows[0] != _ROAD_HEADER:
        raise DataError(f"{path}:1: expected header {','.join(_ROAD_HEADER)}")
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if row == _EDGE_HEADER:
            section = "edges"
            continue
        if section == "roads":
            if len(row) != 2:
                raise DataError(f"{path}:{lineno}: expected road_id,length")
            rid, raw_len = row
            if rid in lengths:
                raise DataError(f"{path}:{lineno}: duplicate road id {rid!r}")
            try:
                lengths[rid] = float(raw_len)
            except ValueError:
                raise DataError(
                    f"{path}:{lineno}: bad length {raw_len!r}") from None
        else:
            if len(row) != 2:
                raise DataError(f"{path}:{lineno}: expected road_a,road_b")
            unknown = [rid for rid in row if rid not in lengths]
            if unknown:
                raise DataError(
                    f"{path}:{lineno}: unknown road id {unknown[0]!r}")
            edges.append((row[0], row[1]))
    if not lengths:
        raise DataError(f"{path}: no roads defined")
    road_ids = sorted(lengths)
    index = {rid: i for i, rid in enumerate(road_ids)}
    try:
        net = RoadNetwork(np.array([lengths[rid] for rid in road_ids]),
                          tuple((index[a], index[b]) for a, b in edges))
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    return net, road_ids


def write_adjacency_csv(path, matrix: np.ndarray, road_ids: list[str]) -> None:
    """N x N adjacency as CSV with a road-identifier header row."""
    write_table(path, road_ids, np.asarray(matrix, dtype=np.float64).tolist())


def read_adjacency_csv(path) -> tuple[np.ndarray, list[str]]:
    rows = list(read_csv_rows(path))
    if not rows:
        raise DataError(f"{path}: empty adjacency file")
    road_ids = rows[0]
    n = len(road_ids)
    if len(rows) != n + 1:
        raise DataError(f"{path}: expected {n} data rows, got {len(rows) - 1}")
    try:
        matrix = np.array([[float(v) for v in row] for row in rows[1:]])
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    if matrix.shape != (n, n):
        raise DataError(f"{path}: ragged adjacency rows")
    if not (np.all(np.isfinite(matrix)) and np.all(matrix >= 0)
            and np.all(np.diag(matrix) == 0)
            and np.allclose(matrix, matrix.T, rtol=0.0, atol=1e-12)):
        raise DataError(f"{path}: adjacency must be finite, non-negative, "
                        "symmetric and zero on the diagonal")
    return matrix, road_ids
