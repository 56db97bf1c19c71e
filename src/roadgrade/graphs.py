"""Road graphs: four adjacency constructions, normalization, spatial statistics.

A road network is an undirected graph whose nodes are roads.  Four pairwise
similarity matrices are built from it: reciprocal hop distance, length-weighted
hop distance, historical-pattern similarity (DTW kernel on speed/flow
histories), and inherent-attribute similarity (daily max flow/speed plus
length).  Each raw matrix is symmetric with zero diagonal; graph convolution
consumes the self-loop-augmented symmetric normalization.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .data import TrafficSeries, read_csv_rows
from .errors import DataError, DegenerateVarianceError

GRAPH_KEYS = ("topological", "weighted", "pattern", "attribute")

# short letters used in combination labels and report files
GRAPH_LETTERS = {"topological": "r", "weighted": "w", "pattern": "p",
                 "attribute": "s"}


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
        if not np.all(np.isfinite(lengths) & (lengths > 0)):
            raise ValueError("road lengths must be finite and positive")
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
    w = np.triu((lengths[:, None] + lengths) / net.paths[1], k=1)
    return w + w.T


# -- dynamic time warping ------------------------------------------------------


def dtw_distance(a, b) -> float:
    """Classic DTW with |a_i - b_j| step cost and unit moves."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("DTW sequences must be non-empty")
    n, m = a.size, b.size
    table = np.full((n + 1, m + 1), np.inf)
    table[0, 0] = 0.0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = abs(a[i - 1] - b[j - 1])
            table[i, j] = cost + min(table[i - 1, j], table[i, j - 1],
                                     table[i - 1, j - 1])
    return float(table[n, m])


def _dtw_workspace(length: int, rows: int) -> list[np.ndarray]:
    """The working arrays of `_pairwise_dtw` for up to `rows` rows of
    `length`: first, second, prev, cur, cost and best."""
    return [np.empty((length + extra, rows)) for extra in (0, 0, 1, 1, 0, 0)]


def _pairwise_dtw(seqs: np.ndarray,
                  workspace: list[np.ndarray] | None = None) -> np.ndarray:
    """DTW distance between every pair of rows of `seqs`: (..., N, L) to
    (..., N, N), zero on the diagonal.

    One dynamic program over all unordered pairs of every leading index at
    once.  It is laid out (L + 1, rows), so each step works on contiguous
    rows, and uses only abs, min and +, so it agrees exactly with
    dtw_distance on each pair.  A given `workspace` lets repeated calls
    reuse their working memory; the result does not depend on it.
    """
    *batch, n, length = seqs.shape
    out = np.zeros((*batch, n, n))
    if n < 2:
        return out
    ii, jj = np.triu_indices(n, k=1)
    rows = ii.size * int(np.prod(batch))
    if workspace is None:
        workspace = _dtw_workspace(length, rows)
    # (L, rows): step r of the first sequence and every step of the second;
    # (L + 1, rows): the previous and the current row of the DP table.
    # Fewer rows than the workspace holds use the front of each array.
    first, second, prev, cur, cost, best = (
        array.ravel()[:array.shape[0] * rows].reshape(-1, rows)
        for array in workspace)
    steps = np.moveaxis(seqs, -1, 0)                # (L, ..., N)
    for target, index in ((first, ii), (second, jj)):
        # mode "clip" fills `out` directly; "raise" fills a copy of it
        np.take(steps, index, axis=-1, mode="clip",
                out=target.reshape(length, *batch, ii.size))
    prev[0] = 0.0
    prev[1:] = np.inf
    for r in range(length):
        np.abs(np.subtract(first[r], second, out=cost), out=cost)
        # the moves from the previous row need no loop, only the one along
        # the current row does
        np.minimum(prev[1:], prev[:-1], out=best)
        cur[0] = np.inf
        for c in range(length):
            np.minimum(best[c], cur[c], out=best[c])
            np.add(cost[c], best[c], out=cur[c + 1])
        prev, cur = cur, prev
    dist = prev[length].reshape(*batch, ii.size)
    out[..., ii, jj] = dist
    out[..., jj, ii] = dist
    return out


# Rows, one per (road pair, anchor, channel), of one _pairwise_dtw call in
# build_pattern_graph (but at least one anchor's rows): a few MB of working
# set.  Fewer rows pay more numpy call overhead per cell; far more run slower
# and cost memory.
DTW_CHUNK_ROWS = 8192


def build_pattern_graph(history: TrafficSeries, alpha_speed: float,
                        alpha_flow: float, window: tuple[int, int],
                        pattern_hours: int = 24) -> np.ndarray:
    """Historical-pattern similarity via an exponential kernel on DTW distance.

    For every hourly anchor in `window` whose trailing `pattern_hours` history
    fits inside the window, the speed and flow histories of each road pair are
    compared with DTW; exp(-alpha_c * dist) is averaged over the two channels
    and then over anchors.  Diagonal forced to zero.
    """
    if alpha_speed <= 0 or alpha_flow <= 0:
        raise ValueError("attenuation rates must be positive")
    start, stop = _check_window(history, window)
    n_anchors = stop - start - pattern_hours + 1
    if n_anchors <= 0:
        raise DataError(
            f"window of {stop - start} h is shorter than the "
            f"{pattern_hours} h pattern length")
    n = history.n
    # (anchors, channels, roads, pattern_hours): the trailing history of
    # every anchor, a view on the series
    histories = np.lib.stride_tricks.sliding_window_view(
        history.values[:, start:stop, :], pattern_hours, axis=1
    ).transpose(1, 2, 0, 3)
    neg_alphas = -np.array([alpha_speed, alpha_flow])[:, None, None]
    rows_per_anchor = max(1, len(neg_alphas) * n * (n - 1) // 2)
    step = max(1, DTW_CHUNK_ROWS // rows_per_anchor)
    workspace = _dtw_workspace(pattern_hours,
                               min(step, n_anchors) * rows_per_anchor)
    total = np.zeros((n, n))
    for lo in range(0, n_anchors, step):
        kernels = np.exp(neg_alphas * _pairwise_dtw(histories[lo:lo + step],
                                                    workspace))
        # anchor by anchor, speed + flow, as a per-anchor loop would add
        for speed, flow in kernels:
            total += (speed + flow) / len(neg_alphas)
    w = total / n_anchors
    np.fill_diagonal(w, 0.0)
    return w


def build_attribute_graph(history: TrafficSeries, net: RoadNetwork,
                          window: tuple[int, int]) -> np.ndarray:
    """Inherent-attribute similarity from daily max flow/speed and length.

    Per complete day in the window each road gets the vector
    [max flow, max speed, length] with the first two min-max normalized
    across roads; similarity is exp(-squared distance), averaged over days.
    """
    start, stop = _check_window(history, window)
    n_days = (stop - start) // 24
    if n_days == 0:
        raise DataError("window contains no complete day")
    n = history.n
    if net.n != n:
        raise ValueError("network and series road counts differ")
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
        total += np.exp(-(diff ** 2).sum(axis=2))
    w = total / n_days
    np.fill_diagonal(w, 0.0)
    return w


def _minmax_across_roads(values: np.ndarray) -> np.ndarray:
    lo, hi = values.min(), values.max()
    if hi == lo:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


def _check_window(history: TrafficSeries, window) -> tuple[int, int]:
    start, stop = int(window[0]), int(window[1])
    if not (0 <= start < stop <= history.t):
        raise ValueError(f"window [{start}, {stop}) outside series of "
                         f"length {history.t}")
    return start, stop


# -- normalization -------------------------------------------------------------


def normalize_adjacency(w: np.ndarray) -> np.ndarray:
    """Self-loop-augmented symmetric normalization D^-1/2 (W+I) D^-1/2."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("adjacency must be square")
    if not np.allclose(w, w.T, rtol=0.0, atol=1e-12):
        raise ValueError("adjacency must be symmetric")
    if np.any(w < 0):
        raise ValueError("adjacency entries must be non-negative")
    w_tilde = w + np.eye(w.shape[0])
    degree = w_tilde.sum(axis=1)
    if np.any(degree <= 0):
        raise ValueError("zero degree after self-loop augmentation")
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
              window: tuple[int, int], alpha_speed: float = 1e-2,
              alpha_flow: float = 1e-4, pattern_hours: int = 24) -> "GraphSet":
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
    if n < 2 or n != conn.shape[0]:
        raise ValueError("need >= 2 roads matching the connectivity matrix")
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
    if n < 2 or n != conn.shape[0]:
        raise ValueError("need >= 2 roads matching the connectivity matrix")
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_ROAD_HEADER)
        for rid, length in zip(road_ids, net.lengths):
            writer.writerow([rid, repr(float(length))])
        writer.writerow(_EDGE_HEADER)
        for a, b in net.edges:
            writer.writerow([road_ids[a], road_ids[b]])


def read_network_csv(path) -> tuple[RoadNetwork, list[str]]:
    road_ids: list[str] = []
    lengths: list[float] = []
    edges: list[tuple[int, int]] = []
    index: dict[str, int] = {}
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
            if rid in index:
                raise DataError(f"{path}:{lineno}: duplicate road id {rid!r}")
            try:
                length = float(raw_len)
            except ValueError:
                raise DataError(
                    f"{path}:{lineno}: bad length {raw_len!r}") from None
            index[rid] = len(road_ids)
            road_ids.append(rid)
            lengths.append(length)
        else:
            if len(row) != 2:
                raise DataError(f"{path}:{lineno}: expected road_a,road_b")
            try:
                edges.append((index[row[0]], index[row[1]]))
            except KeyError as exc:
                raise DataError(
                    f"{path}:{lineno}: unknown road id {exc.args[0]!r}"
                ) from None
    if not road_ids:
        raise DataError(f"{path}: no roads defined")
    try:
        net = RoadNetwork(np.array(lengths), tuple(edges))
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    return net, road_ids


def write_adjacency_csv(path, matrix: np.ndarray, road_ids: list[str]) -> None:
    """N x N adjacency as CSV with a road-identifier header row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(road_ids)
        for row in np.asarray(matrix):
            writer.writerow([repr(float(v)) for v in row])


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
