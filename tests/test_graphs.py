"""Graph construction against independent oracles, plus spatial statistics."""

import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadgrade import graphs
from roadgrade.data import TrafficSeries
from roadgrade.errors import DataError, DegenerateVarianceError
from roadgrade.graphs import (GRAPH_KEYS, GraphSet, RoadNetwork,
                              _pairwise_dtw, build_attribute_graph,
                              build_pattern_graph, build_topological,
                              build_weighted_topological, dtw_distance,
                              global_morans_i, local_morans_i,
                              normalize_adjacency, read_adjacency_csv,
                              read_network_csv, shortest_paths,
                              write_adjacency_csv, write_network_csv)
from roadgrade.synth import DEFAULT_START


# -- oracles ------------------------------------------------------------------


def floyd_warshall_hops(n, edges):
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for a, b in edges:
        d[a, b] = d[b, a] = 1.0
    for k in range(n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d


def enumerate_alignments(n, m):
    """Every monotone lattice path from (0, 0) to (n-1, m-1)."""

    def walk(i, j, path):
        path = path + [(i, j)]
        if i == n - 1 and j == m - 1:
            yield path
            return
        if i + 1 < n:
            yield from walk(i + 1, j, path)
        if j + 1 < m:
            yield from walk(i, j + 1, path)
        if i + 1 < n and j + 1 < m:
            yield from walk(i + 1, j + 1, path)

    yield from walk(0, 0, [])


def dtw_by_enumeration(a, b):
    return min(sum(abs(a[i] - b[j]) for i, j in path)
               for path in enumerate_alignments(len(a), len(b)))


def simple_paths(net, source, target):
    """All simple paths between two roads (small graphs only)."""
    adjacency = [np.flatnonzero(row).tolist() for row in net.connectivity()]
    stack = [(source, [source])]
    while stack:
        node, path = stack.pop()
        if node == target:
            yield path
            continue
        for nxt in adjacency[node]:
            if nxt not in path:
                stack.append((nxt, path + [nxt]))


def weighted_topological_by_enumeration(net):
    n = net.n
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            paths = list(simple_paths(net, i, j))
            if not paths:
                continue
            fewest = min(len(p) for p in paths)
            best = min(sum(net.lengths[v] for v in p)
                       for p in paths if len(p) == fewest)
            w[i, j] = w[j, i] = (net.lengths[i] + net.lengths[j]) / best
    return w


def hop_graphs_per_source(net):
    """Both hop graphs road by road: a queue-based BFS from each source,
    then per target the least path length over the hop-shortest paths."""
    n = net.n
    neighbors = [[] for _ in range(n)]
    for a, b in net.edges:
        neighbors[a].append(b)
        neighbors[b].append(a)
    hops = np.full((n, n), np.inf)
    for source in range(n):
        hops[source, source] = 0.0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in sorted(neighbors[u]):
                if np.isinf(hops[source, v]):
                    hops[source, v] = hops[source, u] + 1.0
                    queue.append(v)
    with np.errstate(divide="ignore"):
        topological = np.where(np.isfinite(hops) & (hops > 0), 1.0 / hops,
                               0.0)
    weighted = np.zeros((n, n))
    for i in range(n):
        best = np.full(n, np.inf)
        best[i] = net.lengths[i]
        reached = np.flatnonzero(np.isfinite(hops[i]))
        for v in sorted(reached, key=lambda v: hops[i, v]):
            if v != i:
                best[v] = net.lengths[v] + min(
                    best[u] for u in neighbors[v]
                    if hops[i, u] == hops[i, v] - 1)
        for j in range(i + 1, n):
            if np.isfinite(best[j]):
                weighted[i, j] = weighted[j, i] = (
                    (net.lengths[i] + net.lengths[j]) / best[j])
    return topological, weighted


def random_network(rng, n, extra_edges=2):
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    for _ in range(extra_edges):
        a, b = rng.choice(n, size=2, replace=False)
        edges.append((int(a), int(b)))
    return RoadNetwork(rng.uniform(0.5, 5.0, n), tuple(edges))


def constant_series(values):
    return TrafficSeries(np.asarray(values, dtype=float), DEFAULT_START)


def pattern_graph_per_anchor(history, alpha_speed, alpha_flow, window,
                             pattern_hours):
    """build_pattern_graph one anchor and one channel at a time."""
    start, stop = window
    n = history.n
    anchors = range(start + pattern_hours - 1, stop)
    total = np.zeros((n, n))
    for t in anchors:
        per_anchor = np.zeros((n, n))
        for channel, alpha in enumerate((alpha_speed, alpha_flow)):
            seqs = history.values[:, t - pattern_hours + 1:t + 1, channel]
            per_anchor += np.exp(-alpha * _pairwise_dtw(seqs))
        total += per_anchor / 2
    w = total / len(anchors)
    np.fill_diagonal(w, 0.0)
    return w


# -- road network validation -----------------------------------------------------


class TestRoadNetwork:
    def test_rejects_self_edges(self):
        with pytest.raises(ValueError):
            RoadNetwork(np.ones(3), ((1, 1),))

    def test_rejects_out_of_range_edges(self):
        with pytest.raises(ValueError):
            RoadNetwork(np.ones(3), ((0, 3),))

    def test_rejects_nonpositive_lengths(self):
        for bad in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                RoadNetwork(np.array([1.0, bad]), ((0, 1),))

    def test_edges_canonicalized(self):
        net = RoadNetwork(np.ones(3), ((2, 0), (0, 2), (1, 0)))
        assert net.edges == ((0, 1), (0, 2))


# -- hop distances ---------------------------------------------------------------


class TestShortestHops:
    def test_two_hop_path(self):
        net = RoadNetwork(np.ones(3), ((0, 1), (1, 2)))
        hops = shortest_paths(net)[0]
        assert hops[0, 2] == 2
        assert hops[0, 1] == 1

    def test_single_road(self):
        net = RoadNetwork(np.ones(1), ())
        assert shortest_paths(net)[0].tolist() == [[0.0]]

    def test_matches_floyd_warshall_on_random_graphs(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            net = random_network(rng, 10)
            expected = floyd_warshall_hops(net.n, net.edges)
            np.testing.assert_array_equal(shortest_paths(net)[0], expected)

    def test_symmetry_zero_diagonal_triangle_inequality(self):
        rng = np.random.default_rng(42)
        net = random_network(rng, 12, extra_edges=4)
        hops = shortest_paths(net)[0]
        np.testing.assert_array_equal(hops, hops.T)
        assert np.all(np.diag(hops) == 0)
        finite = np.isfinite(hops)
        for i, j, k in itertools.product(range(net.n), repeat=3):
            if finite[i, k] and finite[k, j]:
                assert hops[i, j] <= hops[i, k] + hops[k, j]


class TestTopological:
    def test_path_reciprocals(self):
        net = RoadNetwork(np.ones(3), ((0, 1), (1, 2)))
        w = build_topological(net)
        assert w[0, 1] == 1.0
        assert w[0, 2] == 0.5
        assert np.all(np.diag(w) == 0)

    def test_disconnected_pair_is_zero(self):
        net = RoadNetwork(np.ones(4), ((0, 1), (2, 3)))
        w = build_topological(net)
        assert w[0, 2] == 0.0
        assert w[1, 3] == 0.0

    def test_complete_graph_all_ones(self):
        net = RoadNetwork(np.ones(3), ((0, 1), (0, 2), (1, 2)))
        w = build_topological(net)
        off = w[~np.eye(3, dtype=bool)]
        assert np.all(off == 1.0)


class TestWeightedTopological:
    def test_adjacent_roads_get_one(self):
        net = RoadNetwork(np.array([2.0, 7.0]), ((0, 1),))
        w = build_weighted_topological(net)
        assert w[0, 1] == pytest.approx(1.0)

    def test_hand_three_road_path(self):
        net = RoadNetwork(np.array([2.0, 4.0, 6.0]), ((0, 1), (1, 2)))
        w = build_weighted_topological(net)
        assert w[0, 2] == pytest.approx((2 + 6) / (2 + 4 + 6))

    def test_disconnected_pair_is_zero(self):
        net = RoadNetwork(np.ones(4), ((0, 1), (2, 3)))
        assert build_weighted_topological(net)[0, 3] == 0.0

    def test_matches_path_enumeration_oracle(self):
        for seed in range(15):
            rng = np.random.default_rng(seed)
            net = random_network(rng, 7)
            np.testing.assert_allclose(
                build_weighted_topological(net),
                weighted_topological_by_enumeration(net), atol=1e-12)

    def test_range(self):
        rng = np.random.default_rng(5)
        net = random_network(rng, 9, extra_edges=3)
        w = build_weighted_topological(net)
        off = w[~np.eye(net.n, dtype=bool)]
        assert np.all(off > 0) and np.all(off <= 1.0)


class TestHopGraphsAgainstPerSourceBfs:
    def test_bitwise_equal(self):
        rng = np.random.default_rng(21)
        nets = [RoadNetwork(np.array([3.0]), ())]
        for _ in range(25):
            n = int(rng.integers(2, 16))
            nets.append(random_network(rng, n, extra_edges=3))
            # fewer than n - 1 edges: never connected
            edges = [tuple(rng.choice(n, size=2, replace=False).tolist())
                     for _ in range(int(rng.integers(0, n - 1)))]
            nets.append(RoadNetwork(rng.uniform(0.5, 5.0, n), tuple(edges)))
        for net in nets:
            topological, weighted = hop_graphs_per_source(net)
            assert build_topological(net).tobytes() == topological.tobytes()
            assert (build_weighted_topological(net).tobytes()
                    == weighted.tobytes())


# -- DTW ---------------------------------------------------------------------------


class TestDtw:
    def test_identical_sequences(self):
        assert dtw_distance([1, 2, 3], [1, 2, 3]) == 0.0

    def test_single_cell(self):
        assert dtw_distance([0.0], [5.0]) == 5.0

    def test_shifted_ramp(self):
        assert dtw_distance([1, 2, 3], [2, 3, 4]) == 2.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            dtw_distance([], [1.0])

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=5), rng.normal(size=7)
        assert dtw_distance(a, b) == pytest.approx(dtw_distance(b, a))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=6),
           st.lists(st.floats(-10, 10), min_size=1, max_size=6))
    def test_exact_agreement_with_enumeration(self, a, b):
        assert dtw_distance(a, b) == pytest.approx(
            dtw_by_enumeration(a, b), abs=1e-12)

    def test_pairwise_matches_scalar(self):
        rng = np.random.default_rng(1)
        seqs = rng.normal(size=(6, 9))
        batch = _pairwise_dtw(seqs)
        for i in range(6):
            for j in range(6):
                expected = 0.0 if i == j else dtw_distance(seqs[i], seqs[j])
                assert batch[i, j] == pytest.approx(expected, abs=1e-12)

    def test_pairwise_batched_equals_per_slice_and_scalar(self):
        rng = np.random.default_rng(3)
        seqs = rng.normal(size=(2, 3, 5, 7))
        batch = _pairwise_dtw(seqs)
        assert batch.shape == (2, 3, 5, 5)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(batch[idx], _pairwise_dtw(seqs[idx]))
            for i, j in itertools.combinations(range(5), 2):
                expected = dtw_distance(seqs[idx][i], seqs[idx][j])
                assert batch[idx][i, j] == expected
                assert batch[idx][j, i] == expected

    def test_pairwise_reused_workspace_is_bitwise_fresh(self):
        # a workspace sized for the first call and full of NaN, then reused
        # by a call with fewer rows, as by the last chunk of a pattern graph
        rng = np.random.default_rng(4)
        seqs = rng.normal(size=(3, 2, 5, 6))
        workspace = graphs._dtw_workspace(6, 3 * 2 * 10)
        for array in workspace:
            array.fill(np.nan)
        for chunk in (seqs, seqs[1:2], seqs[:, :, ::-1], seqs[:1, :1]):
            assert np.array_equal(_pairwise_dtw(chunk, workspace),
                                  _pairwise_dtw(chunk))

    def test_pairwise_single_sequence_is_zero(self):
        assert np.array_equal(_pairwise_dtw(np.ones((4, 1, 3))),
                              np.zeros((4, 1, 1)))


# -- pattern graph ------------------------------------------------------------------


class TestPatternGraph:
    @pytest.mark.parametrize("chunk_rows", [1, 3, 40, None])
    @pytest.mark.parametrize("n, pattern_hours",
                             [(1, 3), (2, 4), (2, 1), (4, 5)])
    def test_bitwise_equal_to_per_anchor_loop(self, monkeypatch, chunk_rows,
                                              n, pattern_hours):
        # DP calls of one anchor (1 and 3 rows), of several anchors with a
        # shorter last call (40 rows: 20 anchors of 2 roads, 3 of 4 roads),
        # and of the default size
        if chunk_rows is not None:
            monkeypatch.setattr(graphs, "DTW_CHUNK_ROWS", chunk_rows)
        rng = np.random.default_rng(n + 10 * pattern_hours)
        series = constant_series(rng.uniform(1, 300, size=(n, 60, 2)))
        args = (series, 1e-2, 1e-4, (2, 59), pattern_hours)
        assert np.array_equal(build_pattern_graph(*args),
                              pattern_graph_per_anchor(*args))

    def test_identical_histories_give_one(self):
        values = np.zeros((3, 30, 2))
        values[:, :, 0] = np.sin(np.arange(30)) * 10 + 50
        values[:, :, 1] = 200.0
        series = constant_series(values)
        w = build_pattern_graph(series, 1e-2, 1e-4, (0, 30))
        assert w[0, 1] == pytest.approx(1.0)
        assert w[0, 0] == 0.0

    def test_known_kernel_value(self):
        # distance 100 in both channels, both rates 1e-2, one anchor
        values = np.zeros((2, 1, 2))
        values[1, 0, :] = 100.0
        series = constant_series(values)
        w = build_pattern_graph(series, 1e-2, 1e-2, (0, 1), pattern_hours=1)
        assert w[0, 1] == pytest.approx(np.exp(-1.0))

    def test_planted_shared_pattern_orders_similarity(self):
        hours = np.arange(24 * 7)
        shared = 50 + 10 * np.sin(2 * np.pi * hours / 24)
        other = 50 + 10 * np.sin(2 * np.pi * hours / 24 + np.pi)
        values = np.zeros((3, hours.size, 2))
        values[0, :, 0] = shared
        values[1, :, 0] = shared + 0.5
        values[2, :, 0] = other
        values[:, :, 1] = 300.0
        series = constant_series(values)
        w = build_pattern_graph(series, 1e-2, 1e-4, (0, hours.size))
        assert w[0, 1] > w[0, 2]

    def test_window_too_short(self):
        series = constant_series(np.ones((2, 10, 2)))
        with pytest.raises(DataError):
            build_pattern_graph(series, 1e-2, 1e-4, (0, 10),
                                pattern_hours=24)

    def test_monotone_in_distance(self):
        # three flat roads at increasing offsets from road 0
        values = np.zeros((3, 5, 2))
        values[1, :, :] = 10.0
        values[2, :, :] = 20.0
        series = constant_series(values)
        w = build_pattern_graph(series, 1e-2, 1e-2, (0, 5), pattern_hours=5)
        assert w[0, 1] > w[0, 2]

    def test_range_and_symmetry(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(1, 100, size=(4, 48, 2))
        series = constant_series(values)
        w = build_pattern_graph(series, 1e-2, 1e-4, (0, 48))
        np.testing.assert_array_equal(w, w.T)
        off = w[~np.eye(4, dtype=bool)]
        assert np.all(off > 0) and np.all(off <= 1.0)


# -- attribute graph -----------------------------------------------------------------


class TestAttributeGraph:
    def test_identical_attributes_give_one(self):
        rng = np.random.default_rng(3)
        day = rng.uniform(10, 60, size=(1, 24, 2))
        values = np.repeat(day, 3, axis=0)
        # different daily profiles on roads would change maxima; keep equal
        series = constant_series(values)
        net = RoadNetwork(np.full(3, 2.5), ((0, 1), (1, 2)))
        w = build_attribute_graph(series, net, (0, 24))
        assert w[0, 1] == pytest.approx(1.0)
        assert w[0, 0] == 0.0

    def test_unit_normalized_difference(self):
        # flows normalize to exactly 0 and 1, speeds and lengths equal
        values = np.zeros((2, 24, 2))
        values[:, :, 0] = 30.0
        values[0, :, 1] = 100.0
        values[1, :, 1] = 900.0
        series = constant_series(values)
        net = RoadNetwork(np.array([3.0, 3.0]), ((0, 1),))
        w = build_attribute_graph(series, net, (0, 24))
        assert w[0, 1] == pytest.approx(np.exp(-1.0))

    def test_three_roads_match_hand_computation(self):
        values = np.zeros((3, 24, 2))
        values[:, 0, 0] = [20.0, 40.0, 60.0]      # max speeds
        values[:, 0, 1] = [100.0, 300.0, 500.0]   # max flows
        series = constant_series(values)
        lengths = np.array([1.0, 2.0, 4.0])
        net = RoadNetwork(lengths, ((0, 1), (1, 2)))
        w = build_attribute_graph(series, net, (0, 24))
        flow_n = np.array([0.0, 0.5, 1.0])
        speed_n = np.array([0.0, 0.5, 1.0])
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                dist = ((flow_n[i] - flow_n[j]) ** 2
                        + (speed_n[i] - speed_n[j]) ** 2
                        + (lengths[i] - lengths[j]) ** 2)
                assert w[i, j] == pytest.approx(np.exp(-dist))

    def test_requires_full_day(self):
        series = constant_series(np.ones((2, 20, 2)))
        net = RoadNetwork(np.ones(2), ((0, 1),))
        with pytest.raises(DataError):
            build_attribute_graph(series, net, (0, 20))


# -- normalization --------------------------------------------------------------------


def power_iteration_radius(matrix, iters=200):
    vec = np.ones(matrix.shape[0]) / np.sqrt(matrix.shape[0])
    for _ in range(iters):
        nxt = matrix @ vec
        norm = np.linalg.norm(nxt)
        if norm == 0:
            return 0.0
        vec = nxt / norm
    return float(np.abs(vec @ matrix @ vec))


class TestNormalizeAdjacency:
    def test_zero_matrix_becomes_identity(self):
        np.testing.assert_array_equal(normalize_adjacency(np.zeros((2, 2))),
                                      np.eye(2))

    def test_single_edge_pair(self):
        out = normalize_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(out, np.full((2, 2), 0.5), atol=1e-15)

    def test_output_exactly_symmetric(self):
        rng = np.random.default_rng(7)
        w = rng.uniform(0, 1, size=(8, 8))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.0)
        out = normalize_adjacency(w)
        assert np.array_equal(out, out.T)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 30), st.integers(0, 2 ** 31 - 1))
    def test_spectral_radius_at_most_one(self, n, seed):
        rng = np.random.default_rng(seed)
        w = rng.uniform(0, 2, size=(n, n)) * (rng.random((n, n)) < 0.4)
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.0)
        radius = power_iteration_radius(normalize_adjacency(w))
        assert radius <= 1.0 + 1e-9

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            normalize_adjacency(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValueError):
            normalize_adjacency(-np.eye(2))
        with pytest.raises(ValueError):
            normalize_adjacency(np.zeros((2, 3)))


# -- Moran statistics -------------------------------------------------------------------


class TestMorans:
    def test_two_node_antithetic_field(self):
        conn = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert global_morans_i([1.0, -1.0], conn) == pytest.approx(-1.0,
                                                                   abs=1e-9)

    def test_clustered_path_of_four(self):
        net = RoadNetwork(np.ones(4), ((0, 1), (1, 2), (2, 3)))
        conn = net.connectivity()
        assert conn.sum() == 6
        value = global_morans_i([1.0, 1.0, -1.0, -1.0], conn)
        assert value == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_constant_field_rejected(self):
        conn = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(DegenerateVarianceError):
            global_morans_i([2.0, 2.0], conn)
        with pytest.raises(DegenerateVarianceError):
            local_morans_i([2.0, 2.0], conn)

    def test_no_connections_rejected(self):
        conn = np.zeros((2, 2))
        with pytest.raises(DegenerateVarianceError):
            global_morans_i([1.0, -1.0], conn)

    def test_local_two_node_case(self):
        # mean 0, mean squared deviation 1, each road's neighbor opposes it
        conn = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(local_morans_i([1.0, -1.0], conn),
                                   [-1.0, -1.0], atol=1e-12)

    def test_local_isolated_node_is_zero(self):
        conn = np.array([
            [0.0, 1.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0]])
        values = local_morans_i([1.0, -1.0, 5.0], conn)
        assert values[2] == 0.0

    def test_local_path_of_four_hand_values(self):
        # x = [1, 1, -1, -1]: ends reinforce their neighbor, middles cancel
        net = RoadNetwork(np.ones(4), ((0, 1), (1, 2), (2, 3)))
        conn = net.connectivity()
        np.testing.assert_allclose(
            local_morans_i([1.0, 1.0, -1.0, -1.0], conn),
            [1.0, 0.0, 0.0, 1.0], atol=1e-12)


# -- whole graph set + files --------------------------------------------------------------


class TestGraphSetAndFiles:
    def test_raw_matrices_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(11)
        net = random_network(rng, 6)
        values = rng.uniform(5, 90, size=(6, 24 * 8, 2))
        series = constant_series(values)
        graph_set = GraphSet.build(net, series, (0, 24 * 8))
        for key in ("topological", "weighted", "pattern", "attribute"):
            raw = graph_set.raw(key)
            np.testing.assert_array_equal(raw, raw.T)
            assert np.all(np.diag(raw) == 0)
            norm = graph_set.normalized[GRAPH_KEYS.index(key)]
            assert np.array_equal(norm, norm.T)
            assert power_iteration_radius(norm) <= 1.0 + 1e-9

    def test_build_runs_one_shortest_path_pass(self, monkeypatch):
        rng = np.random.default_rng(14)
        net = random_network(rng, 6)
        series = constant_series(rng.uniform(5, 90, size=(6, 24 * 8, 2)))
        calls = []

        def counted(network):
            calls.append(network)
            return shortest_paths(network)

        monkeypatch.setattr(graphs, "shortest_paths", counted)
        graph_set = GraphSet.build(net, series, (0, 24 * 8))
        assert calls == [net]
        hops, path_lengths = shortest_paths(net)
        with np.errstate(divide="ignore"):
            expected = 1.0 / hops
        np.fill_diagonal(expected, 0.0)
        assert np.array_equal(graph_set.topological, expected)
        ratio = (net.lengths[:, None] + net.lengths) / path_lengths
        upper = np.triu(ratio, k=1)
        assert np.array_equal(graph_set.weighted, upper + upper.T)

    def test_network_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        net = random_network(rng, 5)
        ids = [f"R{i:03d}" for i in range(5)]
        path = tmp_path / "network.csv"
        write_network_csv(path, net, ids)
        loaded, loaded_ids = read_network_csv(path)
        assert loaded_ids == ids
        np.testing.assert_array_equal(loaded.lengths, net.lengths)
        assert loaded.edges == net.edges

    def test_network_csv_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("road_id,length\nR0,1.0\nR0,2.0\n")
        with pytest.raises(DataError, match=":3"):
            read_network_csv(path)
        path.write_text("road_id,length\nR0,abc\n")
        with pytest.raises(DataError, match=":2"):
            read_network_csv(path)
        path.write_text("road_id,length\nR0,1.0\nroad_a,road_b\nR0,R9\n")
        with pytest.raises(DataError, match=":4"):
            read_network_csv(path)

    def test_adjacency_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        net = random_network(rng, 4)
        w = build_topological(net)
        ids = ["a", "b", "c", "d"]
        path = tmp_path / "adj.csv"
        write_adjacency_csv(path, w, ids)
        loaded, loaded_ids = read_adjacency_csv(path)
        assert loaded_ids == ids
        np.testing.assert_array_equal(loaded, w)
