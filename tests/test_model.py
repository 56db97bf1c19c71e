"""Network operators against hand oracles, training behavior, checkpoints."""

import json
import math

import numpy as np
import pytest

from conftest import ToySetup, random_symmetric, toy_config
from roadgrade import model
from roadgrade.data import Samples
from roadgrade.errors import DataError
from roadgrade.graphs import GraphSet, RoadNetwork, normalize_adjacency, \
    shortest_paths
from roadgrade.model import (build_combinations, channel_fuse,
                             fc_head, forward, highdim_attention, init_state,
                             load_checkpoint, nll_loss, predict_many,
                             save_checkpoint, shared_gcn_layer,
                             temporal_attention, train)
from roadgrade.tensor import Tensor, grad_check, softmax


def _channels(z_speed, z_flow):
    """(1, 2, 1, roads, f): one sample, both channels, shared by all graphs."""
    return Tensor(np.stack([z_speed, z_flow])[None, :, None])


def _fuse(z_speed, z_flow, w_speed, w_flow):
    """channel_fuse on one sample of one graph's (roads, d) arrays."""
    out = channel_fuse(Tensor(np.stack([z_speed, z_flow])[None]),
                       Tensor(np.stack([w_speed, w_flow])))
    return out.data[0]


class TestSharedGcnLayer:
    def test_identity_pass_through(self):
        x = np.abs(np.random.default_rng(0).normal(size=(4, 3)))
        eye = Tensor(np.eye(4)[None])
        w = Tensor(np.eye(3)[None])
        out = shared_gcn_layer(_channels(x, x), eye, w)
        np.testing.assert_array_equal(out.data[0, 0, 0], x)
        np.testing.assert_array_equal(out.data[0, 1, 0], x)

    def test_negative_preactivation_zeroed(self):
        x = np.ones((3, 2))
        a = Tensor(np.eye(3)[None])
        w = Tensor(-np.ones((1, 2, 2)))
        out = shared_gcn_layer(_channels(x, x), a, w)
        np.testing.assert_array_equal(out.data[0, 0, 0], np.zeros((3, 2)))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        a = np.stack([normalize_adjacency(random_symmetric(rng, 4))
                      for _ in range(2)])
        x_s = rng.normal(size=(4, 5))
        x_f = rng.normal(size=(4, 5))
        w = rng.normal(size=(2, 5, 2))
        out = shared_gcn_layer(_channels(x_s, x_f), Tensor(a), Tensor(w))
        assert out.shape == (1, 2, 2, 4, 2)
        for g in range(2):
            for c, x in enumerate((x_s, x_f)):
                np.testing.assert_allclose(
                    out.data[0, c, g], np.maximum(a[g] @ x @ w[g], 0.0),
                    atol=1e-12)

    def test_same_kernel_for_both_channels(self):
        rng = np.random.default_rng(2)
        a = Tensor(np.eye(3)[None])
        w = Tensor(rng.normal(size=(1, 2, 2)))
        x = np.abs(rng.normal(size=(3, 2)))
        out = shared_gcn_layer(_channels(x, x), a, w)
        np.testing.assert_array_equal(out.data[0, 0], out.data[0, 1])


class TestChannelFuse:
    def test_speed_only(self):
        rng = np.random.default_rng(3)
        z_s = rng.normal(size=(3, 2))
        z_f = rng.normal(size=(3, 2))
        out = _fuse(z_s, z_f, np.ones((3, 2)), np.zeros((3, 2)))
        np.testing.assert_array_equal(out, z_s)

    def test_equal_mix_of_equal_inputs(self):
        z = np.arange(6.0).reshape(3, 2)
        half = np.full((3, 2), 0.5)
        out = _fuse(z, z, half, half)
        np.testing.assert_allclose(out, z, atol=1e-15)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(4)
        arrays = [rng.normal(size=(2, 3)) for _ in range(4)]
        out = _fuse(*arrays)
        z_s, z_f, w_s, w_f = arrays
        for i in range(2):
            for j in range(3):
                expected = w_s[i, j] * z_s[i, j] + w_f[i, j] * z_f[i, j]
                assert out[i, j] == pytest.approx(expected)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            channel_fuse(Tensor(np.zeros((1, 2, 2, 2))),
                         Tensor(np.zeros((2, 2, 3))))


class TestTemporalAttention:
    def test_single_feature_is_identity(self):
        x = Tensor(np.array([[1.0], [2.0], [3.0]]))
        np.testing.assert_allclose(temporal_attention(x).data, x.data,
                                   atol=1e-12)

    def test_identical_feature_columns_are_fixed_point(self):
        column = np.array([0.5, -1.0, 2.0])
        x = Tensor(np.tile(column[:, None], (1, 4)))
        np.testing.assert_allclose(temporal_attention(x).data, x.data,
                                   atol=1e-12)

    def test_matches_numpy_reimplementation(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 6))
        seq = x.T
        weights = softmax(seq @ seq.T / math.sqrt(4), axis=-1)
        expected = (weights @ seq).T
        np.testing.assert_allclose(temporal_attention(Tensor(x)).data,
                                   expected, atol=1e-12)
        assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-9)


class TestBuildCombinations:
    def test_twelve_uniform_shapes(self, toy):
        combos = build_combinations(toy.samples(), toy.graphs, toy.state)
        n, d = toy.config.n_roads, toy.config.hidden2
        assert combos.shape == (1, 12, n, d)

    def test_labels_follow_canonical_order(self, toy):
        assert toy.config.combination_labels() == [
            "r_h", "w_h", "p_h", "s_h",
            "r_d", "w_d", "p_d", "s_d",
            "r_w", "w_w", "p_w", "s_w"]

    def test_zeroing_pattern_graph_touches_only_pattern_combos(self, toy):
        sample = toy.samples()
        base = build_combinations(sample, toy.graphs, toy.state).data[0]
        no_pattern = GraphSet(topological=toy.graphs.topological,
                              weighted=toy.graphs.weighted,
                              pattern=np.zeros_like(toy.graphs.pattern),
                              attribute=toy.graphs.attribute)
        changed = build_combinations(sample, no_pattern, toy.state).data[0]
        for idx, label in enumerate(toy.config.combination_labels()):
            same = np.array_equal(base[idx], changed[idx])
            assert same == (not label.startswith("p_"))

    def test_stable_across_runs(self, toy):
        sample = toy.samples()
        first = build_combinations(sample, toy.graphs, toy.state)
        second = build_combinations(sample, toy.graphs, toy.state)
        assert np.array_equal(first.data, second.data)


class TestHighdimAttention:
    def test_single_combination_identity(self):
        setup = ToySetup(seed=1)
        n = setup.config.n_roads
        x = Tensor(setup.rng.normal(size=(1, 1, n, 3)))
        for name in ("attn/value", "attn/output"):
            setup.state.params[name].data = np.eye(n)
        out, attn = highdim_attention(x, setup.state)
        np.testing.assert_allclose(out.data, x.data, atol=1e-12)
        np.testing.assert_allclose(attn, 1.0, atol=1e-12)

    def test_score_tensor_shape_and_normalization(self, toy):
        _, attn = forward(toy.state, toy.samples(), toy.graphs)
        heads = toy.config.heads
        tp, d = toy.config.n_combinations, toy.config.hidden2
        assert attn.shape == (1, heads, tp, tp, d)
        np.testing.assert_allclose(attn.sum(axis=3), 1.0, atol=1e-9)
        assert np.all(attn >= 0)

    def test_two_combination_hand_oracle(self):
        # 2 roads, 2 combinations, one head, one feature: scalar recompute
        config = toy_config(n=2, heads=1, hidden=1)
        state = init_state(config, seed=0)
        rng = np.random.default_rng(6)
        wq, wk, wv, wo = (rng.normal(size=(2, 2)) for _ in range(4))
        state.params["attn/query"].data = wq
        state.params["attn/key"].data = wk
        state.params["attn/value"].data = wv
        state.params["attn/output"].data = wo
        x = rng.normal(size=(2, 2, 1))
        out, attn = highdim_attention(Tensor(x[None]), state)

        q = np.stack([wq @ x[t] for t in range(2)])
        k = np.stack([wk @ x[t] for t in range(2)])
        v = np.stack([wv @ x[t] for t in range(2)])
        scores = np.zeros((2, 2))
        for t in range(2):
            for u in range(2):
                scores[t, u] = sum(q[t][r, 0] * k[u][r, 0]
                                   for r in range(2)) / math.sqrt(2)
        for t in range(2):
            weights = softmax(scores[t])
            np.testing.assert_allclose(attn[0, 0, t, :, 0], weights,
                                       atol=1e-12)
            head = weights[0] * v[0] + weights[1] * v[1]
            np.testing.assert_allclose(out.data[0, t], wo @ head,
                                       atol=1e-12)

    def test_head_count_must_divide_roads(self):
        with pytest.raises(ValueError):
            toy_config(n=4, heads=3)


class TestFcHead:
    def test_zero_parameters_give_uniform_distribution(self):
        x = Tensor(np.random.default_rng(7).normal(size=(1, 3, 4, 2)))
        logits = fc_head(x, Tensor(np.zeros((6, 5))), Tensor(np.zeros(5)))
        np.testing.assert_array_equal(logits.data, np.zeros((1, 4, 5)))
        np.testing.assert_allclose(softmax(logits.data, axis=-1), 0.2,
                                   atol=1e-12)

    def test_one_hot_weight_selects_coordinate(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 3, 2))
        w = np.zeros((4, 3))
        w[1, 0] = 1.0  # class 0 reads flattened coordinate 1
        logits = fc_head(Tensor(x[None]), Tensor(w), Tensor(np.zeros(3)))
        flat = np.transpose(x, (1, 0, 2)).reshape(3, 4)
        np.testing.assert_allclose(logits.data[0, :, 0],
                                   np.maximum(flat[:, 1], 0.0), atol=1e-12)

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 2, 4))
        w = rng.normal(size=(12, 5))
        b = rng.normal(size=5)
        logits = fc_head(Tensor(x[None]), Tensor(w), Tensor(b))
        flat = np.transpose(x, (1, 0, 2)).reshape(2, 12)
        np.testing.assert_allclose(logits.data[0],
                                   np.maximum(flat @ w + b, 0.0), atol=1e-12)


class TestNllLoss:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((4, 5)))
        loss = nll_loss(logits, np.array([1, 2, 3, 4]))
        assert loss.item() == pytest.approx(math.log(5.0), abs=1e-12)

    def test_large_margin_drives_loss_to_zero(self):
        logits = np.zeros((2, 3))
        logits[0, 1] = 50.0
        logits[1, 2] = 50.0
        loss = nll_loss(Tensor(logits), np.array([2, 3]))
        assert loss.item() < 1e-12

    def test_three_road_hand_case(self):
        rng = np.random.default_rng(10)
        logits = rng.normal(size=(3, 4))
        targets = np.array([2, 1, 4])
        expected = -np.mean([
            np.log(softmax(logits[i])[targets[i] - 1]) for i in range(3)])
        loss = nll_loss(Tensor(logits), targets)
        assert loss.item() == pytest.approx(expected, abs=1e-12)

    def test_out_of_range_target(self):
        with pytest.raises(ValueError):
            nll_loss(Tensor(np.zeros((2, 3))), np.array([1, 4]))
        with pytest.raises(ValueError):
            nll_loss(Tensor(np.zeros((2, 3))), np.array([0, 2]))


class TestPredict:
    def test_zero_head_predicts_lowest_grade(self, toy):
        toy.state.params["head/weight"].data[:] = 0.0
        toy.state.params["head/bias"].data[:] = 0.0
        preds, _ = predict_many(toy.state, toy.samples(), toy.graphs)
        assert preds[0].tolist() == [1] * toy.config.n_roads

    def test_argmax_shift_invariance(self, toy):
        sample = toy.samples()
        preds, _ = predict_many(toy.state, sample, toy.graphs)
        logits = forward(toy.state, sample, toy.graphs)[0].data[0]
        shifted = logits + np.linspace(-3, 3, logits.shape[0])[:, None]
        np.testing.assert_array_equal(np.argmax(shifted, axis=1) + 1,
                                      preds[0])

    def test_predict_many_shapes_and_mean_attention(self, toy):
        # 5 samples at batch size 4: one full chunk and one of a single sample
        assert toy.config.batch_size == 4
        samples = toy.samples(5)
        preds, mean_attn = predict_many(toy.state, samples, toy.graphs)
        assert preds.shape == (5, toy.config.n_roads)
        singles = [forward(toy.state, samples.take([i]), toy.graphs)
                   for i in range(5)]
        np.testing.assert_array_equal(
            preds, [np.argmax(logits.data[0], axis=-1) + 1
                    for logits, _ in singles])
        np.testing.assert_allclose(
            mean_attn, np.mean([attn[0] for _, attn in singles], axis=0),
            atol=1e-12)
        np.testing.assert_allclose(mean_attn.sum(axis=2), 1.0, atol=1e-9)


class TestGradients:
    def test_full_model_gradcheck_small(self):
        setup = ToySetup(seed=2, n=4, grades=3, hidden=2, heads=2,
                         windows=(4, 2, 2))
        batch = setup.samples(2)
        targets = batch.target

        def loss_fn(_):
            logits, _ = forward(setup.state, batch, setup.graphs)
            return nll_loss(logits, targets)

        for name in setup.state.params.params:
            err = grad_check(loss_fn, setup.state.params[name], eps=1e-6)
            assert err < 1e-4, f"gradient mismatch for {name}: {err}"


class TestNoTape:
    """Forwards that no backward follows (prediction, validation) record no
    autodiff tape; parameters still require a gradient afterwards."""

    def test_prediction_logits_have_no_parents(self, toy, monkeypatch):
        seen = []

        def recording_forward(*args):
            logits, attn = forward(*args)
            seen.append(logits)
            return logits, attn

        monkeypatch.setattr(model, "forward", recording_forward)
        predict_many(toy.state, toy.samples(5), toy.graphs)
        assert len(seen) == 2
        for logits in seen:
            assert logits._parents == () and not logits.requires_grad

    def test_parameters_still_require_grad(self, toy):
        params = toy.state.params
        predict_many(toy.state, toy.samples(), toy.graphs)
        assert all(params[name].requires_grad for name in params.params)
        setup = ToySetup(seed=3, epochs=2)
        train(setup.state, setup.samples(4), setup.samples(2), setup.graphs)
        params = setup.state.params
        assert all(params[name].requires_grad for name in params.params)
        logits, _ = forward(setup.state, setup.samples(), setup.graphs)
        assert logits.requires_grad and logits._parents

    def test_gradcheck_after_prediction(self):
        setup = ToySetup(seed=2, n=4, grades=3, hidden=2, heads=2,
                         windows=(4, 2, 2))
        batch = setup.samples(2)
        targets = batch.target
        predict_many(setup.state, batch, setup.graphs)

        def loss_fn(_):
            logits, _ = forward(setup.state, batch, setup.graphs)
            return nll_loss(logits, targets)

        for name in ("gcn1/hour", "fuse/day", "attn/key", "head/weight"):
            err = grad_check(loss_fn, setup.state.params[name], eps=1e-6)
            assert err < 1e-4, f"gradient mismatch for {name}: {err}"


class TestBatching:
    """One forward over a batch equals one forward per sample."""

    def test_sample_output_independent_of_its_batch(self, toy):
        samples = toy.samples(5)
        logits, attn = forward(toy.state, samples, toy.graphs)
        assert logits.shape == (5, toy.config.n_roads, toy.config.n_grades)
        for i in range(5):
            single_logits, single_attn = forward(toy.state, samples.take([i]),
                                                 toy.graphs)
            np.testing.assert_allclose(logits.data[i], single_logits.data[0],
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(attn[i], single_attn[0], rtol=0,
                                       atol=1e-12)

    def test_batch_gradient_is_mean_of_sample_gradients(self, toy):
        samples = toy.samples(4)
        params = toy.state.params

        def gradients(batch):
            params.zero_grad()
            logits, _ = forward(toy.state, batch, toy.graphs)
            nll_loss(logits, batch.target).backward()
            return params.gradients()

        batch_grads = gradients(samples)
        singles = [gradients(samples.take([i])) for i in range(4)]
        for name in params.params:
            mean = np.mean([g[name] for g in singles], axis=0)
            np.testing.assert_allclose(batch_grads[name], mean, rtol=0,
                                       atol=1e-12, err_msg=name)


class TestReceptiveField:
    def test_two_layer_stack_reaches_exactly_two_hops(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(5, 15))
            net_edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
            net = RoadNetwork(np.ones(n), tuple(net_edges))
            hops = shortest_paths(net)[0]
            w = np.zeros((n, n))
            for a, b in net.edges:
                w[a, b] = w[b, a] = rng.uniform(0.5, 1.5)
            a_norm = Tensor(normalize_adjacency(w)[None])
            x = rng.uniform(0.5, 1.0, size=(n, 3))
            ones1 = Tensor(np.ones((1, 3, 4)))
            ones2 = Tensor(np.ones((1, 4, 4)))

            def stack_output(values):
                h1 = shared_gcn_layer(_channels(values, values), a_norm,
                                      ones1)
                return shared_gcn_layer(h1, a_norm, ones2).data[0, 0, 0]

            base = stack_output(x)
            source = int(rng.integers(0, n))
            bumped = x.copy()
            bumped[source] += 1.0
            changed = np.any(stack_output(bumped) != base, axis=1)
            expected = hops[source] <= 2
            np.testing.assert_array_equal(changed, expected)


class TestAblationTopology:
    def test_zeroed_resolutions_flow_as_zeros(self, toy):
        sample = toy.samples()
        hourly_only = Samples(
            {"hour": sample.history["hour"],
             "day": np.zeros_like(sample.history["day"]),
             "week": np.zeros_like(sample.history["week"])},
            sample.target, sample.anchors)
        base = build_combinations(sample, toy.graphs, toy.state).data[0]
        masked = build_combinations(hourly_only, toy.graphs,
                                    toy.state).data[0]
        for idx, label in enumerate(toy.config.combination_labels()):
            if label.endswith("_h"):
                np.testing.assert_array_equal(masked[idx], base[idx])
            else:
                np.testing.assert_array_equal(masked[idx],
                                              np.zeros_like(base[idx]))

    def test_single_resolution_variant_has_four_combinations(self):
        setup = ToySetup(seed=3, resolutions=("hour",))
        assert setup.config.n_combinations == 4
        combos = build_combinations(setup.samples(), setup.graphs,
                                    setup.state)
        assert combos.shape[1] == 4
        _, attn = forward(setup.state, setup.samples(), setup.graphs)
        assert attn.shape[2:4] == (4, 4)


class TestTraining:
    def test_overfits_single_sample(self):
        setup = ToySetup(seed=4, epochs=300, lr=5e-2)
        sample = setup.samples()
        log = train(setup.state, sample, [], setup.graphs)
        assert log[-1]["train_loss"] < 0.01

    def test_loss_decreases_over_first_epochs(self):
        setup = ToySetup(seed=5, epochs=10, lr=2e-2)
        samples = setup.samples(8)
        log = train(setup.state, samples, [], setup.graphs)
        losses = np.array([e["train_loss"] for e in log])
        smoothed = np.convolve(losses, np.ones(3) / 3, mode="valid")
        assert smoothed[-1] < smoothed[0]

    def test_fixed_seed_reproduces_loss_curve(self):
        def run():
            setup = ToySetup(seed=6, epochs=5)
            samples = setup.samples(6)
            val = setup.samples(2)
            return train(setup.state, samples, val, setup.graphs)

        first = run()
        second = run()
        assert [e["train_loss"] for e in first] == \
            [e["train_loss"] for e in second]
        assert [e["val_accuracy"] for e in first] == \
            [e["val_accuracy"] for e in second]

    def test_best_validation_checkpoint_retained(self):
        setup = ToySetup(seed=7, epochs=12, lr=2e-2)
        samples = setup.samples(6)
        val = setup.samples(3)
        log = train(setup.state, samples, val, setup.graphs)
        best = max(e["val_accuracy"] for e in log)
        preds, _ = predict_many(setup.state, val, setup.graphs)
        assert (preds == val.target).mean() == pytest.approx(best)


class TestCheckpoint:
    def test_round_trip_preserves_predictions(self, toy, tmp_path):
        sample = toy.samples()
        samples = toy.samples(4)
        toy.state.config = toy.config
        path = tmp_path / "ckpt.json"
        log = train(toy.state, samples, [], toy.graphs)  # touch adam state
        save_checkpoint(path, toy.state)
        loaded = load_checkpoint(path, toy.config)
        for name in toy.state.params.params:
            np.testing.assert_array_equal(loaded.params[name].data,
                                          toy.state.params[name].data)
        base, _ = predict_many(toy.state, sample, toy.graphs)
        again, _ = predict_many(loaded, sample, toy.graphs)
        np.testing.assert_array_equal(base, again)

    def test_config_mismatch_rejected(self, toy, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, toy.state)
        other = toy_config(n=4, heads=4)
        with pytest.raises(DataError):
            load_checkpoint(path, other)

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_version_rejected(self, toy, tmp_path, version):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, toy.state)
        payload = json.loads(path.read_text())
        assert "step" not in payload and "adam_first" not in payload
        payload["version"] = version
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="version-3"):
            load_checkpoint(path, toy.config)

    def test_garbage_file_rejected(self, toy, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(DataError):
            load_checkpoint(path, toy.config)
