"""Core tensor ops: softmax primitives, gradients, the attention node,
grad_check itself."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import grad_check
from roadgrade.errors import NumericError
from roadgrade.optim import ParamSet
from roadgrade.tensor import (Tensor, attention, concat, glorot_uniform,
                              log_softmax, softmax)


class TestSoftmax:
    def test_symmetric_pair(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5],
                                   atol=1e-15)

    def test_known_ratio(self):
        np.testing.assert_allclose(softmax([0.0, math.log(3.0)]),
                                   [0.25, 0.75], atol=1e-15)

    def test_large_inputs_do_not_overflow(self):
        out = softmax([1000.0, 1000.0])
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-15)
        assert np.all(np.isfinite(out))

    def test_integer_shift_is_exact(self):
        # integer entries and shift make the max-subtraction bitwise equal
        v = np.array([0.0, 1.0, 3.0, -2.0])
        assert np.array_equal(softmax(v), softmax(v + 7.0))
        assert np.array_equal(log_softmax(v), log_softmax(v + 7.0))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8),
           st.floats(-100, 100))
    def test_shift_invariance(self, values, shift):
        v = np.array(values)
        np.testing.assert_allclose(softmax(v), softmax(v + shift), atol=1e-12)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    def test_sums_to_one(self, values):
        out = softmax(np.array(values))
        assert np.all(out > 0)
        assert abs(out.sum() - 1.0) < 1e-12

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(NumericError):
            softmax([1.0, float("nan")])
        with pytest.raises(NumericError):
            log_softmax([float("inf")])


class TestLogSoftmax:
    def test_symmetric_pair(self):
        np.testing.assert_allclose(log_softmax([0.0, 0.0]),
                                   [-math.log(2)] * 2, atol=1e-15)

    def test_known_ratio(self):
        np.testing.assert_allclose(log_softmax([0.0, math.log(3.0)]),
                                   [math.log(0.25), math.log(0.75)],
                                   atol=1e-15)

    @given(st.lists(st.floats(-30, 30), min_size=1, max_size=8))
    def test_exp_sums_to_one_and_matches_log_of_softmax(self, values):
        v = np.array(values)
        out = log_softmax(v)
        assert abs(np.exp(out).sum() - 1.0) < 1e-12
        np.testing.assert_allclose(out, np.log(softmax(v)), atol=1e-12)


class TestGradCheck:
    def test_square_function(self):
        err = grad_check(lambda p: p * p, Tensor(np.array(3.0)), eps=1e-5)
        assert err < 1e-8

    def test_constant_function(self):
        err = grad_check(lambda p: Tensor(np.array(1.5)) + p.sum() * 0.0,
                         Tensor(np.array([1.0, 2.0])), eps=1e-5)
        assert err == 0.0

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            grad_check(lambda p: p.sum(), Tensor(np.array([1.0])), eps=0.5)

    def test_nonfinite_probe_raises(self):
        def f(p):
            with np.errstate(invalid="ignore"):
                return Tensor(np.log(p.data)).sum() + p.sum() * 0.0

        with pytest.raises(NumericError):
            grad_check(f, Tensor(np.array([1e-9])), eps=1e-3)


def _rand(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


class TestOperatorGradients:
    """Each operator's backward pass against central differences."""

    def test_matmul(self):
        rng = np.random.default_rng(0)
        other = Tensor(rng.standard_normal((4, 3)))
        point = _rand(rng, 2, 4)
        assert grad_check(lambda p: (p @ other).sum(), point) < 1e-6

    def test_matmul_broadcast_batch(self):
        rng = np.random.default_rng(1)
        stack_right = Tensor(rng.standard_normal((5, 3, 2)))
        point = _rand(rng, 3, 3)
        assert grad_check(lambda p: (p @ stack_right).sum(), point) < 1e-6

    def test_elementwise_mul_broadcast(self):
        rng = np.random.default_rng(2)
        other = Tensor(rng.standard_normal((1, 4)))
        point = _rand(rng, 3, 4)
        assert grad_check(lambda p: (p * other).sum(), point) < 1e-6
        assert grad_check(lambda p: (other * p * p).sum(), point) < 1e-6

    def test_add_broadcast(self):
        rng = np.random.default_rng(3)
        bias = Tensor(rng.standard_normal(4), requires_grad=True)
        x = Tensor(rng.standard_normal((3, 4)))
        assert grad_check(lambda p: ((x + p) * (x + p)).sum(), bias) < 1e-6

    def test_relu(self):
        # probe points away from the kink; the subgradient at 0 is 0
        point = Tensor(np.array([-1.0, -0.3, 0.4, 2.0]), requires_grad=True)
        assert grad_check(lambda p: (p.relu() * p.relu()).sum(), point) < 1e-6

    def test_relu_gradient_at_zero_is_zero(self):
        p = Tensor(np.array([0.0, 1.0]), requires_grad=True)
        p.relu().sum().backward()
        np.testing.assert_array_equal(p.grad, [0.0, 1.0])

    def test_softmax_grad(self):
        # identity keys and values make attention return softmax(point)
        rng = np.random.default_rng(4)
        point = _rand(rng, 2, 5)
        weights = Tensor(rng.standard_normal((2, 5)))
        eye = Tensor(np.eye(5))
        assert grad_check(
            lambda p: (attention(p, eye, eye, 1.0)[0] * weights).sum(),
            point) < 1e-6

    def test_log_softmax_grad(self):
        rng = np.random.default_rng(5)
        point = _rand(rng, 3, 4)
        weights = Tensor(rng.standard_normal((3, 4)))
        assert grad_check(
            lambda p: (p.log_softmax(axis=-1) * weights).sum(), point) < 1e-6

    def test_softmax_axis_grad(self):
        # softmax over axis 1: that axis is moved last, and the identity
        # keys and values broadcast over the leading axis
        rng = np.random.default_rng(6)
        point = _rand(rng, 2, 3, 4)
        weights = Tensor(rng.standard_normal((2, 3, 4)))
        eye = Tensor(np.eye(3))

        def f(p):
            probs = attention(p.transpose((0, 2, 1)), eye, eye, 1.0)[0]
            return (probs.transpose((0, 2, 1)) * weights).sum()

        assert grad_check(f, point) < 1e-6

    def test_transpose_and_reshape(self):
        rng = np.random.default_rng(7)
        point = _rand(rng, 2, 3, 4)
        weights = Tensor(rng.standard_normal((6, 4)))

        def f(p):
            moved = p.transpose((2, 0, 1)).reshape(4, 6)
            flipped = moved.transpose((1, 0))
            return (flipped * flipped * weights).sum()

        assert grad_check(f, point) < 1e-6

    def test_concat_and_stack(self):
        rng = np.random.default_rng(8)
        point = _rand(rng, 2, 3)
        other = Tensor(rng.standard_normal((2, 3)))

        def f(p):
            pile = concat([t.reshape(1, 2, 3) for t in (p, other, p)],
                          axis=0)
            wide = concat([p, other], axis=1)
            return (pile * pile).sum() + wide.sum() / wide.data.size

        assert grad_check(f, point) < 1e-6

    def test_mean_and_sum_axes(self):
        rng = np.random.default_rng(9)
        point = _rand(rng, 3, 4)

        def f(p):
            column_mean = p.sum(axis=0) / 3
            return (p.sum(axis=0) * -column_mean).sum() + p.sum() / 12

        assert grad_check(f, point) < 1e-6

    def test_constant_operand_gets_no_gradient(self):
        # a constant side of @ and * is skipped; the parameter side is not
        rng = np.random.default_rng(10)
        stacked = Tensor(rng.standard_normal((3, 4, 4)))
        param = _rand(rng, 4, 2)
        (stacked @ param).sum().backward()
        expected = (np.swapaxes(stacked.data, -1, -2)
                    @ np.ones((3, 4, 2))).sum(axis=0)
        assert np.array_equal(param.grad, expected)
        assert stacked.grad is None

        scale = Tensor(rng.standard_normal((3, 4)))
        param = _rand(rng, 4)
        (param * scale).sum().backward()
        assert np.array_equal(param.grad, (np.ones((3, 4)) * scale.data)
                              .sum(axis=0))
        assert scale.grad is None

    def test_reused_node_accumulates(self):
        p = Tensor(np.array(2.0), requires_grad=True)
        out = p * p + p
        out.backward()
        assert p.grad == pytest.approx(5.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_random_composite_graphs(self, seed):
        # composite expression spanning the full operator set
        rng = np.random.default_rng(seed)
        point = _rand(rng, 3, 4)
        mix = Tensor(rng.standard_normal((4, 3)))

        def f(p):
            a = (p @ mix).relu()
            b = attention(a, a.transpose((1, 0)), a, 0.5)[0] * a
            c = concat([b, b.transpose((1, 0)) @ Tensor(np.ones((3, 3)))],
                       axis=0)
            return c.log_softmax(axis=-1).sum() / 18 + (p * p).sum()

        assert grad_check(f, point) < 1e-4


class TestAttention:
    """The fused node against central differences and against the unfused
    ndarray chain: scores, scale, softmax, weighted sum."""

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_grad_wrt_each_operand(self, which):
        rng = np.random.default_rng(20 + which)
        operands = [Tensor(rng.standard_normal(shape)) for shape in
                    ((2, 3, 4), (2, 4, 5), (2, 5, 3))]
        weights = Tensor(rng.standard_normal((2, 3, 3)))

        def f(p):
            args = list(operands)
            args[which] = p
            return (attention(*args, 0.7)[0] * weights).sum()

        assert grad_check(f, operands[which]) < 1e-6

    def test_grad_when_query_is_value(self):
        # the temporal layout: the transposed embedding is query and value
        rng = np.random.default_rng(23)
        point = _rand(rng, 2, 4, 3)
        weights = Tensor(rng.standard_normal((2, 3, 4)))

        def f(p):
            seq = p.transpose((0, 2, 1))
            return (attention(seq, p, seq, 0.5)[0] * weights).sum()

        assert grad_check(f, point) < 1e-6

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_grad_wrt_broadcast_operand(self, which):
        rng = np.random.default_rng(24 + which)
        operands = [Tensor(rng.standard_normal(shape)) for shape in
                    ((3, 4), (2, 1, 4, 5), (5, 3))]
        weights = Tensor(rng.standard_normal((2, 1, 3, 3)))

        def f(p):
            args = list(operands)
            args[which] = p
            return (attention(*args, 0.7)[0] * weights).sum()

        assert grad_check(f, operands[which]) < 1e-6

    def test_bitwise_equal_to_unfused_chain(self):
        rng = np.random.default_rng(27)
        q, k, v, g = (rng.standard_normal(shape) for shape in
                      ((2, 3, 4), (2, 4, 3), (2, 3, 5), (2, 3, 5)))
        scale = 1.0 / math.sqrt(3)
        tq, tk, tv = (Tensor(a, requires_grad=True) for a in (q, k, v))
        out, weights = attention(tq, tk, tv, scale)
        (out * Tensor(g)).sum().backward()

        probs = softmax((q @ k) * scale, axis=-1)
        assert np.array_equal(weights, probs)
        assert np.array_equal(out.data, probs @ v)
        # the backward of matmul, softmax, mul and matmul nodes in turn
        dprobs = g @ np.swapaxes(v, -1, -2)
        dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1,
                                                          keepdims=True))
        dscores = dscores * scale
        assert np.array_equal(tv.grad, np.swapaxes(probs, -1, -2) @ g)
        assert np.array_equal(tq.grad, dscores @ np.swapaxes(k, -1, -2))
        assert np.array_equal(tk.grad, np.swapaxes(q, -1, -2) @ dscores)

    @pytest.mark.parametrize("length", [1, 2, 12, 32])
    def test_weights_equal_softmax_bitwise(self, length):
        # scores @ identity is exact, so the weights are softmax(scores)
        rng = np.random.default_rng(29 + length)
        scores = rng.standard_normal((2, 3, 5, length)) * 10
        scores[0, 0] = 1.5                           # rows of equal values
        # tied maxima, side by side and spread over the row
        scores[0, 1, :, :2] = scores[0, 1].max(axis=-1, keepdims=True)
        scores[1, 2, :, ::3] = scores[1, 2].max(axis=-1, keepdims=True)
        _, weights = attention(Tensor(scores), Tensor(np.eye(length)),
                               Tensor(np.ones((length, 1))), 1.0)
        assert np.array_equal(weights, softmax(scores, axis=-1))

    def test_frozen_parameters_record_no_tape(self):
        rng = np.random.default_rng(28)
        params = ParamSet({name: Tensor(rng.standard_normal((3, 3)),
                                        requires_grad=True)
                           for name in ("q", "k", "v")})
        with params.frozen():
            out, _ = attention(params["q"], params["k"], params["v"], 1.0)
        assert out._parents == () and not out.requires_grad

    def test_rejects_empty_and_nonfinite_scores(self):
        with pytest.raises(NumericError):
            attention(Tensor([[np.nan]]), Tensor([[1.0]]), Tensor([[1.0]]),
                      1.0)


class TestDeterminism:
    def test_glorot_bitwise_repeatable(self):
        a = glorot_uniform((5, 7), np.random.default_rng(11))
        b = glorot_uniform((5, 7), np.random.default_rng(11))
        assert np.array_equal(a, b)
        limit = math.sqrt(6.0 / 12.0)
        assert np.all(np.abs(a) <= limit)

    def test_forward_bitwise_repeatable(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((6, 6))

        def run():
            t = Tensor(x, requires_grad=True)
            out = attention(t, t, t, 0.5)[0].sum()
            out.backward()
            return out.data.copy(), t.grad.copy()

        first, grad_first = run()
        second, grad_second = run()
        assert np.array_equal(first, second)
        assert np.array_equal(grad_first, grad_second)
