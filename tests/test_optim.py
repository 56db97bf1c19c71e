"""ParamSet bookkeeping and the Adam update."""

import numpy as np
import pytest

from oracles import adam_per_parameter
from roadgrade.errors import NumericError
from roadgrade.optim import ParamSet, adam_step
from roadgrade.tensor import Tensor


def make_params(**arrays):
    return ParamSet({name: Tensor(np.array(values), requires_grad=True)
                     for name, values in arrays.items()})


def step(params, lr, **grads):
    """Set each named parameter's `.grad` and take one Adam step."""
    for name, g in grads.items():
        params[name].grad = np.asarray(g, dtype=float)
    adam_step(params, lr)


def test_moments_mirror_parameter_shapes():
    # one flat buffer per quantity; each parameter a view into the values
    params = make_params(w=[[1.0, 2.0], [3.0, 4.0]], b=[5.0, 6.0])
    assert params.values.shape == (6,)
    assert params.first_moment.shape == params.values.shape
    assert params.second_moment.shape == params.values.shape
    assert not params.first_moment.any() and not params.second_moment.any()
    np.testing.assert_array_equal(params.values, [1, 2, 3, 4, 5, 6])
    assert params["w"].shape == (2, 2) and params["b"].shape == (2,)
    for name in params.params:
        assert params[name].data.base is params.values
    assert params.step == 0


def _mixed_params(rng):
    return make_params(w=rng.standard_normal((3, 4)),
                       b=rng.standard_normal(5),
                       k=rng.standard_normal((2, 3, 2)))


def test_flat_update_equals_per_parameter_loop_bitwise():
    rng = np.random.default_rng(7)
    params = _mixed_params(rng)
    values = {name: p.data.copy() for name, p in params.params.items()}
    first = {name: np.zeros_like(v) for name, v in values.items()}
    second = {name: np.zeros_like(v) for name, v in values.items()}
    for t in range(1, 6):
        grads = {name: rng.standard_normal(v.shape) * 10.0 ** t
                 for name, v in values.items()}
        step(params, 3e-3, **grads)
        adam_per_parameter(values, first, second, grads, t, lr=3e-3)
        for name in values:
            assert np.array_equal(params[name].data, values[name]), name
    assert params.step == 5


def test_nonfinite_second_gradient_changes_nothing():
    rng = np.random.default_rng(8)
    params = _mixed_params(rng)
    grads = {name: rng.standard_normal(params[name].shape)
             for name in params.params}
    step(params, 0.1, **grads)
    state = [params.values.copy(), params.first_moment.copy(),
             params.second_moment.copy()]
    grads["b"][3] = np.inf
    with pytest.raises(NumericError, match="'b'"):
        step(params, 0.1, **grads)
    assert params.step == 1
    for before, after in zip(state, [params.values, params.first_moment,
                                     params.second_moment]):
        assert np.array_equal(before, after)


def test_copy_values_is_one_detached_flat_copy():
    params = _mixed_params(np.random.default_rng(10))
    copied = params.copy_values()
    assert copied.shape == params.values.shape
    assert np.array_equal(copied, params.values)
    assert not np.shares_memory(copied, params.values)


def test_step_after_load_values_moves_the_parameters():
    params = _mixed_params(np.random.default_rng(9))
    views = {name: params[name].data for name in params.params}
    params.load_values(np.full(params.values.shape, 0.5))
    step(params, 0.1, **{name: np.ones(v.shape)
                         for name, v in views.items()})
    for name, view in views.items():
        assert params[name].data is view
        np.testing.assert_allclose(view, 0.4, rtol=1e-7)


def test_step_reads_the_gradients_backward_left():
    params = make_params(w=[1.0, -2.0])
    (params["w"] * params["w"]).sum().backward()
    adam_step(params, 0.1)
    np.testing.assert_allclose(params["w"].data, [0.9, -1.9], rtol=1e-7)


def test_zero_gradient_leaves_parameters_unchanged():
    params = make_params(w=[1.0, -2.0])
    before = params["w"].data.copy()
    step(params, 0.1, w=np.zeros(2))
    np.testing.assert_array_equal(params["w"].data, before)
    assert params.step == 1


@pytest.mark.parametrize("g", [0.5, -3.0, 100.0])
def test_first_step_magnitude_is_learning_rate(g):
    # with bias correction the first update is lr * g / (|g| + eps)
    params = make_params(w=[0.0])
    step(params, 0.01, w=[g])
    assert abs(params["w"].data[0]) == pytest.approx(0.01, rel=1e-6)
    assert np.sign(params["w"].data[0]) == -np.sign(g)


def test_two_steps_descend_quadratic():
    # hand simulation: x decreases strictly on f(x) = x^2 from x = 1
    params = make_params(x=[1.0])
    trajectory = [1.0]
    for _ in range(2):
        grad = 2.0 * params["x"].data
        step(params, 0.1, x=grad)
        trajectory.append(float(params["x"].data[0]))
    assert trajectory[0] > trajectory[1] > trajectory[2]
    assert params.step == 2


def test_matches_reference_adam_sequence():
    # explicit reference implementation carried for several steps, with
    # the paper's beta1, beta2 and eps
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    params = make_params(x=[0.3, -1.2])
    x = np.array([0.3, -1.2])
    m = np.zeros(2)
    v = np.zeros(2)
    rng = np.random.default_rng(3)
    for t in range(1, 6):
        g = rng.standard_normal(2)
        step(params, lr, x=g.copy())
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x = x - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        np.testing.assert_allclose(params["x"].data, x, rtol=0, atol=1e-15)


def test_nonfinite_gradient_rejected():
    params = make_params(w=[1.0])
    with pytest.raises(NumericError):
        step(params, 0.1, w=[np.nan])
    assert params.step == 0  # rejected before any state mutation


def test_frozen_records_no_tape_and_restores_requires_grad():
    params = make_params(w=[1.0, -2.0])
    with params.frozen():
        out = (params["w"] * params["w"]).sum()
    assert out.item() == 5.0
    assert out._parents == () and not out.requires_grad
    assert params["w"].requires_grad
    with pytest.raises(RuntimeError):
        with params.frozen():
            raise RuntimeError("inside")
    (params["w"] * params["w"]).sum().backward()
    np.testing.assert_array_equal(params["w"].grad, [2.0, -4.0])
