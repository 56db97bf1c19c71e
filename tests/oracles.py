"""Reference implementations that tests compare the package against."""

import math
from typing import Callable

import numpy as np

from roadgrade.errors import NumericError
from roadgrade.graphs import GRAPH_KEYS
from roadgrade.model import (GRAPH_LETTERS, RESOLUTION_KEYS,
                             RESOLUTION_LETTERS, channel_fuse,
                             shared_gcn_layer, temporal_attention)
from roadgrade.optim import BETA1, BETA2, EPS
from roadgrade.tensor import Tensor, concat, softmax

_RESOLUTION_BY_LETTER = {letter: key
                         for key, letter in RESOLUTION_LETTERS.items()}
_GRAPH_BY_LETTER = {letter: key for key, letter in GRAPH_LETTERS.items()}


def grad_check(f: Callable[[Tensor], Tensor], point: Tensor,
               eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Per coordinate the error is |analytic - numeric| / max(1, |analytic|);
    raises NumericError if `f` returns a non-finite value at any probe.
    """
    if not 0.0 < eps <= 1e-2:
        raise ValueError("eps must be in (0, 1e-2]")
    point.requires_grad = True
    point.zero_grad()
    out = f(point)
    if not np.isfinite(out.data).all():
        raise NumericError("function returned non-finite value at the point")
    out.backward()
    analytic = np.zeros_like(point.data) if point.grad is None else point.grad

    worst = 0.0
    for idx in np.ndindex(point.shape):
        original = point.data[idx]
        point.data[idx] = original + eps
        hi = f(point).item()
        point.data[idx] = original - eps
        lo = f(point).item()
        point.data[idx] = original
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise NumericError(f"non-finite probe at coordinate {idx}")
        numeric = (hi - lo) / (2.0 * eps)
        err = abs(analytic[idx] - numeric) / max(1.0, abs(analytic[idx]))
        worst = max(worst, err)
    return worst


def per_resolution_combinations(samples, graphs, state) -> Tensor:
    """`model.build_combinations` with one temporal attention pass per
    resolution, whose outputs are then concatenated."""
    a_norm = Tensor(graphs.normalized)
    out = []
    for res in state.config.resolutions:
        z = Tensor(np.moveaxis(samples.history[res], -1, 1)[:, :, None])
        h1 = shared_gcn_layer(z, a_norm, state.params[f"gcn1/{res}"])
        h2 = shared_gcn_layer(h1, a_norm, state.params[f"gcn2/{res}"])
        out.append(temporal_attention(
            channel_fuse(h2, state.params[f"fuse/{res}"])))
    return concat(out, axis=1)


def gcn_layer_chain(z: Tensor, a_norm: Tensor, w: Tensor) -> Tensor:
    """`model.shared_gcn_layer` as a matmul, matmul, ReLU chain of nodes."""
    return (a_norm @ z @ w).relu()


def channel_fuse_chain(z: Tensor, w: Tensor) -> Tensor:
    """`model.channel_fuse` as a mul, sum chain of nodes."""
    return (w * z).sum(axis=1)


def adam_per_parameter(values: dict, first: dict, second: dict,
                       grads: dict, step: int, lr: float) -> None:
    """Step `step` of Adam, one parameter at a time, on dicts of arrays:
    the moments are updated in place and each value is replaced."""
    for name in values:
        g = grads[name]
        m = first[name]
        v = second[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        m_hat = m / (1.0 - BETA1 ** step)
        v_hat = v / (1.0 - BETA2 ** step)
        values[name] = values[name] - lr * m_hat / (np.sqrt(v_hat) + EPS)


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


def _split_label(label: str) -> tuple[str, str]:
    try:
        graph_letter, res_letter = label.split("_")
        return _GRAPH_BY_LETTER[graph_letter], _RESOLUTION_BY_LETTER[res_letter]
    except (ValueError, KeyError):
        raise ValueError(f"malformed combination label {label!r}") from None


def decouple(importance: np.ndarray, labels: tuple[str, ...],
             axis: str) -> dict[str, float]:
    """Group the combination importance by resolution or by graph type.

    Members of each group are summed and the group sums renormalized with a
    softmax; the result maps group names to importance.
    """
    importance = np.asarray(importance)
    if importance.shape != (len(labels),):
        raise ValueError("importance and labels disagree")
    if axis == "resolution":
        group_of = {label: _split_label(label)[1] for label in labels}
        order = [r for r in RESOLUTION_KEYS if r in set(group_of.values())]
    elif axis == "graph":
        group_of = {label: _split_label(label)[0] for label in labels}
        order = [g for g in GRAPH_KEYS if g in set(group_of.values())]
    else:
        raise ValueError(f"unknown axis {axis!r}")
    sums = np.array([
        sum(value for label, value in zip(labels, importance)
            if group_of[label] == name)
        for name in order])
    weights = softmax(sums)
    return {name: float(w) for name, w in zip(order, weights)}
