"""Dense tensors with reverse-mode gradients.

Small, deterministic autodiff core covering exactly the operator set the
prediction network needs: matmul, broadcast add/mul, negation, scalar
division, ReLU, log-softmax, transpose, reshape, concatenate, sums and
attention, softmax((q @ k) * scale) @ v as one node.
Arrays are float64 throughout; gradients accumulate into ``.grad``.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError

Array = np.ndarray


def _as_array(values) -> Array:
    arr = np.asarray(values, dtype=np.float64)
    return arr


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """An ndarray plus the tape machinery for reverse-mode gradients."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, values, requires_grad: bool = False):
        self.data = _as_array(values)
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[Array], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _node(values: Array, parents: tuple["Tensor", ...],
              backward: Callable[["Tensor", Array], None]) -> "Tensor":
        out = Tensor(values)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    def backward(self) -> None:
        """Accumulate gradients of this (scalar) tensor into the graph."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        grads: dict[int, Array] = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            grad = grads.pop(id(node), None)
            if grad is None:
                continue
            if node._backward is not None:
                node._backward(grads, grad)
            else:
                node.grad = grad if node.grad is None else node.grad + grad
        # leaves reached only through _backward closures get .grad there

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data + other.data
        a, b = self, other

        def backward(grads, g):
            _accumulate(grads, a, _unbroadcast(g, a.shape))
            _accumulate(grads, b, _unbroadcast(g, b.shape))

        return Tensor._node(out_data, (a, b), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        a = self

        def backward(grads, g):
            _accumulate(grads, a, -g)

        return Tensor._node(-self.data, (a,), backward)

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self, other

        def backward(grads, g):
            if a.requires_grad:
                _accumulate(grads, a, _unbroadcast(g * b.data, a.shape))
            if b.requires_grad:
                _accumulate(grads, b, _unbroadcast(g * a.data, b.shape))

        return Tensor._node(self.data * other.data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Tensor":
        return self * (1.0 / float(scalar))

    def __matmul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self, other
        out_data = a.data @ b.data

        def backward(grads, g):
            if a.requires_grad:
                ga = g @ np.swapaxes(b.data, -1, -2)
                _accumulate(grads, a, _unbroadcast(ga, a.shape))
            if b.requires_grad:
                gb = np.swapaxes(a.data, -1, -2) @ g
                _accumulate(grads, b, _unbroadcast(gb, b.shape))

        return Tensor._node(out_data, (a, b), backward)

    # -- shape ops -----------------------------------------------------------

    def transpose(self, axes: Sequence[int] | None = None) -> "Tensor":
        a = self
        out_data = np.transpose(self.data, axes)
        if axes is None:
            inverse = None
        else:
            inverse = tuple(np.argsort(axes))

        def backward(grads, g):
            _accumulate(grads, a, np.transpose(g, inverse))

        return Tensor._node(out_data, (a,), backward)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        old_shape = self.shape

        def backward(grads, g):
            _accumulate(grads, a, g.reshape(old_shape))

        return Tensor._node(self.data.reshape(shape), (a,), backward)

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grads, g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _accumulate(grads, a, np.broadcast_to(g, a.shape).copy())

        return Tensor._node(out_data, (a,), backward)

    # -- nonlinearities -------------------------------------------------------

    def relu(self) -> "Tensor":
        a = self
        mask = self.data > 0  # gradient at exactly 0 is defined as 0

        def backward(grads, g):
            _accumulate(grads, a, g * mask)

        return Tensor._node(np.where(mask, self.data, 0.0), (a,), backward)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        a = self
        out_data = log_softmax(self.data, axis=axis)
        probs = np.exp(out_data)

        def backward(grads, g):
            _accumulate(grads, a, g - probs * g.sum(axis=axis, keepdims=True))

        return Tensor._node(out_data, (a,), backward)


def _accumulate(grads: dict[int, Array], node: Tensor, g: Array) -> None:
    if not node.requires_grad:
        return
    if node._backward is None:
        node.grad = g if node.grad is None else node.grad + g
        return
    key = id(node)
    if key in grads:
        grads[key] = grads[key] + g
    else:
        grads[key] = g


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = tuple(tensors)
    out_data = np.concatenate([t.data for t in parts], axis=axis)
    sizes = [t.data.shape[axis] for t in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(grads, g):
        for tensor, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            index = [slice(None)] * g.ndim
            index[axis] = slice(lo, hi)
            _accumulate(grads, tensor, g[tuple(index)])

    return Tensor._node(out_data, parts, backward)


def attention(q: Tensor, k: Tensor, v: Tensor,
              scale: float) -> tuple[Tensor, Array]:
    """softmax((q @ k) * scale, axis=-1) @ v as one node, and the weights,
    which its backward reads: callers must not write to them.

    Weights and score gradient each live in one buffer, updated in place in
    the order of a matmul, mul, softmax, matmul chain of nodes, so values
    and gradients are bitwise that chain's."""
    w = q.data @ k.data
    w *= scale
    _check_softmax_input(w)
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)

    def backward(grads, g):
        # every operand of the model's two calls needs its gradient
        dv = np.swapaxes(w, -1, -2) @ g
        ds = g @ np.swapaxes(v.data, -1, -2)
        ds -= (ds * w).sum(axis=-1, keepdims=True)
        ds *= w
        ds *= scale
        dq = ds @ np.swapaxes(k.data, -1, -2)
        dk = np.swapaxes(q.data, -1, -2) @ ds
        for node, grad in ((q, dq), (k, dk), (v, dv)):
            _accumulate(grads, node, _unbroadcast(grad, node.shape))

    return Tensor._node(w @ v.data, (q, k, v), backward), w


# -- plain ndarray softmax primitives -----------------------------------------


def _check_softmax_input(values: Array) -> None:
    if values.size == 0:
        raise ValueError("softmax input must be non-empty")
    if not np.all(np.isfinite(values)):
        raise NumericError("softmax input must be finite")


def softmax(values, axis: int = -1) -> Array:
    """Numerically stabilized softmax; invariant under constant shifts."""
    arr = _as_array(values)
    _check_softmax_input(arr)
    shifted = arr - arr.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(values, axis: int = -1) -> Array:
    arr = _as_array(values)
    _check_softmax_input(arr)
    shifted = arr - arr.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


# -- verification and initialization ------------------------------------------


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


def glorot_uniform(shape: Sequence[int], rng: np.random.Generator) -> Array:
    """Uniform init on [-sqrt(6/(fan_in+fan_out)), +sqrt(6/(fan_in+fan_out))]."""
    shape = tuple(shape)
    fan_in = shape[0]
    fan_out = shape[-1]
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)
