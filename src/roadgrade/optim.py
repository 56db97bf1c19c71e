"""Named parameters in one flat buffer, and the Adam update rule, which
runs once over that buffer and two moment buffers laid out like it."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np

from .errors import NumericError
from .tensor import Tensor

# Adam's moment decay rates and denominator offset
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class ParamSet:
    """Named parameter tensors plus flat Adam moments.

    Each parameter's `.data` is a view into `values`, in the dict's order,
    and is never rebound.  `step` increases by exactly one per Adam step.
    """

    def __init__(self, params: dict[str, Tensor]):
        self.params = params
        self.values = np.concatenate([p.data for p in params.values()],
                                     axis=None)
        self.first_moment = np.zeros_like(self.values)
        self.second_moment = np.zeros_like(self.values)
        self.step = 0
        ends = np.cumsum([p.data.size for p in params.values()])
        for p, part in zip(params.values(), np.split(self.values, ends)):
            p.data = part.reshape(p.shape)
            p.requires_grad = True

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    @contextmanager
    def frozen(self) -> Iterator[None]:
        """No parameter requires a gradient inside, so forwards that no
        backward follows record no autodiff tape; all require one after."""
        for p in self.params.values():
            p.requires_grad = False
        try:
            yield
        finally:
            for p in self.params.values():
                p.requires_grad = True

    def copy_values(self) -> np.ndarray:
        return self.values.copy()

    def load_values(self, values: np.ndarray) -> None:
        """Copy `values`, laid out like `self.values`, into it."""
        self.values[...] = values


def adam_step(params: ParamSet, lr: float) -> ParamSet:
    """One bias-corrected Adam update from every parameter's `.grad`.

    A non-finite gradient is refused, by parameter name, before any state
    changes.  The update is elementwise, so one pass over the flat buffers
    gives bitwise the values of a per-parameter loop.
    """
    g = np.concatenate([p.grad for p in params.params.values()], axis=None)
    if not np.all(np.isfinite(g)):
        name = next(name for name, p in params.params.items()
                    if not np.all(np.isfinite(p.grad)))
        raise NumericError(f"non-finite gradient for {name!r}")
    params.step += 1
    t = params.step
    m, v = params.first_moment, params.second_moment
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    v += (1.0 - BETA2) * g * g
    m_hat = m / (1.0 - BETA1 ** t)
    v_hat = v / (1.0 - BETA2 ** t)
    params.values -= lr * m_hat / (np.sqrt(v_hat) + EPS)
    return params
