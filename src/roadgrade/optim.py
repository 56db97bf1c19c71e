"""Named parameter collections and the Adam update rule."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import NumericError
from .tensor import Tensor

# Adam's moment decay rates and denominator offset
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class ParamSet:
    """Named parameter tensors plus per-parameter Adam moments.

    Moment arrays always mirror the parameter shapes; `step` increases by
    exactly one per optimizer step.
    """

    params: dict[str, Tensor]
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0

    def __post_init__(self):
        for name, p in self.params.items():
            p.requires_grad = True
            self.first_moment.setdefault(name, np.zeros_like(p.data))
            self.second_moment.setdefault(name, np.zeros_like(p.data))

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

    def gradients(self) -> dict[str, np.ndarray]:
        """Current gradients, with zeros for parameters not touched."""
        return {
            name: (np.zeros_like(p.data) if p.grad is None else p.grad)
            for name, p in self.params.items()
        }

    def copy_values(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params.items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        if values.keys() != self.params.keys():
            raise ValueError("parameter names differ: "
                             f"{sorted(values.keys() ^ self.params.keys())}")
        for name, p in self.params.items():
            incoming = values[name]
            if incoming.shape != p.data.shape:
                raise ValueError(f"shape mismatch for parameter {name!r}")
            p.data = incoming.copy()


def adam_step(params: ParamSet, grads: dict[str, np.ndarray],
              lr: float) -> ParamSet:
    """One bias-corrected Adam update over every named parameter."""
    if lr <= 0:
        raise ValueError("lr must be positive")
    for name, p in params.params.items():
        g = grads.get(name)
        if g is None or g.shape != p.data.shape:
            raise ValueError(f"gradient missing or mis-shaped for {name!r}")
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for {name!r}")
    params.step += 1
    t = params.step
    for name, p in params.params.items():
        g = grads[name]
        m = params.first_moment[name]
        v = params.second_moment[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        m_hat = m / (1.0 - BETA1 ** t)
        v_hat = v / (1.0 - BETA2 ** t)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + EPS)
    return params
