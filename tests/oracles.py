"""Reference implementations that tests compare the package against."""

import math
from typing import Callable

import numpy as np

from roadgrade.errors import NumericError
from roadgrade.tensor import Tensor


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
