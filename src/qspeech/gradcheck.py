"""Central finite-difference gradient checking.

Used by the test suite and by the ``selftest`` command. The forward
callable must be deterministic: it is re-evaluated twice per perturbed
element.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .autodiff import Tensor, backward, no_grad, zero_grads


def numeric_grad(fn: Callable[[], Tensor], t: Tensor, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar ``fn()`` wrt ``t.data``.

    The forwards run under ``no_grad``: they need values, not graphs.
    """
    g = np.zeros_like(t.data)
    flat = t.data.reshape(-1)
    gf = g.reshape(-1)
    with no_grad():
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + eps
            hi = fn().data.item()
            flat[i] = old - eps
            lo = fn().data.item()
            flat[i] = old
            gf[i] = (hi - lo) / (2.0 * eps)
    return g


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max abs difference scaled by the largest gradient magnitude."""
    scale = max(float(np.abs(analytic).max(initial=0.0)),
                float(np.abs(numeric).max(initial=0.0)), 1e-12)
    return float(np.abs(analytic - numeric).max(initial=0.0) / scale)


def check_gradients(fn: Callable[[], Tensor], wrt: Sequence[Tensor],
                    eps: float = 1e-5) -> float:
    """Worst relative error between analytic and numeric gradients.

    ``fn`` must build a fresh scalar loss from the tensors in ``wrt``
    every time it is called.
    """
    zero_grads(wrt)
    backward(fn())
    worst = 0.0
    for t in wrt:
        if not t.requires_grad:
            raise ValueError("check_gradients: tensor does not require grad")
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        worst = max(worst, rel_error(analytic, numeric_grad(fn, t, eps)))
    return worst
