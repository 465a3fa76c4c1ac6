"""Adam and plain SGD over named parameter lists."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import NumericalError

__all__ = ["Adam", "SGD", "apply_l2"]


def _check_finite(name: str, grad: np.ndarray, step: int) -> None:
    if not np.all(np.isfinite(grad)):
        bad = int((~np.isfinite(grad)).sum())
        raise NumericalError(
            f"non-finite gradient for {name!r} at step {step}: {bad} bad entries, "
            f"|grad|max={np.abs(grad[np.isfinite(grad)]).max(initial=0.0):.3e}")


def apply_l2(named_params: list[tuple[str, Tensor]], l2: float) -> None:
    """Add the gradient of l2 * sum(w^2) to each parameter's gradient."""
    if l2 == 0.0:
        return
    for _, p in named_params:
        if p.grad is None:
            p.grad = np.zeros_like(p.data)
        p.grad += 2.0 * l2 * p.data


class SGD:
    def __init__(self, params: list[tuple[str, Tensor]], lr: float):
        self.params = params
        self.lr = lr
        self.step_count = 0

    def step(self) -> None:
        self.step_count += 1
        for name, p in self.params:
            if p.grad is None:
                continue
            _check_finite(name, p.grad, self.step_count)
            p.data -= self.lr * p.grad

    def state(self) -> dict:
        return {"mode": "sgd", "lr": self.lr, "step_count": self.step_count,
                "buffers": {}}

    def load_state(self, state: dict) -> None:
        self.lr = float(state["lr"])
        self.step_count = int(state["step_count"])


class Adam:
    """Standard Adam with bias correction; moments are kept per parameter
    name so checkpoints can restore them exactly."""

    def __init__(self, params: list[tuple[str, Tensor]], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step_count = 0
        # np.zeros, unlike zeros_like, maps the moments without writing them:
        # their pages are first touched by the first step
        self.m = {name: np.zeros(p.data.shape) for name, p in params}
        self.v = {name: np.zeros(p.data.shape) for name, p in params}

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in self.params:
            if p.grad is None:
                continue
            g = p.grad
            _check_finite(name, g, t)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def state(self) -> dict:
        buffers = {}
        for name in self.m:
            buffers[f"m:{name}"] = self.m[name]
            buffers[f"v:{name}"] = self.v[name]
        return {"mode": "adam", "lr": self.lr, "beta1": self.beta1,
                "beta2": self.beta2, "eps": self.eps,
                "step_count": self.step_count, "buffers": buffers}

    def load_state(self, state: dict) -> None:
        self.lr = float(state["lr"])
        self.beta1 = float(state["beta1"])
        self.beta2 = float(state["beta2"])
        self.eps = float(state["eps"])
        self.step_count = int(state["step_count"])
        for name in self.m:
            self.m[name] = state["buffers"][f"m:{name}"].copy()
            self.v[name] = state["buffers"][f"v:{name}"].copy()
