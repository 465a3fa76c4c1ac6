"""Acoustic model assembly.

The quaternion stack is: one quaternion conv block, max pooling along the
frequency axis, the remaining conv blocks, then the dense quaternion
layers applied per time step, and one real affine output layer on the
stacked r|x|y|z features producing per-frame class logits (symbols plus
blank). Activations stay in the stacked layout of ``qlayers.QTensor``
throughout. Every conv/dense block uses the split PReLU; dropout and L2
regularization cover the hidden layers only, never the first conv or the
output head. Nothing pools the time axis, so there is one logit row per
input frame.

``build_real_model`` constructs the real-valued counterpart with 4x the
channel/width counts, used for parameter-ratio comparisons and baselines.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .config import ModelConfig
from .qlayers import (QConv2d, QDense, QPReLU, QTensor, RealConv2d, RealDense,
                      RealPReLU, quaternion_dropout, split_maxpool_freq)

__all__ = ["QCNNModel", "RealCNNModel", "build_model", "build_real_model", "count_params"]


class QCNNModel:
    def __init__(self, cfg: ModelConfig, n_classes: int, rng: np.random.Generator):
        cfg.validate()
        self.cfg = cfg
        self.n_classes = n_classes

        fm, kernel = cfg.conv_channels, (cfg.kernel_freq, cfg.kernel_time)
        self.convs: list[QConv2d] = []
        self.conv_acts: list[QPReLU] = []
        in_q = cfg.in_channels
        for _ in range(cfg.n_conv_layers):
            self.convs.append(QConv2d(in_q, fm, kernel, rng))
            self.conv_acts.append(QPReLU(fm, cfg.prelu_init))
            in_q = fm

        pooled_freq = cfg.in_freq // cfg.pool_width
        self.dense_in = fm * pooled_freq
        self.denses: list[QDense] = []
        self.dense_acts: list[QPReLU] = []
        d_in = self.dense_in
        for _ in range(cfg.n_dense_layers):
            self.denses.append(QDense(d_in, cfg.dense_width, rng))
            self.dense_acts.append(QPReLU(cfg.dense_width, cfg.prelu_init))
            d_in = cfg.dense_width

        self.head = RealDense(4 * cfg.dense_width, n_classes, rng)

    def forward(self, feats: QTensor, training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        """Map (batch, 4*in_channels, freq, time) stacked features to
        (batch, time, n_classes) logits."""
        cfg = self.cfg
        q = feats
        for i, (conv, act) in enumerate(zip(self.convs, self.conv_acts)):
            q = act(conv(q))
            if i == 0:
                q = split_maxpool_freq(q, cfg.pool_width)
            else:
                q = quaternion_dropout(q, cfg.dropout, rng, training)

        x = q.stacked()
        b, c4, f, t = x.shape
        q = QTensor.of(x.transpose((0, 3, 1, 2)).reshape((b * t, c4 * f)))
        for dense, act in zip(self.denses, self.dense_acts):
            q = act(dense(q))
            q = quaternion_dropout(q, cfg.dropout, rng, training)

        logits = self.head(q.stacked())
        return logits.reshape((b, t, self.n_classes))

    def parameters(self) -> list[tuple[str, Tensor]]:
        named: list[tuple[str, Tensor]] = []
        for i, (conv, act) in enumerate(zip(self.convs, self.conv_acts)):
            named += conv.parameters(f"conv{i}")
            named += act.parameters(f"conv{i}.act")
        for i, (dense, act) in enumerate(zip(self.denses, self.dense_acts)):
            named += dense.parameters(f"dense{i}")
            named += act.parameters(f"dense{i}.act")
        named += self.head.parameters("head")
        return named

    def regularized_parameters(self) -> list[tuple[str, Tensor]]:
        """Weight planes of the hidden layers (all but the first conv and
        the output head); biases and PReLU slopes are never penalized."""
        named: list[tuple[str, Tensor]] = []
        for i, conv in enumerate(self.convs[1:], start=1):
            named += [(n, t) for n, t in conv.parameters(f"conv{i}") if ".w." in n]
        for i, dense in enumerate(self.denses):
            named += [(n, t) for n, t in dense.parameters(f"dense{i}") if ".w." in n]
        return named

    def layer_table(self) -> list[tuple[str, str, int]]:
        """(name, description, trainable scalar count) per block."""
        cfg = self.cfg
        rows = []
        for i, (conv, act) in enumerate(zip(self.convs, self.conv_acts)):
            n = sum(t.size for _, t in conv.parameters("x") + act.parameters("x"))
            rows.append((f"conv{i}", f"qconv {conv.in_q}q->{conv.out_q}q "
                         f"{cfg.kernel_freq}x{cfg.kernel_time} + prelu", n))
        for i, (dense, act) in enumerate(zip(self.denses, self.dense_acts)):
            n = sum(t.size for _, t in dense.parameters("x") + act.parameters("x"))
            rows.append((f"dense{i}", f"qdense {dense.in_q}q->{dense.out_q}q + prelu", n))
        rows.append(("head", f"real affine {self.head.n_in}->{self.head.n_out}",
                     sum(t.size for _, t in self.head.parameters("x"))))
        return rows


class RealCNNModel:
    """Real-valued twin with 4x channel/width counts (same real-equivalent
    layer geometry as the quaternion model)."""

    def __init__(self, cfg: ModelConfig, n_classes: int, rng: np.random.Generator):
        cfg.validate()
        self.cfg = cfg
        self.n_classes = n_classes
        fm, kernel = 4 * cfg.conv_channels, (cfg.kernel_freq, cfg.kernel_time)
        self.convs: list[RealConv2d] = []
        self.conv_acts: list[RealPReLU] = []
        c_in = 4 * cfg.in_channels
        for _ in range(cfg.n_conv_layers):
            self.convs.append(RealConv2d(c_in, fm, kernel, rng))
            self.conv_acts.append(RealPReLU(fm, cfg.prelu_init))
            c_in = fm

        pooled_freq = cfg.in_freq // cfg.pool_width
        self.denses: list[RealDense] = []
        self.dense_acts: list[RealPReLU] = []
        d_in = fm * pooled_freq
        for _ in range(cfg.n_dense_layers):
            self.denses.append(RealDense(d_in, 4 * cfg.dense_width, rng))
            self.dense_acts.append(RealPReLU(4 * cfg.dense_width, cfg.prelu_init))
            d_in = 4 * cfg.dense_width
        self.head = RealDense(4 * cfg.dense_width, n_classes, rng)

    def forward(self, feats: Tensor, training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        from .autodiff import maxpool1d
        cfg = self.cfg
        x = feats
        for i, (conv, act) in enumerate(zip(self.convs, self.conv_acts)):
            x = act(conv(x))
            if i == 0:
                x = maxpool1d(x, cfg.pool_width, axis=2)
            elif training and cfg.dropout > 0.0:
                mask = (rng.random(x.shape) >= cfg.dropout) / (1.0 - cfg.dropout)
                x = x * Tensor(mask)
        b, c, f, t = x.shape
        x = x.transpose((0, 3, 1, 2)).reshape((b * t, c * f))
        for dense, act in zip(self.denses, self.dense_acts):
            x = act(dense(x))
            if training and cfg.dropout > 0.0:
                mask = (rng.random(x.shape) >= cfg.dropout) / (1.0 - cfg.dropout)
                x = x * Tensor(mask)
        return self.head(x).reshape((b, t, self.n_classes))

    def parameters(self) -> list[tuple[str, Tensor]]:
        named: list[tuple[str, Tensor]] = []
        for i, (conv, act) in enumerate(zip(self.convs, self.conv_acts)):
            named += conv.parameters(f"conv{i}") + act.parameters(f"conv{i}.act")
        for i, (dense, act) in enumerate(zip(self.denses, self.dense_acts)):
            named += dense.parameters(f"dense{i}") + act.parameters(f"dense{i}.act")
        named += self.head.parameters("head")
        return named


def build_model(cfg: ModelConfig, n_classes: int, rng: np.random.Generator) -> QCNNModel:
    return QCNNModel(cfg, n_classes, rng)


def build_real_model(cfg: ModelConfig, n_classes: int,
                     rng: np.random.Generator) -> RealCNNModel:
    return RealCNNModel(cfg, n_classes, rng)


def count_params(model) -> int:
    """Exact number of trainable real scalars."""
    return sum(t.size for _, t in model.parameters())
