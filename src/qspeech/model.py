"""Acoustic model assembly, one class for both algebras.

The stack is: one conv block, max pooling along the frequency axis, the
remaining conv blocks, then the dense layers applied per time step, and
one real affine output layer producing per-frame class logits (symbols
plus blank). Every conv/dense block uses PReLU; dropout and L2
regularization cover the hidden layers only, never the first conv or the
output head. Nothing pools the time axis, so there is one logit row per
input frame. A block's PReLU and dropout are one node that takes the layer
output's buffer (``qlayers._PReLU.block``); the first block pools before
PReLU when every slope is > 0, which gives the same values
(``pooled_block``).

``build_model`` builds it from quaternion layers (slopes and dropout draws
shared by a unit's four components); ``build_real_model`` builds the real
twin from real layers with 4x the channel/width counts (one slope and
dropout draw per real unit). Both take the same stacked features, and every
activation inside is one Tensor (stacked r|x|y|z for quaternion layers), so
``forward`` is one code path, pooling through ``split_maxpool_freq``.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .config import ModelConfig
from .qlayers import (QConv2d, QDense, QPReLU, QTensor, RealConv2d, RealDense,
                      RealPReLU, split_maxpool_freq)
# Bound here, though the blocks fuse dropout into PReLU, because profiling
# wrappers patch this module's name.
from .qlayers import quaternion_dropout  # noqa: F401

__all__ = ["CNNModel", "build_model", "build_real_model", "count_params"]

# Layer classes, and the width factor from the config's quaternion units.
_ALGEBRAS = {
    "quaternion": (QConv2d, QDense, QPReLU, 1),
    "real": (RealConv2d, RealDense, RealPReLU, 4),
}


class CNNModel:
    def __init__(self, cfg: ModelConfig, n_classes: int, rng: np.random.Generator,
                 algebra: str = "quaternion"):
        cfg.validate()
        self.cfg = cfg
        self.n_classes = n_classes
        self.algebra = algebra
        conv_cls, dense_cls, prelu_cls, width = _ALGEBRAS[algebra]

        fm, kernel = width * cfg.conv_channels, (cfg.kernel_freq, cfg.kernel_time)
        self.convs = []
        self.conv_acts = []
        c_in = width * cfg.in_channels
        for _ in range(cfg.n_conv_layers):
            self.convs.append(conv_cls(c_in, fm, kernel, rng))
            self.conv_acts.append(prelu_cls(fm, cfg.prelu_init))
            c_in = fm

        pooled_freq = cfg.in_freq // cfg.pool_width
        d_out = width * cfg.dense_width
        self.denses = []
        self.dense_acts = []
        d_in = fm * pooled_freq
        for _ in range(cfg.n_dense_layers):
            self.denses.append(dense_cls(d_in, d_out, rng))
            self.dense_acts.append(prelu_cls(d_out, cfg.prelu_init))
            d_in = d_out

        self.head = RealDense(4 * cfg.dense_width, n_classes, rng)

    def forward(self, feats: QTensor, training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        """Map (batch, 4*in_channels, freq, time) stacked features to
        (batch, time, n_classes) logits."""
        cfg = self.cfg
        # The pool is looked up at call time, so a wrapper installed on this
        # module's name sees every pool call.
        pool = lambda t: split_maxpool_freq(t, cfg.pool_width)  # noqa: E731
        # Each layer output goes straight into its activation, which takes
        # its buffer: no reference to it outlives the block.
        x = feats.stacked()
        for i, (conv, act) in enumerate(zip(self.convs, self.conv_acts)):
            if i == 0:
                x = act.pooled_block(conv(x), pool)
            else:
                x = act.block(conv(x), cfg.dropout, rng, training)

        b, c, f, t = x.shape
        x = x.transpose((0, 3, 1, 2)).reshape((b * t, c * f))
        for dense, act in zip(self.denses, self.dense_acts):
            x = act.block(dense(x), cfg.dropout, rng, training)

        logits = self.head(x)
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
        """Weights of the hidden layers (all but the first conv and the
        output head); biases and PReLU slopes are never penalized."""
        named: list[tuple[str, Tensor]] = []
        for i, conv in enumerate(self.convs[1:], start=1):
            named += conv.parameters(f"conv{i}")
        for i, dense in enumerate(self.denses):
            named += dense.parameters(f"dense{i}")
        # Weight names are "<layer>.w" (real) or "<layer>.w.<component>".
        return [(n, t) for n, t in named if n.split(".")[1] == "w"]

    def layer_table(self) -> list[tuple[str, str, int]]:
        """(name, description, trainable scalar count) per block."""
        cfg = self.cfg
        q = "q" if self.algebra == "quaternion" else ""
        rows = []
        for i, (conv, act) in enumerate(zip(self.convs, self.conv_acts)):
            n = sum(t.size for _, t in conv.parameters("x") + act.parameters("x"))
            n_out, n_in = conv.w.shape[:2]
            rows.append((f"conv{i}", f"{q}conv {n_in}{q}->{n_out}{q} "
                         f"{cfg.kernel_freq}x{cfg.kernel_time} + prelu", n))
        for i, (dense, act) in enumerate(zip(self.denses, self.dense_acts)):
            n = sum(t.size for _, t in dense.parameters("x") + act.parameters("x"))
            n_out, n_in = dense.w.shape
            rows.append((f"dense{i}", f"{q}dense {n_in}{q}->{n_out}{q} + prelu", n))
        rows.append(("head", f"real affine {self.head.n_in}->{self.head.n_out}",
                     sum(t.size for _, t in self.head.parameters("x"))))
        return rows


def build_model(cfg: ModelConfig, n_classes: int, rng: np.random.Generator) -> CNNModel:
    return CNNModel(cfg, n_classes, rng)


def build_real_model(cfg: ModelConfig, n_classes: int,
                     rng: np.random.Generator) -> CNNModel:
    return CNNModel(cfg, n_classes, rng, algebra="real")


def count_params(model) -> int:
    """Exact number of trainable real scalars."""
    return sum(t.size for _, t in model.parameters())
