"""Quaternion-valued neural network layers.

A quaternion activation is one real Tensor whose axis 1 holds the component
blocks r|x|y|z of C channels each: (batch, 4C, freq, time) between conv
layers, (n, 4C) between dense layers; every layer takes and returns it.
``QTensor`` is the plane view of parameters, and of an activation for a
caller who passes one in (``_as_stacked``). Convolution and dense layers
apply the Hamilton product between a quaternion weight
``W = R + Xi + Yj + Zk`` and the input ``Q = r + xi + yj + zk``::

    W (*) Q = (Rr - Xx - Yy - Zz)
            + (Rx + Xr + Yz - Zy) i
            + (Ry - Xz + Yr + Zx) j
            + (Rz + Xy - Yx + Zr) k

The layers compute it as one real operation on the stacked input:
``hamilton_block`` builds the real weight with the 4x4 block structure
[[R,-X,-Y,-Z],[X,R,-Z,Y],[Y,Z,R,-X],[Z,-Y,X,R]] from the four weight
planes, and one ``conv2d`` (``linear``) applies it as stored, giving the
stacked output, and adds the concatenated bias planes into it in place, so
a layer records no bias-add node. The block is transient: once the product
has run, the layer drops it, and ``autodiff.backward`` rebuilds it from the
planes for the product's backward, so a training graph holds no block
weight. Two independent routes check this:
``selftest.hamilton_conv2d``/``hamilton_dense`` expand the product above
into 16 real convolutions (matrix products), and ``block_weight_matrix``
is a numpy oracle of the block weight that no layer calls.

Activations, pooling and dropout are "split": one real operation on the
stacked tensor, with PReLU slopes repeated over the four blocks and one
plane-sized dropout mask broadcast over them, so the four components of a
unit are kept or dropped together. A model block runs PReLU and dropout as
one ``autodiff.prelu`` node over a layer's fresh output (``QPReLU.block``,
the same for the real ``RealPReLU``), and its first block pools before
PReLU (``pooled_block``). With every slope > 0 that node's backward reads
its own output only, and no product's backward reads its output, so the
layer output is released and a conv or dense block holds one activation.

Weights come from a polar initializer: per weight, a purely imaginary
quaternion with components uniform in [0,1) is normalized to a unit axis
n, a phase theta is drawn uniform on [-pi, pi], and a magnitude phi is
drawn as sigma times a Chi(4) variate. Then::

    w_r = phi * cos(theta),   w_{x,y,z} = phi * n_{x,y,z} * sin(theta)

so |w| = phi and E|w|^2 = 4*sigma^2 exactly, with sigma = 1/sqrt(2*n_in)
under the He criterion (1/sqrt(2*(n_in+n_out)) under Glorot).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .autodiff import (Tensor, concat, conv2d, linear, maxpool1d, no_grad, prelu,
                       prelu_invertible)

__all__ = [
    "QTensor",
    "QConv2d",
    "QDense",
    "QPReLU",
    "hamilton_block",
    "maxpool_freq",
    "split_maxpool_freq",
    "unit_dropout",
    "quaternion_dropout",
    "quaternion_init",
    "InitSpec",
    "RealConv2d",
    "RealDense",
    "RealPReLU",
]


class QTensor:
    """A quaternion activation: one Tensor with the r|x|y|z blocks on axis 1
    (``QTensor.of``), or four leaf planes (parameters, ``from_arrays``) that
    ``stacked()`` concatenates afresh on every call. ``shape`` is the shape
    of one plane; ``components`` (``r``, ``x``, ``y``, ``z``) are the planes,
    sliced from a stacked Tensor."""

    __slots__ = ("_planes", "_stacked")

    def __init__(self, r: Tensor, x: Tensor, y: Tensor, z: Tensor):
        shapes = {r.shape, x.shape, y.shape, z.shape}
        if len(shapes) != 1:
            raise ValueError(f"QTensor planes must share one shape, got {shapes}")
        self._planes, self._stacked = (r, x, y, z), None

    @classmethod
    def of(cls, t: Tensor) -> "QTensor":
        """Wrap a stacked Tensor (its axis 1 holds the four blocks)."""
        if t.data.ndim < 2 or t.shape[1] % 4:
            raise ValueError(f"a stacked QTensor needs axis 1 divisible by 4, got {t.shape}")
        q = cls.__new__(cls)
        q._planes, q._stacked = None, t
        return q

    @classmethod
    def from_arrays(cls, r, x, y, z, requires_grad: bool = False) -> "QTensor":
        return cls(Tensor(r, requires_grad), Tensor(x, requires_grad),
                   Tensor(y, requires_grad), Tensor(z, requires_grad))

    def stacked(self) -> Tensor:
        return self._stacked if self._planes is None else concat(self._planes, axis=1)

    @property
    def shape(self) -> tuple[int, ...]:
        if self._planes is not None:
            return self._planes[0].shape
        b, c4, *rest = self._stacked.shape
        return (b, c4 // 4, *rest)

    def _plane(self, i: int) -> Tensor:
        if self._planes is not None:
            return self._planes[i]
        n = self._stacked.shape[1] // 4
        return self._stacked[:, i * n:(i + 1) * n]

    r = property(lambda self: self._plane(0))
    x = property(lambda self: self._plane(1))
    y = property(lambda self: self._plane(2))
    z = property(lambda self: self._plane(3))

    @property
    def components(self) -> tuple[Tensor, Tensor, Tensor, Tensor]:
        return tuple(self._plane(i) for i in range(4))

    def numpy(self) -> np.ndarray:
        """Stack the component planes along a leading axis of size 4."""
        with no_grad():
            return np.stack([c.data for c in self.components])


def maxpool_freq(t: Tensor, pool_width: int) -> Tensor:
    """Max pooling along the frequency axis (axis 2) of a (batch,
    channels, freq, time) Tensor; the time axis is untouched and a ragged
    frequency tail is truncated."""
    return maxpool1d(t, pool_width, axis=2)


def _as_stacked(x: Tensor | QTensor) -> tuple[Tensor, Callable[[Tensor], Tensor | QTensor]]:
    """The stacked Tensor of an activation, and the function that wraps a
    layer's answer back into the caller's type (``QTensor.of`` for a QTensor)."""
    if isinstance(x, QTensor):
        return x.stacked(), QTensor.of
    return x, lambda t: t


def split_maxpool_freq(x: Tensor, pool_width: int) -> Tensor:
    """Component-wise ``maxpool_freq`` of a stacked (batch, 4*q_channels, freq,
    time) activation; on a real activation, the same per-channel max pool."""
    t, wrap = _as_stacked(x)
    return wrap(maxpool_freq(t, pool_width))


def _dropout_keep(shape: tuple[int, ...], rate: float, rng: np.random.Generator | None,
                  training: bool) -> np.ndarray | None:
    """One Bernoulli(1-rate) draw per unit of ``shape``, as a bool mask of
    the kept units; None when dropout is the identity (not training, or
    rate 0). Every dropout of the model draws through here, with one
    ``rng.random(shape)`` call."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return None
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    return rng.random(shape) >= rate


def _dropout_scale(shape: tuple[int, ...], rate: float, rng: np.random.Generator | None,
                   training: bool) -> np.ndarray | None:
    """``_dropout_keep``'s mask as 0 or 1/(1-rate) per unit."""
    keep = _dropout_keep(shape, rate, rng, training)
    return None if keep is None else keep / (1.0 - rate)


def unit_dropout(t: Tensor, rate: float, rng: np.random.Generator | None,
                 training: bool) -> Tensor:
    """Inverted dropout of single real units: one draw per element."""
    scale = _dropout_scale(t.shape, rate, rng, training)
    return t if scale is None else t * Tensor(scale)


def quaternion_dropout(x: Tensor, rate: float, rng: np.random.Generator | None,
                       training: bool) -> Tensor:
    """Inverted dropout of whole quaternion units of a stacked activation.

    One draw per unit (over the plane shape), broadcast over the four
    component blocks, so a unit's components are kept or dropped together.
    It is one node that multiplies the (B, 4, C, ...) view of the stacked
    input by the plane-sized scale, which is all its backward keeps.
    Identity when not training or when rate is 0.
    """
    t, wrap = _as_stacked(x)
    b, c4, *rest = t.shape
    scale = _dropout_scale((b, c4 // 4, *rest), rate, rng, training)
    if scale is None:
        return x
    blocks = (b, 4, c4 // 4, *rest)   # the (B, 4, C, ...) view of t
    scale = scale[:, None]
    out = Tensor._result((t.data.reshape(blocks) * scale).reshape(t.shape), (t,))
    if out.requires_grad:
        out._backward = lambda: t._accum(
            (out.grad.reshape(blocks) * scale).reshape(t.shape), owned=True)
    return wrap(out)


@dataclass(frozen=True)
class InitSpec:
    """Fan-in/fan-out (in quaternion units x receptive field) and criterion."""

    n_in: int
    n_out: int
    criterion: str = "he"

    def sigma(self) -> float:
        if self.n_in < 1:
            raise ValueError(f"n_in must be >= 1, got {self.n_in}")
        if self.criterion == "he":
            return 1.0 / np.sqrt(2.0 * self.n_in)
        if self.criterion == "glorot":
            return 1.0 / np.sqrt(2.0 * (self.n_in + self.n_out))
        raise ValueError(f"unknown init criterion {self.criterion!r}")


def compose_polar(phi: np.ndarray, theta: np.ndarray,
                  axis: np.ndarray) -> tuple[np.ndarray, ...]:
    """Combine magnitude, phase and unit imaginary axis into components:
    (phi*cos(theta), phi*axis*sin(theta))."""
    w_r = phi * np.cos(theta)
    sin_t = phi * np.sin(theta)
    return (w_r, sin_t * axis[..., 0], sin_t * axis[..., 1], sin_t * axis[..., 2])


def quaternion_init(spec: InitSpec, shape: tuple[int, ...],
                    rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Draw the four component arrays of a quaternion weight tensor.

    Returns (r, x, y, z) arrays of the given shape. Degenerate
    zero-length imaginary draws are re-sampled.
    """
    sigma = spec.sigma()
    phi = sigma * np.sqrt((rng.standard_normal(shape + (4,)) ** 2).sum(axis=-1))
    theta = rng.uniform(-np.pi, np.pi, size=shape)

    axis = rng.random(shape + (3,))
    nrm = np.linalg.norm(axis, axis=-1)
    while True:
        bad = nrm < 1e-12
        if not bad.any():
            break
        axis[bad] = rng.random((int(bad.sum()), 3))
        nrm = np.linalg.norm(axis, axis=-1)
    axis = axis / nrm[..., None]
    return compose_polar(phi, theta, axis)


def _he_real_init(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)


# (plane, sign) of each block of the real weight: row a of blocks maps the
# four input planes to output plane a.
_HAMILTON_BLOCKS = (
    ((0, 1.0), (1, -1.0), (2, -1.0), (3, -1.0)),
    ((1, 1.0), (0, 1.0), (3, -1.0), (2, 1.0)),
    ((2, 1.0), (3, 1.0), (0, 1.0), (1, -1.0)),
    ((3, 1.0), (2, -1.0), (1, 1.0), (0, 1.0)),
)


def hamilton_block(planes: Sequence[Tensor]) -> Tensor:
    """Real block weight of a quaternion weight, as one autodiff node.

    Planes (out_q, in_q, ...) give a (4*out_q, 4*in_q, ...) weight whose
    block (a, b) is a signed copy of one plane, following
    [[R,-X,-Y,-Z],[X,R,-Z,Y],[Y,Z,R,-X],[Z,-Y,X,R]]. A recorded block is
    transient: a layer may ``drop`` it once its product has run, and
    ``backward`` rebuilds it bit for bit from the planes by the same signed
    copies. The backward pass adds or subtracts each block's gradient into
    its plane's gradient in place.
    """
    planes = tuple(planes)
    plane_shape = planes[0].data.shape
    rows, cols, *rest = plane_shape

    def build() -> np.ndarray:
        blocks = np.empty((4, rows, 4, cols, *rest))
        for a, row in enumerate(_HAMILTON_BLOCKS):
            for b, (p, sign) in enumerate(row):
                np.multiply(planes[p].data, sign, out=blocks[a, :, b])
        return blocks.reshape(4 * rows, 4 * cols, *rest)

    out = Tensor._result(build(), planes, rebuild=build)
    if out.requires_grad:
        def bw():
            g = out.grad.reshape(4, rows, 4, cols, *rest)
            folded = [np.zeros(plane_shape) for _ in planes]
            for a, row in enumerate(_HAMILTON_BLOCKS):
                for b, (p, sign) in enumerate(row):
                    fold = np.add if sign > 0 else np.subtract
                    fold(folded[p], g[a, :, b], out=folded[p])
            for t, gp in zip(planes, folded):
                t._accum(gp, owned=True)
        out._backward = bw
    return out


def _hamilton_layer(x: Tensor, w: QTensor, bias: QTensor | None,
                    product: Callable[..., Tensor]) -> Tensor:
    """``product(x, block, bias=b)`` (``linear``, or ``conv2d`` with its
    padding bound) of the stacked input, the block weight and the
    concatenated bias planes (None without a bias), then drop the block (the
    backward rebuilds it). The product adds the bias in place, so a layer
    records no bias-add node."""
    if x.data.ndim < 2 or x.shape[1] != 4 * w.shape[1]:
        raise ValueError(f"expected {w.shape[1]} quaternion channels, {4 * w.shape[1]} "
                         f"on axis 1 of the stacked input, got shape {x.shape}")
    block = hamilton_block(w.components)
    out = product(x, block, bias=None if bias is None else concat(bias.components, axis=0))
    block.drop()
    return out


class _QLayer:
    """Weight planes ``w`` from the polar initializer and, if asked, zero
    bias planes ``bias``: one quaternion per output channel."""

    def __init__(self, spec: InitSpec, shape: tuple[int, ...], bias_shape: tuple[int, ...],
                 rng: np.random.Generator, bias: bool):
        planes = quaternion_init(spec, shape, rng)
        self.w = QTensor(*(Tensor(p, requires_grad=True) for p in planes))
        self.bias = None
        if bias:
            self.bias = QTensor(*(Tensor(np.zeros(bias_shape), requires_grad=True)
                                  for _ in range(4)))

    def parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        named = [(f"{prefix}.w.{c}", t) for c, t in zip("rxyz", self.w.components)]
        if self.bias is not None:
            named += [(f"{prefix}.b.{c}", t) for c, t in zip("rxyz", self.bias.components)]
        return named

    def weight_count(self) -> int:
        return sum(t.size for t in self.w.components)


class QConv2d(_QLayer):
    """Quaternion 2-D convolution via the Hamilton product, stride 1 with
    'same' zero padding.

    Weight planes have shape (out_q, in_q, kh, kw); bias planes (out_q, 1, 1).
    """

    def __init__(self, in_q: int, out_q: int, kernel: tuple[int, int],
                 rng: np.random.Generator, bias: bool = True):
        kh, kw = kernel
        if kh % 2 == 0 or kw % 2 == 0:
            raise ValueError("'same' padding needs odd kernel extents")
        self.padding = ((kh - 1) // 2, (kw - 1) // 2)
        super().__init__(InitSpec(n_in=in_q * kh * kw, n_out=out_q * kh * kw),
                         (out_q, in_q, kh, kw), (out_q, 1, 1), rng, bias)

    def __call__(self, x: Tensor) -> Tensor:
        t, wrap = _as_stacked(x)
        return wrap(_hamilton_layer(t, self.w, self.bias, partial(conv2d, padding=self.padding)))


class QDense(_QLayer):
    """Quaternion dense layer: Hamilton matrix-vector product plus bias.

    Inputs are row-major batches, (n, in_q) per component plane; weight
    planes have shape (out_q, in_q), bias planes (out_q,).
    """

    def __init__(self, in_q: int, out_q: int, rng: np.random.Generator, bias: bool = True):
        super().__init__(InitSpec(n_in=in_q, n_out=out_q), (out_q, in_q), (out_q,), rng, bias)

    def __call__(self, x: Tensor) -> Tensor:
        t, wrap = _as_stacked(x)
        return wrap(_hamilton_layer(t, self.w, self.bias, linear))


class _PReLU:
    repeat = 1   # the blocks of axis 1 that share one slope and one dropout draw

    def __init__(self, n_channels: int, init: float = 0.25):
        self.slopes = Tensor(np.full(n_channels, init), requires_grad=True)

    def parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [(f"{prefix}.slopes", self.slopes)]

    def __call__(self, x: Tensor) -> Tensor:
        t, wrap = _as_stacked(x)
        return wrap(prelu(t, self.slopes, repeat=self.repeat))

    def block(self, z: Tensor, rate: float, rng: np.random.Generator | None,
              training: bool) -> Tensor:
        """PReLU, then inverted dropout at ``rate``, of a layer's fresh output
        ``z`` that nothing else reads, as one ``prelu`` node that takes z's
        buffer. The mask is drawn per unit of the plane shape, shared by the
        ``repeat`` blocks, by the same rng call as ``quaternion_dropout`` or
        ``unit_dropout``. With every slope > 0 the block holds its output
        only; otherwise it also holds z and the mask."""
        b, c, *rest = z.shape
        keep = _dropout_keep((b, c // self.repeat, *rest), rate, rng, training)
        return prelu(z, self.slopes, repeat=self.repeat, keep=keep,
                     scale=1.0 / (1.0 - rate), consume=True)

    def pooled_block(self, z: Tensor, pool: Callable[[Tensor], Tensor]) -> Tensor:
        """PReLU and a max ``pool`` of a layer's fresh output ``z`` that
        nothing else reads. With every slope > 0 PReLU is strictly
        increasing, so it commutes with the max: the pool runs first, z is
        released, and the block holds the pooled output and the pool's
        argmax. Otherwise PReLU runs first and its output is released after
        the pool."""
        if prelu_invertible(self.slopes):
            pooled = pool(z)
            z.release()
            return prelu(pooled, self.slopes, repeat=self.repeat, consume=True)
        act = prelu(z, self.slopes, repeat=self.repeat, consume=True)
        pooled = pool(act)
        act.release()
        return pooled


class QPReLU(_PReLU):
    """Split PReLU with one learnable slope per quaternion channel.

    The slope is shared by the four components of a channel: ``prelu``
    repeats the slopes over the four blocks of the stacked input's axis 1.
    """

    repeat = 4


# -- real-valued counterparts (baseline model and output head) ------------


class _RealLayer:
    def parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        named = [(f"{prefix}.w", self.w)]
        if self.b is not None:
            named.append((f"{prefix}.b", self.b))
        return named

    def weight_count(self) -> int:
        return self.w.size


class RealConv2d(_RealLayer):
    """Real 2-D convolution, stride 1 with 'same' zero padding."""

    def __init__(self, c_in: int, c_out: int, kernel: tuple[int, int],
                 rng: np.random.Generator, bias: bool = True):
        kh, kw = kernel
        self.padding = ((kh - 1) // 2, (kw - 1) // 2)
        self.w = Tensor(_he_real_init((c_out, c_in, kh, kw), c_in * kh * kw, rng),
                        requires_grad=True)
        self.b = Tensor(np.zeros((c_out, 1, 1)), requires_grad=True) if bias else None

    def __call__(self, t: Tensor) -> Tensor:
        return conv2d(t, self.w, padding=self.padding, bias=self.b)


class RealDense(_RealLayer):
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator, bias: bool = True):
        self.n_in, self.n_out = n_in, n_out
        self.w = Tensor(_he_real_init((n_out, n_in), n_in, rng), requires_grad=True)
        self.b = Tensor(np.zeros(n_out), requires_grad=True) if bias else None

    def __call__(self, t: Tensor) -> Tensor:
        return linear(t, self.w, bias=self.b)


class RealPReLU(_PReLU):
    """PReLU with one learnable slope per real channel."""


def block_weight_matrix(planes: Sequence[np.ndarray]) -> np.ndarray:
    """Real block matrix equivalent of a quaternion weight.

    For dense planes (out_q, in_q) returns the (4*out_q, 4*in_q) matrix
    [[R,-X,-Y,-Z],[X,R,-Z,Y],[Y,Z,R,-X],[Z,-Y,X,R]]; for conv planes
    (out_q, in_q, kh, kw) the blocks are stacked along the channel axes,
    giving a (4*out_q, 4*in_q, kh, kw) kernel.
    """
    R, X, Y, Z = planes
    rows = [
        [R, -X, -Y, -Z],
        [X, R, -Z, Y],
        [Y, Z, R, -X],
        [Z, -Y, X, R],
    ]
    return np.concatenate([np.concatenate(row, axis=1) for row in rows], axis=0)
