"""Dense real tensors with reverse-mode automatic differentiation.

Define-by-run: each differentiable operation returns a new :class:`Tensor`
that records its parents and a backward closure. ``backward(loss)`` walks
the recorded graph once in reverse topological order, so every recorded
input receives its gradient contribution exactly once per downstream use.
Distinct graphs are independent; the only shared state is the recording
flag ``no_grad`` sets, a context variable, so one thread's block does not
switch recording off in another.

Graph lifetime is explicit. Inside a ``with no_grad():`` block no graph is
recorded at all: results have ``requires_grad`` False and no parents, so
inference keeps no activations alive. ``backward`` consumes the graph it
walks: as soon as a node's closure has run, the node drops its closure,
its parents and (unless it is a leaf) its gradient, so the arrays the
closure saved are freed by reference counting during the backward pass.
A graph therefore supports one ``backward``; leaf gradients stay until
``zero_grads``.

All data is stored as contiguous float64 numpy arrays. numpy supplies the
array arithmetic; the differentiation rules live here.

Each op keeps only what its backward reads. The two layer products,
``linear`` and ``conv2d``, share one bias rule: an optional bias of one
value per output channel, added in place into the product's output, so it
makes no node of its own, with its gradient summed in the product's
backward. Neither backward reads the product's output. ``conv2d`` computes
stride-1 cross-correlation (no kernel flip) with zero padding of at most
``k - 1``, the usual deep-learning convention.
All three of its passes read one column-block routine, ``_col_blocks``,
which copies the im2col matrix of one zero-padded utterance into one reused
buffer of about ``_COL_BYTES``, a run of output frequency rows at a time.
The forward is one GEMM per block, written straight into that utterance's
rows of the (B, c_out, F, T) output; the input gradient is the same routine
on the output gradient with the flipped kernel; the weight gradient sums
the output gradient's rows times each block of the input. No pass makes a
temporary as large as an activation, and the backward closure keeps no
array; the graph holds the input anyway, as the node's parent. ``prelu``
runs PReLU and an optional inverted dropout as one node. With every slope
> 0 the activation keeps the sign of its input, so its backward reads only
its own output and the slopes, not its input and not a mask (the in-place
activation of Rota Bulo et al., arXiv:1712.02616); with a slope <= 0 it
keeps its input and a bool mask and rebuilds its gain from the input.
Products skip the gradient of an operand that does not require one (a
dropout mask, say).

A node's data can be freed once the forward has read it
(``Tensor.release``: the data is set to None). An op that can recompute its
output bit for bit from its parents records a ``rebuild`` function with
the node, and ``backward`` rebuilds such a released node just before the
first of its children runs its closure, and runs the node's own closure
right after the child that reached it in the walk (for a node with one
child, right after the child that rebuilt it), so the rebuilt array and
its gradient live only that long. The quaternion layers release their
block weight this way (``qlayers.hamilton_block``). A released node with
no ``rebuild`` stays without data, so only a node whose data no backward
reads may be released: ``prelu(..., consume=True)`` writes its output into
its input's buffer and releases the input when its backward does not need
it, and a caller may release the input of ``maxpool1d``. That is how a
model block keeps one activation: the conv output is read by no backward
once PReLU runs from its output.

A gradient takes its first contribution instead of adding it to zeros.
An array the op allocated for that contribution alone becomes the
gradient as it is; ``out.grad``, views of it and broadcasts are copied, so
no two gradients share a buffer. ``graph_nbytes`` counts what a graph
holds for its backward.
"""

from __future__ import annotations

import types
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["Tensor", "backward", "no_grad", "linear", "prelu", "prelu_invertible",
           "conv2d", "maxpool1d", "concat", "graph_nbytes"]

_grad_enabled: ContextVar[bool] = ContextVar("qspeech_grad_enabled", default=True)


@contextmanager
def no_grad() -> Iterator[None]:
    """Record no graph inside the block (forward-only evaluation).

    Leaves keep their own ``requires_grad``; only operation results are
    affected. Nested blocks and exceptions restore the previous state.
    """
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over axes that were broadcast up from ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A float64 array node in a dynamically recorded computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_rebuild")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr) if arr.ndim else arr.copy()
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple["Tensor", ...] = ()
        self._backward = None
        self._rebuild = None

    # -- graph plumbing ---------------------------------------------------

    @staticmethod
    def _result(data, parents: tuple["Tensor", ...], rebuild=None) -> "Tensor":
        """A new node over ``parents``. ``rebuild`` recomputes ``data`` from
        the parents, bit for bit; ``backward`` calls it when a child's
        closure would read the released data of the node."""
        out = Tensor(data)
        out._rebuild = rebuild
        if _grad_enabled.get() and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
        return out

    def release(self) -> None:
        """Free the node's data (it keeps its gradient and its place in the
        graph). ``backward`` rebuilds the data of a node that has a
        ``rebuild`` before the first child closure runs, and runs any other
        node's closure without it: only the caller can know that no backward
        reads the data of such a node."""
        self.data = None

    def _accum(self, g: np.ndarray, owned: bool = False) -> None:
        """Add a gradient contribution. ``owned`` says the op allocated
        ``g`` for this call alone: a first contribution is then taken as it
        is (when it is a C-contiguous array), any other first one is copied,
        so no two gradients share a buffer."""
        if self.requires_grad:
            if self.grad is None:
                take = owned and isinstance(g, np.ndarray) and g.flags.c_contiguous
                self.grad = g if take else np.array(g, dtype=np.float64, order="C")
            else:
                self.grad += g

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- elementwise ------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = Tensor._result(self.data + other.data, (self, other))
        if out.requires_grad:
            def bw():
                self._accum(_unbroadcast(out.grad, self.data.shape))
                other._accum(_unbroadcast(out.grad, other.data.shape))
            out._backward = bw
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = Tensor._result(-self.data, (self,))
        if out.requires_grad:
            out._backward = lambda: self._accum(-out.grad, owned=True)
        return out

    def __sub__(self, other) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = Tensor._result(self.data * other.data, (self, other))
        if out.requires_grad:
            def bw():
                if self.requires_grad:
                    self._accum(_unbroadcast(out.grad * other.data, self.data.shape),
                                owned=True)
                if other.requires_grad:
                    other._accum(_unbroadcast(out.grad * self.data, other.data.shape),
                                 owned=True)
            out._backward = bw
        return out

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Tensor":
        if not isinstance(scalar, (int, float)):
            raise TypeError("Tensor division only supports python scalars")
        return self * (1.0 / scalar)

    # -- reductions -------------------------------------------------------

    def sum(self) -> "Tensor":
        out = Tensor._result(self.data.sum(), (self,))
        if out.requires_grad:
            out._backward = lambda: self._accum(np.broadcast_to(out.grad, self.data.shape))
        return out

    # -- shape manipulation -------------------------------------------------

    def reshape(self, shape: Sequence[int]) -> "Tensor":
        out = Tensor._result(self.data.reshape(shape), (self,))
        if out.requires_grad:
            out._backward = lambda: self._accum(out.grad.reshape(self.data.shape))
        return out

    def transpose(self, axes: Sequence[int]) -> "Tensor":
        inv = np.argsort(axes)
        out = Tensor._result(self.data.transpose(axes), (self,))
        if out.requires_grad:
            out._backward = lambda: self._accum(out.grad.transpose(inv))
        return out

    def __getitem__(self, idx) -> "Tensor":
        out = Tensor._result(self.data[idx], (self,))
        if out.requires_grad:
            def bw():
                g = np.zeros(self.data.shape)
                np.add.at(g, idx, out.grad)   # a repeated index adds up
                self._accum(g, owned=True)
            out._backward = bw
        return out


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(np.asarray(value, dtype=np.float64))


def linear(x: Tensor, w: Tensor, *, bias: Tensor | None = None) -> Tensor:
    """``x @ w.T`` for rows ``x`` (n, in) and a weight ``w`` (out, in), which
    is read as stored and never copied, plus an optional ``bias`` of one
    value per output, (out,). The bias is added in place into the product,
    as ``conv2d`` adds its own, so it makes no node of its own, and its
    gradient is the output gradient summed over the rows. The backward does
    not read the output, so a caller may ``release`` it."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[1]:
        raise ValueError(f"linear needs x (n, in) and w (out, in), got {x.data.shape} "
                         f"and {w.data.shape}")
    if bias is not None and bias.data.shape != w.data.shape[:1]:
        raise ValueError(f"linear bias of shape {bias.data.shape} for {w.data.shape[0]} "
                         f"outputs; it needs ({w.data.shape[0]},)")
    data = x.data @ w.data.T
    if bias is not None:
        data += bias.data
    out = Tensor._result(data, (x, w) if bias is None else (x, w, bias))
    if out.requires_grad:
        def bw():
            if bias is not None and bias.requires_grad:
                bias._accum(out.grad.sum(axis=0), owned=True)
            if x.requires_grad:
                x._accum(out.grad @ w.data, owned=True)
            if w.requires_grad:
                w._accum(out.grad.T @ x.data, owned=True)
        out._backward = bw
    return out


def prelu_invertible(slopes: Tensor) -> bool:
    """Whether ``prelu`` with these slopes runs its backward from its output:
    every slope finite and > 0, so the activation keeps the sign of its
    input and is strictly increasing."""
    a = slopes.data
    return bool(np.all(a > 0.0) and np.all(np.isfinite(a)))


def prelu(x: Tensor, slopes: Tensor, *, repeat: int = 1, keep: np.ndarray | None = None,
          scale: float = 1.0, consume: bool = False) -> Tensor:
    """Parametric ReLU, ``v if v > 0 else a * v``, then optional inverted
    dropout, as one node.

    Axis 1 of ``x`` holds ``repeat`` blocks of C channels, and ``slopes``
    has one slope per channel, shared by its ``repeat`` blocks (4 for the
    r|x|y|z blocks of a quaternion activation). ``keep``, when given, is a
    bool mask of the plane shape (``x``'s shape with axis 1 cut to C),
    shared by the blocks: a kept unit is multiplied by ``scale``, a dropped
    one becomes 0. The gradient with respect to ``v`` is 0 at 0.

    The forward computes ``max(v, 0) + a * min(v, 0)``: two passes and no
    gain array, with the value of ``v * (a*(v<0) + (v>0))`` (where that
    product is -0.0, this sum is +0.0).

    With every slope finite and > 0 (``prelu_invertible``) the output ``o``
    has the sign of ``v``, so the backward reads only ``o`` and the slopes:
    the input gradient is ``g * scale * (1, a or 0 where o >, < or == 0)``,
    which is 0 for a dropped unit, and the slope gradient is
    ``sum(g * min(o, 0)) / a``. The node then keeps no mask and needs no
    input data. Otherwise it keeps ``x`` and the mask and rebuilds the gain
    ``a*(v<0) + (v>0)`` from ``x``. ``consume=True`` says that no one else
    reads ``x``'s data: the output is written into ``x``'s buffer and ``x``
    is released, unless the backward needs it.
    """
    shape = x.data.shape
    if x.data.ndim < 2 or repeat < 1 or shape[1] % repeat or \
            slopes.data.shape != (shape[1] // repeat,):
        raise ValueError(f"PReLU needs one slope per axis-1 channel of {repeat} block(s) of "
                         f"{shape}, got {slopes.data.shape}")
    c = shape[1] // repeat
    blocks = (shape[0], repeat, c) + shape[2:]   # the (B, repeat, C, ...) view of x
    plane = (shape[0], c) + shape[2:]
    if keep is not None and keep.shape != plane:
        raise ValueError(f"dropout mask of shape {keep.shape} for a plane of shape {plane}")
    a_shape = (1, 1, c) + (1,) * (len(shape) - 2)
    sum_axes = (0, 1) + tuple(range(3, len(blocks)))
    invertible = prelu_invertible(slopes)
    keeps_input = not invertible and _grad_enabled.get() and (
        x.requires_grad or slopes.requires_grad)

    xb = x.data.reshape(blocks)
    neg = np.minimum(xb, 0.0)
    neg *= slopes.data.reshape(a_shape)
    ob = np.maximum(xb, 0.0, out=xb if consume and not keeps_input else None)
    ob += neg
    if keep is None:
        scale = 1.0
    else:
        ob *= scale
        ob *= keep[:, None]
    out = Tensor._result(ob.reshape(shape), (x, slopes))
    if ob is xb:
        x.release()
    if out.requires_grad:
        if invertible:
            keep = None   # a dropped unit's output is 0, where the gain is 0

        def bw():
            g = out.grad.reshape(blocks)
            v = (out if invertible else x).data.reshape(blocks)
            gd = g * scale   # a new array, which the in-place products may change
            if keep is not None:
                gd *= keep[:, None]
            t = None
            if slopes.requires_grad:
                t = np.minimum(v, 0.0)
                t *= g if invertible else gd
                gs = t.sum(axis=sum_axes)
                slopes._accum(gs / slopes.data if invertible else gs, owned=True)
            if x.requires_grad:
                # d out / d v: a where v < 0, 1 where v > 0, else 0; from o,
                # it is the gain of the input; t's buffer is free again
                gain = np.multiply(slopes.data.reshape(a_shape), v < 0.0, out=t)
                gain += v > 0.0
                gd *= gain
                x._accum(gd.reshape(shape), owned=True)
        out._backward = bw
    return out


# Bytes of one im2col column block: a few MB, so a block and the GEMM output
# it feeds stay cache-sized and small next to an activation. A block holds at
# least one output row, so a row larger than this makes a larger block.
_COL_BYTES = 8 << 20


def _col_rows(shape: tuple[int, ...], kh: int, kw: int, ph: int, pw: int) -> int:
    """Output rows per im2col block of a (B, C, H, W) array: as many as fit
    in ``_COL_BYTES``, at least one."""
    _, c, h, wd = shape
    oh, ow = h + 2 * ph - kh + 1, wd + 2 * pw - kw + 1
    return min(oh, max(1, _COL_BYTES // (8 * max(1, c * kh * kw * ow))))


def _col_size(shape: tuple[int, ...], kh: int, kw: int, ph: int, pw: int) -> int:
    """Elements of the buffer ``_col_blocks`` needs for a (B, C, H, W) array."""
    ow = shape[3] + 2 * pw - kw + 1
    return shape[1] * kh * kw * _col_rows(shape, kh, kw, ph, pw) * ow


def _col_blocks(a: np.ndarray, kh: int, kw: int, ph: int, pw: int,
                buf: np.ndarray | None = None) -> Iterator[tuple[int, int, int, np.ndarray]]:
    """The im2col blocks of a (B, C, H, W) array for a kh x kw stride-1
    window at zero padding (ph, pw), utterance by utterance: ``(b, i0, i1,
    col)``, where ``col`` is (C*kh*kw, (i1 - i0)*ow) and its column
    ``(i - i0)*ow + j`` holds the window of output pixel (i, j) of utterance
    ``b``, row ``(c, u, v)`` its input value at channel c, tap (u, v).
    ``col`` lives in one buffer reused for every block, so read it before
    asking for the next one; ``buf``, when given, is that buffer (at least
    ``_col_size`` elements), so that passes run one after the other can
    share it."""
    nb, c, h, wd = a.shape
    oh, ow = h + 2 * ph - kh + 1, wd + 2 * pw - kw + 1
    k = c * kh * kw
    rows = _col_rows(a.shape, kh, kw, ph, pw)
    xp = np.zeros((c, h + 2 * ph, wd + 2 * pw))   # one padded utterance
    win = sliding_window_view(xp, (kh, kw), axis=(1, 2))   # (c, oh, ow, kh, kw)
    if buf is None:
        buf = np.empty(k * rows * ow)
    for b in range(nb):
        xp[:, ph:ph + h, pw:pw + wd] = a[b]
        for i0 in range(0, oh, rows):
            i1 = min(i0 + rows, oh)
            col = buf[:k * (i1 - i0) * ow].reshape(c, kh, kw, i1 - i0, ow)
            np.copyto(col, win[:, i0:i1].transpose(0, 3, 4, 1, 2))
            yield b, i0, i1, col.reshape(k, (i1 - i0) * ow)


def _rows(a: np.ndarray, b: int, i0: int, i1: int) -> np.ndarray:
    """Rows i0:i1 of utterance ``b`` of a C-contiguous (B, C, H, W) array as
    a (C, (i1 - i0)*W) view; raises if the reshape would copy, since a
    GEMM's writes into a copy would be lost."""
    v = a[b, :, i0:i1].reshape(a.shape[1], (i1 - i0) * a.shape[3])
    if v.size and not np.may_share_memory(v, a):
        raise RuntimeError("conv2d: an output block is not a view of the output")
    return v


def _correlate(a: np.ndarray, w: np.ndarray, ph: int, pw: int,
               bias: np.ndarray | None = None, buf: np.ndarray | None = None) -> np.ndarray:
    """Stride-1 cross-correlation of a (B, C, H, W) array with a
    (c_out, C, kh, kw) kernel at zero padding (ph, pw), as (B, c_out, oh, ow),
    plus ``bias`` (c_out, 1, 1) when given: per im2col block of ``a``, one
    GEMM ``w.reshape(c_out, C*kh*kw) @ col`` written straight into the
    block's rows of the output, and the bias added to them in place.
    ``buf``, when given, is a scratch of ``_col_size`` elements for the
    columns plus ``w.size`` for the kernel as one contiguous matrix."""
    cout, cin, kh, kw = w.shape
    nb, _, h, wd = a.shape
    out = np.empty((nb, cout, h + 2 * ph - kh + 1, wd + 2 * pw - kw + 1))
    if buf is None:
        wk = w.reshape(cout, cin * kh * kw)
    else:
        n = _col_size(a.shape, kh, kw, ph, pw)
        wk = buf[n:n + w.size].reshape(cout, cin * kh * kw)
        np.copyto(wk.reshape(w.shape), w)
    for b, i0, i1, col in _col_blocks(a, kh, kw, ph, pw, buf):
        rows = np.matmul(wk, col, out=_rows(out, b, i0, i1))
        if bias is not None:
            rows += bias.reshape(cout, 1)
    return out


def _weight_grad(x: np.ndarray, g: np.ndarray, kh: int, kw: int, ph: int,
                 pw: int, buf: np.ndarray) -> np.ndarray:
    """Gradient of a conv2d kernel, (c_out, C, kh, kw), from its input ``x``
    and its output gradient ``g``: the sum over the im2col blocks of ``x`` of
    ``g``'s rows of the block times ``col.T``. The first block's product is
    the sum's start, not an addition to zeros. ``buf`` is a scratch of
    ``_col_size`` elements for the columns plus a kernel's size for the
    partial product of a block."""
    cout, cin = g.shape[1], x.shape[1]
    n = _col_size(x.shape, kh, kw, ph, pw)
    part = buf[n:n + cout * cin * kh * kw].reshape(cout, cin * kh * kw)
    gw = None
    for b, i0, i1, col in _col_blocks(x, kh, kw, ph, pw, buf):
        g_rows = g[b, :, i0:i1].reshape(cout, col.shape[1])
        if gw is None:
            gw = g_rows @ col.T
        else:
            part = np.matmul(g_rows, col.T, out=part)
            gw += part
    if gw is None:   # an empty batch
        return np.zeros((cout, cin, kh, kw))
    return gw.reshape(cout, cin, kh, kw)


def conv2d(x: Tensor, w: Tensor, stride: tuple[int, int] = (1, 1),
           padding: tuple[int, int] = (0, 0), *, bias: Tensor | None = None) -> Tensor:
    """Batched 2-D cross-correlation at stride 1 (``stride`` must be (1, 1)),
    plus an optional ``bias`` of one value per output channel, (c_out, 1, 1).

    ``x`` has shape (batch, c_in, H, W), ``w`` has shape (c_out, c_in, kh,
    kw). The zero padding per axis is 0 to ``k - 1``, so every window reads
    input; the output extent per axis is ``extent + 2*pad - k + 1``.

    All three passes read the im2col blocks of ``_col_blocks``. The forward
    and the input gradient run ``_correlate``: the input gradient correlates
    the output gradient with the kernel flipped in both spatial axes, its
    channel axes swapped, at padding ``k - 1 - pad``. The weight gradient
    sums the output gradient's rows times the blocks of ``x``
    (``_weight_grad``). The bias is added in place into the output, as
    ``linear`` adds its own, so it makes no node of its own, and its gradient
    is the output gradient summed over the batch and both spatial axes. The
    closure keeps no array. The backward's two passes share one scratch
    array, allocated once per call: the larger column buffer, then a
    kernel-sized matrix that holds the weight gradient's partial product and
    then the flipped kernel.
    """
    ph, pw = padding
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ValueError("conv2d expects 4-D input and kernel")
    _, cin, h, wd = x.data.shape
    cout, cin_w, kh, kw = w.data.shape
    if cin != cin_w:
        raise ValueError(f"conv2d channel mismatch: input has {cin}, kernel expects {cin_w}")
    if tuple(stride) != (1, 1) or not (0 <= ph < kh and 0 <= pw < kw):
        raise ValueError(f"conv2d needs stride (1, 1) and padding in [0, k - 1], got "
                         f"stride {stride} and padding {padding} for a {kh}x{kw} kernel")
    if h + 2 * ph < kh or wd + 2 * pw < kw:
        raise ValueError("conv2d: padded input smaller than kernel")
    if bias is not None and bias.data.shape != (cout, 1, 1):
        raise ValueError(f"conv2d bias of shape {bias.data.shape} for {cout} output "
                         f"channels; it needs ({cout}, 1, 1)")

    parents = (x, w) if bias is None else (x, w, bias)
    data = _correlate(x.data, w.data, ph, pw, None if bias is None else bias.data)
    out = Tensor._result(data, parents)
    if out.requires_grad:
        def bw():
            if bias is not None and bias.requires_grad:
                bias._accum(out.grad.sum(axis=0).sum(axis=(1, 2), keepdims=True),
                            owned=True)
            # one scratch for both passes, sized for the larger: no column
            # buffer, partial product or flipped kernel of its own per pass
            cols = max(_col_size(x.data.shape, kh, kw, ph, pw) if w.requires_grad else 0,
                       _col_size(out.grad.shape, kh, kw, kh - 1 - ph, kw - 1 - pw)
                       if x.requires_grad else 0)
            buf = np.empty(cols + w.data.size)
            if w.requires_grad:
                w._accum(_weight_grad(x.data, out.grad, kh, kw, ph, pw, buf), owned=True)
            if x.requires_grad:
                wf = w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
                x._accum(_correlate(out.grad, wf, kh - 1 - ph, kw - 1 - pw, buf=buf),
                         owned=True)

        out._backward = bw
    return out


def maxpool1d(x: Tensor, width: int, axis: int = 2) -> Tensor:
    """Max over non-overlapping windows of ``width`` along one axis.

    A ragged tail shorter than ``width`` is truncated. Window offset k of
    every window is one strided view of ``x``; the forward folds the
    ``width`` views into the output with ``np.maximum``, in offset order.
    Gradient goes to the first maximal element of each window, so ties
    break deterministically. Only while a graph is recorded, the fold also
    keeps each window's argmax, in the smallest unsigned type that holds
    ``width - 1`` (one byte below 256): offset k replaces it where its value
    exceeds the max so far, and a tie keeps the earlier offset. The backward
    writes ``g * (argmax == k)`` into offset k's view of a zeroed input
    gradient, and reads neither the input's nor its own data, so a caller
    may ``release`` the input. A NaN makes its window's max NaN, but the
    window's gradient goes to the max of the elements before its first NaN
    (the NaN itself when it is first), and an infinite or NaN output
    gradient reaches the other elements of its window as NaN (inf * 0).
    """
    if width < 1:
        raise ValueError("pool width must be >= 1")
    n = x.data.shape[axis]
    np_out = n // width
    if np_out < 1:
        raise ValueError(f"pool width {width} exceeds axis extent {n}")
    axis %= x.data.ndim

    shape = x.data.shape   # the backward may run after x is released
    offsets = [(slice(None),) * axis + (slice(k, np_out * width, width),)
               for k in range(width)]
    m = x.data[offsets[0]].copy()
    records = _grad_enabled.get() and x.requires_grad
    idx = np.zeros(m.shape, dtype=np.min_scalar_type(width - 1)) if records else None
    for k in range(1, width):
        v = x.data[offsets[k]]
        if records:
            np.maximum(idx, np.multiply(v > m, k, dtype=idx.dtype), out=idx)
        np.maximum(m, v, out=m)
    out = Tensor._result(m, (x,))
    if out.requires_grad:
        def bw():
            gx = np.zeros(shape)
            for k, at in enumerate(offsets):
                np.multiply(out.grad, idx == k, out=gx[at])
            x._accum(gx, owned=True)
        out._backward = bw
    return out


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along an axis; backward splits the gradient."""
    ts = list(tensors)
    out = Tensor._result(np.concatenate([t.data for t in ts], axis=axis), tuple(ts))
    if out.requires_grad:
        sizes = [t.data.shape[axis] for t in ts]
        offsets = np.cumsum([0] + sizes)
        def bw():
            g = np.moveaxis(out.grad, axis, 0)
            for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
                t._accum(np.moveaxis(g[lo:hi], 0, axis))
        out._backward = bw
    return out


def backward(loss: Tensor) -> None:
    """Accumulate gradients of a scalar ``loss`` into ``.grad`` fields.

    Gradients add up across calls; clear them through ``zero_grads`` (or
    by setting ``.grad = None``) between steps. The graph is consumed: each
    node is released right after its closure runs, so a second
    ``backward`` through the same graph reaches no parameter.

    A released node (``Tensor.release``) that has a ``rebuild`` is rebuilt
    just before the first of its children runs its closure. The walk visits
    a node's rebuildable parents last, so such a parent runs its own
    closure, and is released, right after the child that reached it rather
    than at the end of the pass.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    # Iterative DFS: deep conv stacks would blow the recursion limit.
    topo: list[Tensor] = []
    state: dict[int, int] = {}
    stack = [loss]
    while stack:
        node = stack[-1]
        st = state.get(id(node), 0)
        if st == 0:
            state[id(node)] = 1
            # rebuildable parents are pushed first, so explored last: topo pops
            # each right after node
            for p in sorted(node._parents, key=lambda p: p._rebuild is None):
                if state.get(id(p), 0) == 0:
                    stack.append(p)
        else:
            stack.pop()
            if st == 1:
                state[id(node)] = 2
                topo.append(node)
    loss.grad = np.ones_like(loss.data)
    # Popping (rather than iterating) drops this list's reference too, so a
    # released node is freed as soon as nothing outside the graph holds it.
    while topo:
        node = topo.pop()
        for p in node._parents:   # the first child rebuilds a released parent
            if p.data is None and p._rebuild is not None:
                p.data = p._rebuild()
        if node._backward is not None:
            node._backward()
            # Release only after the call: a wrapped closure may still expect
            # the node intact while it runs.
            node._backward = None
            node._parents = ()
            node.grad = None


def _buffer(a: np.ndarray) -> np.ndarray:
    """The array that owns the memory ``a`` views."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _held_arrays(obj, visited: set[int]) -> Iterator[np.ndarray]:
    """The arrays a closure value holds, also through the functions, lists
    and tuples it holds. Tensors are not entered: they are graph nodes."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _held_arrays(item, visited)
    elif isinstance(obj, types.FunctionType) and id(obj) not in visited:
        visited.add(id(obj))
        for cell in obj.__closure__ or ():
            yield from _held_arrays(cell.cell_contents, visited)


def graph_nbytes(root: Tensor, stop: Iterable[Tensor] = ()) -> int:
    """Bytes the graph under ``root`` holds for its backward.

    Walks ``root`` and its ancestors through their parents, not entering
    the ``stop`` tensors, and sums the data of every node reached (none for
    a released node) and the arrays its backward closure holds.
    Each underlying buffer counts once, so views add nothing, and the
    buffers of the ``stop`` tensors' data count not at all (pass the inputs
    and parameters to count only what the graph adds).
    """
    stop = list(stop)
    seen = {id(_buffer(t.data)) for t in stop}
    visited = {id(t) for t in stop}
    total = 0
    stack = [root] if id(root) not in visited else []
    while stack:
        node = stack.pop()
        # a released node's data is None, which holds no array
        arrays = _held_arrays((node.data, node._backward), set())
        for buf in map(_buffer, arrays):
            if id(buf) not in seen:
                seen.add(id(buf))
                total += buf.nbytes
        for p in node._parents:
            if id(p) not in visited:
                visited.add(id(p))
                stack.append(p)
    return total


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None
