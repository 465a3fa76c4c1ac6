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

Each op keeps only what its backward reads. ``conv2d`` computes stride-1
cross-correlation (no kernel flip) with zero padding of at most ``k - 1``,
the usual deep-learning convention. One routine, ``_correlate``, runs all
three of its passes as one GEMM per frequency tap on a strip of a padded
channels-last copy, with no im2col matrix: the forward on the input, the
input gradient on the output gradient with the flipped kernel, and the
weight gradient on the input with the output gradient as its kernel. So
the backward closure keeps no array; the graph holds the input anyway, as
the node's parent. ``prelu`` likewise keeps only its input and slopes and
rebuilds its gain in the backward.
Products skip the gradient of an operand that does not require one (a
dropout mask, say).

A node's own data can be rebuilt too. An op that can recompute its
output bit for bit from its parents records a ``rebuild`` function with
the node, and the caller may ``drop`` the node's data (set it to None)
once the forward has read it. ``backward`` rebuilds a dropped node just
before the first of its children runs its closure, and runs the node's
own closure right after the child that reached it in the walk (for a
node with one child, right after the child that rebuilt it), so the
rebuilt array and its gradient live only that long. Under ``no_grad``
nothing is recorded, so nothing is dropped. The quaternion layers drop
their block weight this way (``qlayers.hamilton_block``).

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

__all__ = ["Tensor", "backward", "no_grad", "linear", "prelu", "conv2d", "maxpool1d",
           "concat", "graph_nbytes"]

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
        the parents, bit for bit; a recorded node that has one may
        ``drop`` its data."""
        out = Tensor(data)
        if _grad_enabled.get() and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._rebuild = rebuild
        return out

    def drop(self) -> None:
        """Free the data of a recorded node that can rebuild it; ``backward``
        rebuilds it before the first child closure runs. A no-op on any
        other node."""
        if self._rebuild is not None:
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
                if self.grad is None:
                    self.grad = np.zeros_like(self.data)
                self.grad[idx] += out.grad
            out._backward = bw
        return out


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(np.asarray(value, dtype=np.float64))


def linear(x: Tensor, w: Tensor) -> Tensor:
    """``x @ w.T`` for rows ``x`` (n, in) and a weight ``w`` (out, in), which
    is read as stored and never copied."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[1]:
        raise ValueError(f"linear needs x (n, in) and w (out, in), got {x.data.shape} "
                         f"and {w.data.shape}")
    out = Tensor._result(x.data @ w.data.T, (x, w))
    if out.requires_grad:
        def bw():
            if x.requires_grad:
                x._accum(out.grad @ w.data, owned=True)
            if w.requires_grad:
                w._accum(out.grad.T @ x.data, owned=True)
        out._backward = bw
    return out


def prelu(x: Tensor, slopes: Tensor) -> Tensor:
    """Parametric ReLU, ``v if v > 0 else a * v``, with one slope ``a`` per
    channel of axis 1. The gradient with respect to ``v`` is 0 at 0."""
    if x.data.ndim < 2 or slopes.data.shape != (x.data.shape[1],):
        raise ValueError(f"PReLU needs one slope per axis-1 channel of {x.data.shape}, "
                         f"got {slopes.data.shape}")
    a_shape = slopes.data.shape + (1,) * (x.data.ndim - 2)

    def gain():   # d out / d v: a where v < 0, 1 where v > 0, else 0
        g = slopes.data.reshape(a_shape) * (x.data < 0.0)
        g += x.data > 0.0
        return g

    out = Tensor._result(x.data * gain(), (x, slopes))
    if out.requires_grad:
        # The closure keeps x and the slopes only; the gain is rebuilt.
        def bw():
            x._accum(out.grad * gain(), owned=True)
            if slopes.requires_grad:
                g = _unbroadcast(out.grad * np.minimum(x.data, 0.0), a_shape)
                slopes._accum(g.reshape(slopes.data.shape), owned=True)
        out._backward = bw
    return out


def _correlate(a: np.ndarray, w: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """Stride-1 cross-correlation of a (B, C, H, W) array with a
    (c_out, C, kh, kw) kernel at zero padding (ph, pw), as (B, c_out, oh, ow):
    one GEMM per frequency tap over a strip whose row ``(f, b, j)`` holds the
    kw time taps of output column ``j`` of utterance ``b`` at padded
    frequency row ``f`` (no im2col matrix), into a frequency-major grid."""
    cout, cin, kh, kw = w.shape
    b, _, h, wd = a.shape
    xp = np.zeros((h + 2 * ph, b, wd + 2 * pw, cin))   # padded, channels-last
    xp[ph:ph + h, :, pw:pw + wd] = a.transpose(2, 0, 3, 1)
    view = sliding_window_view(xp, kw, axis=2).transpose(0, 1, 2, 4, 3)
    s = np.ascontiguousarray(view).reshape(view.shape[:3] + (kw * cin,))
    del xp, view
    oh, ow = len(s) - kh + 1, s.shape[2]
    wk = w.transpose(2, 3, 1, 0).reshape(kh, kw * cin, cout)
    grid = np.empty((oh * b * ow, cout))
    # explicit row count: kw * cin is 0 in the weight gradient of an empty batch
    np.matmul(s[:oh].reshape(len(grid), kw * cin), wk[0], out=grid)
    for u in range(1, kh):
        grid += s[u:u + oh].reshape(len(grid), kw * cin) @ wk[u]
    del s   # the strip, the largest temporary, goes before the output copy
    return np.ascontiguousarray(grid.reshape(oh, b, ow, cout).transpose(1, 3, 0, 2))


def conv2d(x: Tensor, w: Tensor, stride: tuple[int, int] = (1, 1),
           padding: tuple[int, int] = (0, 0)) -> Tensor:
    """Batched 2-D cross-correlation at stride 1 (``stride`` must be (1, 1)).

    ``x`` has shape (batch, c_in, H, W), ``w`` has shape (c_out, c_in, kh,
    kw). The zero padding per axis is 0 to ``k - 1``, so every window reads
    input; the output extent per axis is ``extent + 2*pad - k + 1``.

    All three passes run ``_correlate``. The input gradient correlates the
    output gradient with the kernel flipped in both spatial axes, its
    channel axes swapped, at padding ``k - 1 - pad``; the weight gradient
    correlates ``x`` with the output gradient, batch and channel axes
    swapped in both, at padding ``pad``. The closure keeps no array.
    """
    ph, pw = padding
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ValueError("conv2d expects 4-D input and kernel")
    _, cin, h, wd = x.data.shape
    _, cin_w, kh, kw = w.data.shape
    if cin != cin_w:
        raise ValueError(f"conv2d channel mismatch: input has {cin}, kernel expects {cin_w}")
    if tuple(stride) != (1, 1) or not (0 <= ph < kh and 0 <= pw < kw):
        raise ValueError(f"conv2d needs stride (1, 1) and padding in [0, k - 1], got "
                         f"stride {stride} and padding {padding} for a {kh}x{kw} kernel")
    if h + 2 * ph < kh or wd + 2 * pw < kw:
        raise ValueError("conv2d: padded input smaller than kernel")

    out = Tensor._result(_correlate(x.data, w.data, ph, pw), (x, w))
    if out.requires_grad:
        def bw():
            if w.requires_grad:
                gw = _correlate(x.data.transpose(1, 0, 2, 3), out.grad.transpose(1, 0, 2, 3),
                                ph, pw)
                w._accum(gw.transpose(1, 0, 2, 3))
            if x.requires_grad:
                wf = w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
                x._accum(_correlate(out.grad, wf, kh - 1 - ph, kw - 1 - pw), owned=True)

        out._backward = bw
    return out


def maxpool1d(x: Tensor, width: int, axis: int = 2) -> Tensor:
    """Max over non-overlapping windows of ``width`` along one axis.

    A ragged tail shorter than ``width`` is truncated. Gradient goes to
    the first maximal element of each window, so ties break
    deterministically. The backward keeps each window's argmax in the
    smallest unsigned type that holds ``width - 1`` (one byte below 256).
    """
    if width < 1:
        raise ValueError("pool width must be >= 1")
    n = x.data.shape[axis]
    np_out = n // width
    if np_out < 1:
        raise ValueError(f"pool width {width} exceeds axis extent {n}")
    axis %= x.data.ndim

    # the pooled axis split in two, (windows, width), as a view
    keep = (slice(None),) * axis + (slice(np_out * width),)
    split = x.data.shape[:axis] + (np_out, width) + x.data.shape[axis + 1:]
    xr = x.data[keep].reshape(split)
    out = Tensor._result(xr.max(axis=axis + 1), (x,))
    if out.requires_grad:
        idx = np.expand_dims(xr.argmax(axis=axis + 1).astype(np.min_scalar_type(width - 1)),
                             axis + 1)
        def bw():
            gx = np.zeros(x.data.shape)
            np.put_along_axis(gx[keep].reshape(split), idx,
                              np.expand_dims(out.grad, axis + 1), axis=axis + 1)
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

    A dropped node (``Tensor.drop``) is rebuilt just before the first of its
    children runs its closure. The walk visits a node's rebuildable parents
    last, so such a parent runs its own closure, and is released, right
    after the child that reached it rather than at the end of the pass.
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
        for p in node._parents:   # the first child rebuilds a dropped parent
            if p.data is None:
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
    a dropped node) and the arrays its backward closure holds. Each
    underlying buffer counts once, so views add nothing, and the buffers
    of the ``stop`` tensors' data count not at all (pass the inputs and
    parameters to count only what the graph adds).
    """
    stop = list(stop)
    seen = {id(_buffer(t.data)) for t in stop}
    visited = {id(t) for t in stop}
    total = 0
    stack = [root] if id(root) not in visited else []
    while stack:
        node = stack.pop()
        # a dropped node's data is None, which holds no array
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
