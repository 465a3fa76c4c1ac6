import contextlib
import gc
import tracemalloc
import types
import weakref
import zlib

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from qspeech import autodiff
from qspeech.autodiff import (Tensor, backward, concat, conv2d, graph_nbytes, linear,
                              maxpool1d, no_grad, prelu, zero_grads)
from qspeech.gradcheck import check_gradients


def naive_conv2d(x, w, padding):
    """Six nested loops, the reference semantics for conv2d."""
    ph, pw = padding
    b, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    oh = h + 2 * ph - kh + 1
    ow = wd + 2 * pw - kw + 1
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out = np.zeros((b, cout, oh, ow))
    for bi in range(b):
        for o in range(cout):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for c in range(cin):
                        for u in range(kh):
                            for v in range(kw):
                                acc += xp[bi, c, i + u, j + v] * w[o, c, u, v]
                    out[bi, o, i, j] = acc
    return out


def test_linear_identity():
    a = np.arange(6.0).reshape(2, 3)
    out = linear(Tensor(a), Tensor(np.eye(3)))
    assert np.array_equal(out.data, a)


def test_linear_hand_value():
    # rows times the transpose of a (1, 2) weight
    out = linear(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0, 1.0]]))
    assert np.array_equal(out.data, [[3.0], [7.0]])


def test_linear_shape_mismatch():
    with pytest.raises(ValueError):
        linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
    with pytest.raises(ValueError):
        linear(Tensor(np.zeros(3)), Tensor(np.zeros((2, 3))))


def test_linear_gradient():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    assert check_gradients(lambda: (linear(x, w) * linear(x, w)).sum(), [x, w]) < 1e-5


def test_linear_backward_keeps_only_its_operands():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    out = linear(x, w)
    # no transposed copy of the weight, in the graph or in the closure
    assert graph_nbytes(out, stop=[x, w]) == out.data.nbytes


@pytest.mark.parametrize("bias_grad", [True, False])
def test_linear_bias_matches_numpy(bias_grad):
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=bias_grad)
    out = linear(x, w, bias=b)
    g = rng.normal(size=(5, 3))
    backward((out * Tensor(g)).sum())
    expected = [(out.data, x.data @ w.data.T + b.data), (x.grad, g @ w.data),
                (w.grad, g.T @ x.data)]
    if bias_grad:
        expected.append((b.grad, g.sum(axis=0)))
    else:
        assert b.grad is None
    for got, want in expected:
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("shape", [(), (1,), (4,), (1, 3), (3, 1)])
def test_linear_rejects_a_bias_not_of_one_value_per_output(shape):
    with pytest.raises(ValueError):
        linear(Tensor(np.zeros((5, 4))), Tensor(np.zeros((3, 4))),
               bias=Tensor(np.zeros(shape)))


def test_conv2d_one_by_one_identity():
    x = Tensor(np.random.default_rng(1).normal(size=(1, 1, 4, 5)))
    w = Tensor(np.ones((1, 1, 1, 1)))
    assert np.array_equal(conv2d(x, w).data, x.data)


def test_conv2d_impulse_reproduces_kernel():
    x = np.zeros((1, 1, 7, 7))
    x[0, 0, 3, 3] = 1.0
    k = np.arange(9.0).reshape(1, 1, 3, 3)
    out = conv2d(Tensor(x), Tensor(k), (1, 1), (1, 1)).data
    # cross-correlation stamps the kernel mirrored around the impulse
    assert np.array_equal(out[0, 0, 2:5, 2:5], k[0, 0, ::-1, ::-1])
    out[0, 0, 2:5, 2:5] = 0.0
    assert not np.any(out)


@pytest.mark.parametrize("padding", [(0, 0), (1, 1), (1, 2), (0, 1)])
def test_conv2d_matches_naive_loops(padding):
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 3, 5, 5))
    w = rng.normal(size=(4, 3, 3, 3))
    out = conv2d(Tensor(x), Tensor(w), padding=padding)
    assert np.allclose(out.data, naive_conv2d(x, w, padding), atol=1e-12)


@pytest.mark.parametrize("cin", [4, 7])
@pytest.mark.parametrize("padding", [(0, 0), (1, 2)])
def test_conv2d_3x5_matches_naive_loops(cin, padding):
    rng = np.random.default_rng([cin, *padding])
    x = rng.normal(size=(3, cin, 6, 9))
    w = rng.normal(size=(5, cin, 3, 5))
    out = conv2d(Tensor(x), Tensor(w), padding=padding)
    assert np.allclose(out.data, naive_conv2d(x, w, padding), atol=1e-12)


def test_conv2d_gradient_3x5_same_padding():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(2, 2, 4, 7)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2, 3, 5)), requires_grad=True)
    fn = lambda: (conv2d(x, w, (1, 1), (1, 2)) * conv2d(x, w, (1, 1), (1, 2))).sum()
    assert check_gradients(fn, [x, w]) < 1e-5


# The weight gradient's windows span the whole output, so check it against an
# einsum over every kh x kw shift of the padded input, not the GEMM routine.
@pytest.mark.parametrize("shape,cout", [((3, 4, 41, 30), 5), ((1, 7, 13, 9), 3)])
@pytest.mark.parametrize("padding", [(0, 0), (1, 2), (0, 4), (2, 4)])
def test_conv2d_weight_gradient_matches_einsum(shape, cout, padding):
    rng = np.random.default_rng([shape[1], cout, *padding])
    x = Tensor(rng.normal(size=shape))
    w = Tensor(rng.normal(size=(cout, shape[1], 3, 5)), requires_grad=True)
    out = conv2d(x, w, padding=padding)
    g = rng.normal(size=out.shape)
    backward((out * Tensor(g)).sum())
    ph, pw = padding
    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    win = sliding_window_view(xp, g.shape[2:], axis=(2, 3))   # (b, c, 3, 5, oh, ow)
    expected = np.einsum("bcuvij,boij->ocuv", win, g)
    assert np.allclose(w.grad, expected, rtol=1e-12, atol=1e-12)


def test_conv2d_empty_batch():
    x = Tensor(np.zeros((0, 2, 5, 6)), requires_grad=True)
    w = Tensor(np.ones((3, 2, 3, 5)), requires_grad=True)
    out = conv2d(x, w, (1, 1), (1, 2))
    assert out.shape == (0, 3, 5, 6)
    backward(out.sum())
    assert x.grad.shape == x.shape and not np.any(w.grad)


def _closure_arrays(fn):
    """The numpy arrays a closure holds, also through the functions it holds."""
    arrays = []
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif isinstance(value, types.FunctionType):
            arrays += _closure_arrays(value)
    return arrays


def test_conv2d_backward_keeps_only_the_padded_input():
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(2, 32, 6, 10)), requires_grad=True)
    w = Tensor(rng.normal(size=(32, 32, 3, 5)), requires_grad=True)
    out = conv2d(x, w, (1, 1), (1, 2))
    padded_bytes = 2 * 32 * (6 + 2) * (10 + 4) * 8
    # an im2col matrix would hold every input value 15 times
    assert sum(a.nbytes for a in _closure_arrays(out._backward)) <= padded_bytes


def test_conv2d_backward_keeps_no_array():
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(2, 8, 6, 10)), requires_grad=True)
    w = Tensor(rng.normal(size=(8, 8, 3, 5)), requires_grad=True)
    out = conv2d(x, w, (1, 1), (1, 2))
    # the padded input is rebuilt from x, which the graph holds as a parent
    assert _closure_arrays(out._backward) == []
    assert graph_nbytes(out, stop=[x, w]) == out.data.nbytes


def test_conv2d_geometry_errors():
    with pytest.raises(ValueError):
        conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 3, 3))))
    with pytest.raises(ValueError):
        conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))))


# 3x5 kernel: no padding, full padding (k - 1) on one axis only, and a
# mixed pair; 'same' padding is test_conv2d_gradient_3x5_same_padding.
@pytest.mark.parametrize("padding", [(0, 0), (0, 4), (2, 0), (2, 1)])
def test_conv2d_gradient_3x5_padding(padding):
    rng = np.random.default_rng([7, *padding])
    x = Tensor(rng.normal(size=(2, 2, 4, 7)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2, 3, 5)), requires_grad=True)
    fn = lambda: (conv2d(x, w, padding=padding) * conv2d(x, w, padding=padding)).sum()
    assert check_gradients(fn, [x, w]) < 1e-5


@pytest.mark.parametrize("stride,padding", [((2, 1), (1, 2)), ((1, 2), (1, 2)),
                                            ((1, 1), (3, 2)), ((1, 1), (1, 5)),
                                            ((1, 1), (-1, 2))])
def test_conv2d_rejects_stride_and_padding_outside_its_range(stride, padding):
    x = Tensor(np.zeros((1, 2, 6, 9)))
    w = Tensor(np.zeros((3, 2, 3, 5)))
    with pytest.raises(ValueError):
        conv2d(x, w, stride, padding)


def test_conv2d_backward_scratch_is_bounded():
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(4, 128, 13, 30)), requires_grad=True)
    w = Tensor(rng.normal(size=(128, 128, 3, 5)), requires_grad=True)
    out = conv2d(x, w, (1, 1), (1, 2))
    out.grad = np.ones(out.shape)
    tracemalloc.start()
    try:
        out._backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # gradients, strips and GEMM outputs of one backward, in input sizes
    assert peak < 15 * x.data.nbytes


def _conv_oracle(x, w, bias, g, padding):
    """Forward output and input, weight and bias gradients of a conv2d with
    a (c_out, 1, 1) bias under the loss ``(out * g).sum()``, by einsum over
    every kh x kw window of the padded input (and, for the input gradient,
    one einsum per tap scattered back), without the conv routines."""
    ph, pw = padding
    kh, kw = w.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))   # (b, c, oh, ow, kh, kw)
    out = np.einsum("bcijuv,ocuv->boij", win, w) + bias
    oh, ow = out.shape[2:]
    gxp = np.zeros(xp.shape)
    for u in range(kh):
        for v in range(kw):
            gxp[:, :, u:u + oh, v:v + ow] += np.einsum("boij,oc->bcij", g, w[:, :, u, v])
    gx = gxp[:, :, ph:ph + x.shape[2], pw:pw + x.shape[3]]
    gw = np.einsum("bcijuv,boij->ocuv", win, g)
    return out, gx, gw, g.sum(axis=(0, 2, 3)).reshape(bias.shape)


@pytest.mark.parametrize("shape,padding", [((3, 4, 7, 9), (0, 0)), ((3, 4, 7, 9), (1, 2)),
                                           ((3, 4, 7, 9), (2, 4)), ((2, 4, 7, 1), (1, 2)),
                                           ((2, 4, 7, 1), (2, 4)), ((0, 4, 7, 9), (1, 2))])
def test_conv2d_matches_einsum_across_column_blocks(monkeypatch, shape, padding):
    # Blocks of two output rows in the forward and the weight gradient, so
    # an utterance spans several blocks and the last one is partial.
    cout, (kh, kw) = 3, (3, 5)
    ow = shape[3] + 2 * padding[1] - kw + 1
    monkeypatch.setattr(autodiff, "_COL_BYTES", 8 * 2 * shape[1] * kh * kw * ow + 1)
    calls = []   # (utterance, output rows) of each block, per call
    real_blocks = autodiff._col_blocks

    def recorded_blocks(*args):
        calls.append([])
        for block in real_blocks(*args):
            calls[-1].append((block[0], block[2] - block[1]))
            yield block
    monkeypatch.setattr(autodiff, "_col_blocks", recorded_blocks)

    rng = np.random.default_rng([shape[0], shape[3], *padding])
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    w = Tensor(rng.normal(size=(cout, shape[1], kh, kw)), requires_grad=True)
    b = Tensor(rng.normal(size=(cout, 1, 1)), requires_grad=True)
    out = conv2d(x, w, (1, 1), padding, bias=b)
    g = rng.normal(size=out.shape)
    backward((out * Tensor(g)).sum())
    expected = _conv_oracle(x.data, w.data, b.data, g, padding)
    for got, want in zip((out.data, x.grad, w.grad, b.grad), expected):
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
    if shape[0]:   # the forward's first utterance: blocks of 2 rows, then 1
        first = [rows for b, rows in calls[0] if b == 0]
        assert len(first) > 2 and first == [2] * (len(first) - 1) + [1]


def test_conv2d_rejects_a_bias_that_does_not_broadcast():
    x = Tensor(np.zeros((2, 2, 6, 9)))
    w = Tensor(np.zeros((3, 2, 3, 5)))
    with pytest.raises(ValueError):
        conv2d(x, w, (1, 1), (1, 2), bias=Tensor(np.zeros((2, 1, 1))))
    with pytest.raises(ValueError):   # it would enlarge the output
        conv2d(x, w, (1, 1), (1, 2), bias=Tensor(np.zeros((1, 2, 3, 1, 1))))
    with pytest.raises(ValueError):   # it broadcasts, but not one value per channel
        conv2d(x, w, (1, 1), (1, 2), bias=Tensor(np.zeros((1, 1, 9))))


def test_conv2d_output_block_must_be_a_view():
    strided = np.zeros((2, 3, 5, 4)).transpose(0, 1, 3, 2)   # reshaping rows copies
    with pytest.raises(RuntimeError):
        autodiff._rows(strided, 0, 1, 3)
    out = np.zeros((2, 3, 4, 5))
    assert np.shares_memory(autodiff._rows(out, 1, 1, 3), out)


def _no_grad_peak(x_shape, cout):
    rng = np.random.default_rng(13)
    x = Tensor(rng.normal(size=x_shape))
    w = Tensor(rng.normal(size=(cout, x_shape[1], 3, 5)))
    with no_grad():
        tracemalloc.start()
        try:
            out = conv2d(x, w, (1, 1), (1, 2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return peak / out.data.nbytes


def test_conv2d_forward_scratch_is_a_fraction_of_its_output():
    # the output, one padded utterance and one column block: no padded copy
    # of the batch, no strip, no grid, no transposed copy of the output
    assert _no_grad_peak((2, 128, 13, 300), 128) < 3.0
    assert _no_grad_peak((8, 4, 41, 100), 128) < 1.5


def test_backward_requires_scalar():
    t = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        backward(t + t)


def test_sum_gradient_is_ones():
    w = Tensor(np.random.default_rng(5).normal(size=(3, 4)), requires_grad=True)
    backward(w.sum())
    assert np.array_equal(w.grad, np.ones((3, 4)))


def test_quadratic_gradient_is_identity():
    w = Tensor(np.random.default_rng(6).normal(size=(4, 2)), requires_grad=True)
    backward(((w * w) / 2.0).sum())
    assert np.allclose(w.grad, w.data)


def test_gradients_accumulate_and_clear():
    w = Tensor(np.ones(3), requires_grad=True)
    backward(w.sum())
    backward(w.sum())
    assert np.array_equal(w.grad, 2 * np.ones(3))
    zero_grads([w])
    assert w.grad is None


@pytest.mark.parametrize("op", ["add", "mul", "sub", "prelu", "pool", "reshape", "slice",
                                "slices", "concat"])
def test_elementwise_backward_rules(op):
    rng = np.random.default_rng(zlib.crc32(op.encode()))
    a = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)), requires_grad=True)
    b = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)), requires_grad=True)
    c = Tensor(rng.uniform(0.5, 2.0, size=(4,)), requires_grad=True)  # broadcast
    fns = {
        "add": lambda: ((a + c) * (a + b)).sum(),
        "mul": lambda: (a * b * c).sum(),
        "sub": lambda: ((a - b) * (a - c)).sum(),
        # c as the slopes; the input has both signs and exact zeros
        "prelu": lambda: (prelu(concat([a[:, :2] - 1.2, 0.0 * a[:, 2:]], axis=1), c)
                          * b).sum(),
        "pool": lambda: (maxpool1d(a, 2, axis=1) * maxpool1d(b, 2, axis=1)).sum(),
        "reshape": lambda: (a.reshape((4, 3)).transpose((1, 0)) * b).sum(),
        "slice": lambda: (a[1:, :2] * b[:2, 1:3]).sum(),
        # overlapping slices of one parent add into the same gradient
        "slices": lambda: (a[1:, :2] * a[:2, 1:3]).sum() + (a[0] * b[2]).sum(),
        "concat": lambda: (concat([a, b], axis=1) * concat([b, a], axis=1)).sum(),
    }
    wrt = [a, b, c] if op in ("add", "mul", "sub", "prelu") else [a, b]
    assert check_gradients(fns[op], wrt) < 1e-5


def test_a_repeated_index_adds_its_gradients():
    x = Tensor(np.arange(3.0), requires_grad=True)
    backward(x[[0, 0]].sum() + (x[np.array([2, 0, 2])] * 3.0).sum())
    assert np.array_equal(x.grad, [5.0, 0.0, 6.0])


@pytest.mark.parametrize("op", ["add", "mul", "linear"])
def test_gradients_share_no_memory(op):
    rng = np.random.default_rng(14)
    a = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    out = {"add": lambda: a + b, "mul": lambda: a * b, "linear": lambda: linear(a, b)}[op]()
    backward(out.sum())
    # a gradient taken as its first contribution must be a buffer of its own
    assert not np.shares_memory(a.grad, b.grad)
    before = b.grad.copy()
    a.grad += 1.0
    assert np.array_equal(b.grad, before)


def test_graph_nbytes_counts_each_buffer_once():
    x = Tensor(np.ones((4, 6)), requires_grad=True)
    y = x * 2.0
    z = y.reshape((6, 4)) + y.reshape((6, 4))
    # y's data, the 0-d constant 2.0 and z's data; the reshapes are views of y
    assert graph_nbytes(z, stop=[x]) == 2 * x.data.nbytes + 8
    assert graph_nbytes(z) == 3 * x.data.nbytes + 8
    assert graph_nbytes(x, stop=[x]) == 0


def test_maxpool_keeps_a_small_argmax():
    x = Tensor(np.random.default_rng(15).normal(size=(2, 8, 12, 30)), requires_grad=True)
    out = maxpool1d(x, 3, axis=2)
    # the output plus one byte per output element for the window argmax
    assert graph_nbytes(out, stop=[x]) <= 1.125 * out.data.nbytes


def test_maxpool_backward_scratch_is_bounded():
    x = Tensor(np.random.default_rng(16).normal(size=(4, 32, 41, 30)), requires_grad=True)
    out = maxpool1d(x, 3, axis=2)
    out.grad = np.ones(out.shape)
    tracemalloc.start()
    try:
        out._backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the input gradient plus the scatter's indices, with no window buffer
    assert peak < 1.75 * x.data.nbytes


def _maxpool_oracle(x, width, axis, g):
    """Max pooling of x by reshape and np.argmax, and g scattered by
    put_along_axis to each window's first argmax of a zeroed gradient."""
    n = x.shape[axis] // width * width
    split = x.shape[:axis] + (n // width, width) + x.shape[axis + 1:]
    xr = np.take(x, np.arange(n), axis=axis).reshape(split)
    idx = np.expand_dims(np.argmax(xr, axis=axis + 1), axis + 1)
    out = np.take_along_axis(xr, idx, axis=axis + 1).squeeze(axis + 1)
    if g is None:
        return out, None
    gr = np.zeros(split)
    np.put_along_axis(gr, idx, np.expand_dims(g, axis + 1), axis=axis + 1)
    gx = np.zeros(x.shape)
    gx[(slice(None),) * axis + (slice(n),)] = gr.reshape(split[:axis] + (n,) + split[axis + 2:])
    return out, gx


@pytest.mark.parametrize("width", [1, 2, 3, 4])
@pytest.mark.parametrize("axis", [1, 2])
@pytest.mark.parametrize("recording", [True, False])
def test_maxpool_matches_an_argmax_scatter_oracle(width, axis, recording):
    rng = np.random.default_rng(zlib.crc32(f"{width}{axis}".encode()))
    # 10 along the pooled axis leaves a ragged tail for widths 3 and 4;
    # small integers make ties common, and the first sample is all equal
    data = rng.integers(-2, 3, size=(2, 10, 10, 5)).astype(np.float64)
    data[0] = 1.5
    want, _ = _maxpool_oracle(data, width, axis, None)
    g = rng.normal(size=want.shape)
    x = Tensor(data.copy(), requires_grad=True)
    with contextlib.nullcontext() if recording else no_grad():
        out = maxpool1d(x, width, axis=axis)
    assert np.array_equal(out.data, want)
    assert out.requires_grad == recording
    if recording:
        backward((out * Tensor(g)).sum())
        assert np.array_equal(x.grad, _maxpool_oracle(data, width, axis, g)[1])


def test_prelu_hand_values():
    x = Tensor([[-2.0, 0.0, 3.0], [4.0, -0.5, 0.0]], requires_grad=True)
    slopes = Tensor([0.25, 0.5, 2.0], requires_grad=True)
    out = prelu(x, slopes)
    assert np.array_equal(out.data, [[-0.5, 0.0, 3.0], [4.0, -0.25, 0.0]])
    backward(out.sum())
    # one slope per axis-1 channel; the subgradient at 0 is 0
    assert np.array_equal(x.grad, [[0.25, 0.0, 1.0], [1.0, 0.5, 0.0]])
    assert np.array_equal(slopes.grad, [-2.0, -0.5, 0.0])
    with pytest.raises(ValueError):
        prelu(x, Tensor(np.ones(2)))


def test_prelu_backward_keeps_no_gain_array():
    x = Tensor(np.random.default_rng(13).normal(size=(2, 3, 4)), requires_grad=True)
    slopes = Tensor([0.25, 0.5, 2.0], requires_grad=True)
    out = prelu(x, slopes)
    # the gain a*(x<0) + (x>0) is rebuilt from x in the backward
    assert all(np.shares_memory(a, x.data) or np.shares_memory(a, slopes.data)
               for a in _closure_arrays(out._backward))


def test_forward_deterministic():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 2, 6, 6))
    w = rng.normal(size=(3, 2, 3, 3))
    r1 = conv2d(Tensor(x), Tensor(w), (1, 1), (1, 1)).data
    r2 = conv2d(Tensor(x), Tensor(w), (1, 1), (1, 1)).data
    assert np.array_equal(r1, r2)


def test_tensor_takes_no_name():
    with pytest.raises(TypeError):
        Tensor(np.ones(2), name="w")
    assert repr(Tensor(np.ones((2, 3)), True)) == "Tensor(shape=(2, 3), requires_grad=True)"


def test_constant_subgraphs_not_tracked():
    a = Tensor(np.ones((2, 2)))
    b = Tensor(np.ones((2, 2)))
    out = a * b + a
    assert not out.requires_grad
    assert out._parents == ()


def _graph_ops(x, w):
    """A small graph touching every op kind that saves arrays for backward."""
    h = prelu(conv2d(x, w, (1, 1), (1, 1)), Tensor(np.full(w.shape[0], 0.25)))
    h = maxpool1d(h, 2, axis=2)
    h = concat([h, h * 2.0], axis=1)
    return (h[:, :, :, 1:] * h[:, :, :, :-1]).sum()


def test_no_grad_records_no_graph():
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(1, 2, 4, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    with no_grad():
        out = _graph_ops(x, w)
        mid = linear(w.reshape((3, 18)), Tensor(np.ones((1, 18)))) - x.sum()
    for t in (out, mid):
        assert not t.requires_grad
        assert t._parents == () and t._backward is None
    assert x.requires_grad and w.requires_grad  # leaves keep their flag
    assert _graph_ops(x, w).requires_grad       # recording resumes after the block
    with no_grad():
        inside = Tensor(np.ones(2), requires_grad=True)
    assert inside.requires_grad


def test_no_grad_values_match_recorded_forward():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(2, 2, 4, 6)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    with no_grad():
        plain = _graph_ops(x, w).data
    assert np.array_equal(plain, _graph_ops(x, w).data)


def test_no_grad_restored_after_nesting_and_exceptions():
    w = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        with no_grad():
            assert not (w * 2.0).requires_grad
        assert not (w * 2.0).requires_grad   # inner exit keeps the outer block
    assert (w * 2.0).requires_grad
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("boom")
    assert (w * 2.0).requires_grad
    with no_grad():
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert not (w * 2.0).requires_grad
    assert (w * 2.0).requires_grad


def test_backward_consumes_the_graph():
    rng = np.random.default_rng(10)
    x = Tensor(rng.normal(size=(1, 2, 4, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    h = conv2d(x, w, (1, 1), (1, 1))
    loss = (prelu(h, Tensor(np.full(3, 0.25))) * h).sum()
    backward(loss)
    gx, gw = x.grad.copy(), w.grad.copy()
    for node in (loss, h):
        assert node._backward is None and node._parents == () and node.grad is None
    # Leaf gradients stay; a second backward through the spent graph adds nothing.
    backward(loss)
    assert np.array_equal(x.grad, gx) and np.array_equal(w.grad, gw)


def test_backward_frees_intermediates_by_refcount():
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(1, 2, 4, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)

    def build():
        h = conv2d(x, w, (1, 1), (1, 1))
        r = prelu(h, Tensor(np.full(3, 0.25)))
        return (r * r).sum(), [weakref.ref(h.data), weakref.ref(r.data)]

    enabled = gc.isenabled()
    gc.disable()
    try:
        loss, refs = build()
        assert all(ref() is not None for ref in refs)  # held by the graph
        backward(loss)
        assert all(ref() is None for ref in refs)      # freed without the cyclic gc
    finally:
        if enabled:
            gc.enable()


def _transient_graph(drop: bool) -> types.SimpleNamespace:
    """``x*x`` as a node that can rebuild its data, read by the backward of
    two children, ``sq * w`` and ``linear(sq, v)``. ``rebuilds`` counts the
    rebuilds; ``saw_data`` records, for each closure that reads the node (its
    own and its children's), whether the node had its data when it ran."""
    rng = np.random.default_rng(16)
    x, w, v = (Tensor(rng.normal(size=s), requires_grad=True) for s in ((3, 4), (3, 4), (2, 4)))
    rebuilds, saw_data = [], []

    def square():
        rebuilds.append(1)
        return x.data * x.data

    sq = Tensor._result(x.data * x.data, (x,), rebuild=square)

    def sq_bw():
        saw_data.append(sq.data is not None)
        x._accum(2.0 * x.data * sq.grad, owned=True)
    sq._backward = sq_bw
    children = [sq * w, linear(sq, v)]
    for child in children:
        child._backward = lambda fn=child._backward: (saw_data.append(sq.data is not None),
                                                      fn())
    if drop:
        sq.release()
    return types.SimpleNamespace(loss=children[0].sum() + children[1].sum(), sq=sq,
                                 leaves=(x, w, v), rebuilds=rebuilds, saw_data=saw_data)


def test_dropped_node_is_rebuilt_once_for_two_children():
    g = _transient_graph(drop=True)
    assert g.sq.data is None and g.rebuilds == []
    backward(g.loss)
    assert g.rebuilds == [1]                 # the second child finds the data present
    assert g.saw_data == [True, True, True]  # both children, then the node itself


def test_dropped_node_gives_bit_identical_gradients():
    kept, dropped = _transient_graph(drop=False), _transient_graph(drop=True)
    backward(kept.loss)
    backward(dropped.loss)
    assert kept.rebuilds == [] and dropped.rebuilds == [1]
    for a, b in zip(kept.leaves, dropped.leaves):
        assert a.grad.tobytes() == b.grad.tobytes()


def test_graph_nbytes_excludes_dropped_data():
    kept, dropped = _transient_graph(drop=False), _transient_graph(drop=True)
    held_kept = graph_nbytes(kept.loss, stop=kept.leaves)
    assert held_kept - graph_nbytes(dropped.loss, stop=dropped.leaves) == kept.sq.data.nbytes


def test_release_keeps_the_rebuild_of_a_recorded_node():
    g = _transient_graph(drop=False)
    g.sq.release()
    assert g.sq.data is None and g.sq._rebuild is not None
    backward(g.loss)
    assert g.rebuilds == [1]


def test_rebuilt_node_is_released_right_after_its_child():
    a = Tensor(np.ones(3), requires_grad=True)
    w = Tensor(np.full(3, 2.0), requires_grad=True)
    h = a * 3.0
    t = Tensor._result(w.data * w.data, (w,), rebuild=lambda: w.data * w.data)
    t._backward = lambda: w._accum(2.0 * w.data * t.grad, owned=True)
    child = h * t
    t.release()
    order = []
    for name, node in (("h", h), ("t", t), ("child", child)):
        node._backward = lambda fn=node._backward, name=name: (order.append(name), fn())
    backward(child.sum())
    # t runs before h's side of the graph, not at the end of the pass
    assert order == ["child", "t", "h"]
    assert np.array_equal(w.grad, np.full(3, 12.0)) and np.array_equal(a.grad, np.full(3, 12.0))


def test_backward_through_a_released_parent_runs_its_closure():
    x = Tensor(np.array([[1.0, -2.0, 3.0]]), requires_grad=True)
    mid = x * 2.0          # its closure reads its gradient and the constant only
    out = maxpool1d(mid, 3, axis=1)
    mid.release()
    assert mid.data is None and mid._rebuild is None
    backward((out * 1.0).sum())
    # the released node's closure ran, and it was not rebuilt
    assert np.array_equal(x.grad, [[0.0, 0.0, 2.0]])
    assert mid.data is None


def test_graph_nbytes_counts_nothing_for_released_data():
    x = Tensor(np.ones((4, 6)), requires_grad=True)
    y = x * 2.0
    z = y * 3.0
    before = graph_nbytes(z, stop=[x])
    y.release()
    assert graph_nbytes(z, stop=[x]) == before - x.data.nbytes


def test_maxpool_backward_runs_after_its_input_is_released():
    rng = np.random.default_rng(17)
    x = Tensor(rng.normal(size=(2, 3, 7, 4)), requires_grad=True)
    h = x * 1.0
    out = maxpool1d(h, 3, axis=2)
    want = np.zeros(x.shape)
    idx = h.data[:, :, :6].reshape(2, 3, 2, 3, 4).argmax(axis=3)
    np.put_along_axis(want[:, :, :6].reshape(2, 3, 2, 3, 4), idx[:, :, :, None], 1.0, axis=3)
    h.release()
    backward(out.sum())
    assert np.array_equal(x.grad, want)


def _unfused_prelu(x, slopes, repeat, keep, scale):
    """PReLU then inverted dropout from additions and products alone:
    ``max(v, 0) + a * min(v, 0)``, times the scaled mask."""
    nd = x.data.ndim
    a = concat([slopes] * repeat).reshape((1, -1) + (1,) * (nd - 2))
    y = x * Tensor(x.data > 0.0) + (x * Tensor(x.data < 0.0)) * a
    if keep is None:
        return y
    mask = np.broadcast_to(keep[:, None] * scale, (keep.shape[0], repeat) + keep.shape[1:])
    return y * Tensor(mask.reshape(x.data.shape))


@pytest.mark.parametrize("repeat", [1, 4])
@pytest.mark.parametrize("dropout", [False, True])
@pytest.mark.parametrize("lo, hi", [(0.05, 0.6), (-0.5, 0.5), (-0.6, -0.05)])
def test_prelu_with_dropout_matches_the_unfused_composition(repeat, dropout, lo, hi):
    rng = np.random.default_rng(zlib.crc32(f"{repeat}{dropout}{lo}".encode()))
    c = 3
    data = rng.normal(size=(2, repeat * c, 5, 4))
    data[0, :, 0, 0] = 0.0                       # exact zeros take the 0 subgradient
    slopes_data = rng.uniform(lo, hi, size=c)
    keep = rng.random((2, c, 5, 4)) >= 0.3 if dropout else None
    g = rng.normal(size=data.shape)
    grads = []
    for fused in (True, False):
        x = Tensor(data.copy(), requires_grad=True)
        slopes = Tensor(slopes_data.copy(), requires_grad=True)
        if fused:
            out = prelu(x, slopes, repeat=repeat, keep=keep, scale=1 / 0.7)
        else:
            out = _unfused_prelu(x, slopes, repeat, keep, 1 / 0.7)
        backward((out * Tensor(g)).sum())
        grads.append((out.data, x.grad, slopes.grad))
    for got, want in zip(*grads):
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("second_slope", [0.5, -0.2])
def test_prelu_consume_writes_into_the_input_buffer(second_slope):
    rng = np.random.default_rng(18)
    data = rng.normal(size=(2, 8, 3, 5))
    slopes_data = np.array([0.25, second_slope])
    keep = rng.random((2, 2, 3, 5)) >= 0.5
    want = prelu(Tensor(data), Tensor(slopes_data), repeat=4, keep=keep, scale=2.0).data
    for recording in (False, True):
        x = Tensor(data.copy(), requires_grad=True)
        buffer = x.data
        slopes = Tensor(slopes_data.copy(), requires_grad=True)
        with contextlib.nullcontext() if recording else no_grad():
            out = prelu(x, slopes, repeat=4, keep=keep, scale=2.0, consume=True)
        assert np.array_equal(out.data, want)
        if recording and second_slope < 0:
            # the backward reads the input: it stays, and the output is new
            assert x.data is buffer and not np.shares_memory(out.data, buffer)
        else:
            assert x.data is None and np.shares_memory(out.data, buffer)


@pytest.mark.parametrize("slopes_data", [(0.25, 2.0), (0.25, -0.5), (0.0, -1.5)])
@pytest.mark.parametrize("consume", [False, True])
@pytest.mark.parametrize("dropout", [False, True])
def test_prelu_output_is_the_input_times_its_gain(slopes_data, consume, dropout):
    rng = np.random.default_rng(zlib.crc32(f"{slopes_data}{consume}{dropout}".encode()))
    data = rng.normal(size=(2, 8, 3, 5))
    data[0, :, 0, 0] = 0.0
    a = np.array(slopes_data)
    keep = rng.random((2, 2, 3, 5)) >= 0.3 if dropout else None
    v = data.reshape(2, 4, 2, 3, 5)
    want = v * (a[:, None, None] * (v < 0) + (v > 0))
    if dropout:
        want = want * 2.0 * keep[:, None]
    for recording in (False, True):
        x = Tensor(data.copy(), requires_grad=True)
        slopes = Tensor(a.copy(), requires_grad=True)
        with contextlib.nullcontext() if recording else no_grad():
            out = prelu(x, slopes, repeat=4, keep=keep, scale=2.0, consume=consume)
        assert np.array_equal(out.data, want.reshape(data.shape))


def test_prelu_with_positive_slopes_keeps_only_its_output():
    rng = np.random.default_rng(19)
    x = Tensor(rng.normal(size=(2, 8, 4, 6)), requires_grad=True)
    slopes = Tensor(np.full(2, 0.25), requires_grad=True)
    keep = rng.random((2, 2, 4, 6)) >= 0.3
    out = prelu(x * 1.0, slopes, repeat=4, keep=keep, scale=1 / 0.7, consume=True)
    # the output; no mask, and the consumed product is released
    assert graph_nbytes(out, stop=[x, slopes]) == out.data.nbytes + 8
    # any slope <= 0: the input and the mask stay too
    slopes.data[1] = 0.0
    out = prelu(x * 1.0, slopes, repeat=4, keep=keep, scale=1 / 0.7, consume=True)
    assert graph_nbytes(out, stop=[x, slopes]) == 2 * out.data.nbytes + keep.nbytes + 8


def test_prelu_rejects_mismatched_slopes_and_masks():
    x = Tensor(np.ones((2, 8, 3)))
    with pytest.raises(ValueError):
        prelu(x, Tensor(np.ones(8)), repeat=4)
    with pytest.raises(ValueError):
        prelu(Tensor(np.ones((2, 6, 3))), Tensor(np.ones(2)), repeat=4)
    with pytest.raises(ValueError):
        prelu(x, Tensor(np.ones(2)), repeat=4, keep=np.ones((2, 8, 3), bool))
