import numpy as np
import pytest

from qspeech import qlayers
from qspeech.autodiff import Tensor, backward, conv2d, graph_nbytes, zero_grads
from qspeech.gradcheck import check_gradients
from qspeech.qlayers import (InitSpec, QConv2d, QDense, QPReLU, QTensor, RealConv2d,
                             RealDense, RealPReLU, block_weight_matrix, compose_polar,
                             maxpool_freq, quaternion_dropout, quaternion_init,
                             split_maxpool_freq, unit_dropout)
from qspeech.selftest import hamilton_conv2d, hamilton_dense


def rand_qtensor(rng, shape, requires_grad=False):
    return QTensor.from_arrays(*rng.normal(size=(4,) + shape), requires_grad=requires_grad)


def stack_planes(q):
    """Concatenate component planes along the channel/feature axis."""
    return np.concatenate([c.data for c in q.components], axis=1)


class TestQTensor:
    def test_plane_shapes_must_match(self):
        with pytest.raises(ValueError):
            QTensor.from_arrays(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(4))

    def test_real_equivalent_channels(self):
        q = rand_qtensor(np.random.default_rng(0), (2, 3, 4, 5))
        assert stack_planes(q).shape[1] == 4 * q.shape[1]

    @pytest.mark.parametrize("shape", [(2, 3, 4, 5), (6, 3)])
    def test_stacked_round_trip(self, shape):
        q = rand_qtensor(np.random.default_rng(1), shape)
        s = QTensor.of(q.stacked())
        assert s.shape == q.shape
        assert np.array_equal(s.numpy(), q.numpy())
        for got, want in zip(s.components, q.components):
            assert np.array_equal(got.data, want.data)

    def test_of_rejects_axis_one_not_divisible_by_four(self):
        with pytest.raises(ValueError):
            QTensor.of(Tensor(np.zeros((2, 6, 3, 3))))
        with pytest.raises(ValueError):
            QTensor.of(Tensor(np.zeros(8)))

    def test_planes_and_stacked_inputs_give_identical_outputs(self):
        rng = np.random.default_rng(2)
        conv, dense = QConv2d(2, 3, (3, 5), rng), QDense(4, 2, rng)
        for layer, shape in ((conv, (2, 2, 5, 6)), (dense, (3, 4))):
            for b in layer.bias.components:
                b.data[:] = rng.normal(size=b.shape)
            q = rand_qtensor(rng, shape)
            stacked = QTensor.of(Tensor(stack_planes(q)))
            assert np.array_equal(layer(q).stacked().data, layer(stacked).stacked().data)


class TestQConv2d:
    def test_identity_kernel_is_identity_map(self):
        rng = np.random.default_rng(1)
        layer = QConv2d(1, 1, (1, 1), rng, bias=False)
        for plane, value in zip(layer.w.components, (1.0, 0.0, 0.0, 0.0)):
            plane.data[:] = value
        q = rand_qtensor(rng, (2, 1, 5, 6))
        out = layer(q)
        assert np.allclose(out.numpy(), q.numpy(), atol=1e-15)

    def test_pure_i_kernel_left_multiplies(self):
        # i * (r + xi + yj + zk) = -x + ri - zj + yk
        rng = np.random.default_rng(2)
        layer = QConv2d(1, 1, (1, 1), rng, bias=False)
        for plane, value in zip(layer.w.components, (0.0, 1.0, 0.0, 0.0)):
            plane.data[:] = value
        q = rand_qtensor(rng, (1, 1, 3, 4))
        out = layer(q)
        r, x, y, z = (c.data for c in q.components)
        assert np.allclose(out.r.data, -x, atol=1e-15)
        assert np.allclose(out.x.data, r, atol=1e-15)
        assert np.allclose(out.y.data, -z, atol=1e-15)
        assert np.allclose(out.z.data, y, atol=1e-15)

    def test_matches_block_real_convolution(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            in_q, out_q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            layer = QConv2d(in_q, out_q, (3, 5), rng)
            layer.bias.x.data[:] = rng.normal(size=layer.bias.x.shape)
            q = rand_qtensor(rng, (2, in_q, 7, 6))
            got = stack_planes(layer(q))

            block = block_weight_matrix([p.data for p in layer.w.components])
            ref = conv2d(Tensor(stack_planes(q)), Tensor(block), (1, 1), (1, 2)).data
            ref += np.concatenate([b.data for b in layer.bias.components])[None]
            assert np.abs(got - ref).max() < 1e-10

    def test_channel_mismatch_rejected(self):
        layer = QConv2d(2, 3, (3, 3), np.random.default_rng(4))
        with pytest.raises(ValueError):
            layer(rand_qtensor(np.random.default_rng(0), (1, 5, 6, 6)))

    def test_weight_count_formula(self):
        layer = QConv2d(8, 8, (3, 5), np.random.default_rng(5), bias=False)
        assert layer.weight_count() == 4 * 8 * 8 * 15 == 3840

    def test_gradients(self):
        rng = np.random.default_rng(6)
        layer = QConv2d(2, 2, (3, 3), rng)
        q = rand_qtensor(rng, (1, 2, 4, 4), requires_grad=True)
        wrt = [*layer.w.components, layer.bias.r, *q.components]
        fn = lambda: sum((p * p).sum() for p in layer(q).components)
        assert check_gradients(fn, wrt) < 1e-4


class TestQDense:
    def test_identity_diagonal(self):
        rng = np.random.default_rng(7)
        layer = QDense(3, 3, rng, bias=False)
        for plane, value in zip(layer.w.components, (1.0, 0.0, 0.0, 0.0)):
            plane.data[:] = value * np.eye(3)
        q = rand_qtensor(rng, (4, 3))
        assert np.allclose(layer(q).numpy(), q.numpy(), atol=1e-15)

    def test_single_unit_hamilton_value(self):
        layer = QDense(1, 1, np.random.default_rng(8), bias=False)
        for plane, value in zip(layer.w.components, (1.0, 2.0, 3.0, 4.0)):
            plane.data[:] = value
        q = QTensor.from_arrays(*(np.full((1, 1), v) for v in (5.0, 6.0, 7.0, 8.0)))
        out = [c.data.item() for c in layer(q).components]
        assert out == [-60.0, 12.0, 30.0, 24.0]

    def test_matches_block_real_dense(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            in_q, out_q = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            layer = QDense(in_q, out_q, rng)
            layer.bias.z.data[:] = rng.normal(size=out_q)
            q = rand_qtensor(rng, (5, in_q))
            got = stack_planes(layer(q))
            block = block_weight_matrix([p.data for p in layer.w.components])
            ref = stack_planes(q) @ block.T
            ref += np.concatenate([b.data for b in layer.bias.components])[None]
            assert np.abs(got - ref).max() < 1e-10

    def test_dimension_mismatch_rejected(self):
        layer = QDense(4, 2, np.random.default_rng(10))
        with pytest.raises(ValueError):
            layer(rand_qtensor(np.random.default_rng(0), (3, 5)))

    def test_parameter_ratio_against_real_layer(self):
        # same real-equivalent widths: quaternion in_q->out_q vs real 4in->4out
        layer = QDense(256, 256, np.random.default_rng(11), bias=False)
        assert layer.weight_count() == 262_144
        real_count = (4 * 256) * (4 * 256)
        assert real_count == 1_048_576
        assert real_count == 4 * layer.weight_count()

    def test_gradients(self):
        rng = np.random.default_rng(12)
        layer = QDense(3, 2, rng)
        q = rand_qtensor(rng, (4, 3), requires_grad=True)
        wrt = [*layer.w.components, layer.bias.y, *q.components]
        fn = lambda: sum((p * p).sum() for p in layer(q).components)
        assert check_gradients(fn, wrt) < 1e-4


def outputs_and_grads(fn, q, params):
    """Planes of fn(q), and the gradients of their summed squares."""
    for t in params:
        t.grad = None
    out = fn(q)
    backward(sum((p * p).sum() for p in out.components))
    return out.numpy(), [t.grad.copy() for t in params]


def assert_matches_expansion(layer, expansion, q):
    """Outputs, and gradients for weights, bias and input, agree to 1e-10."""
    params = [*layer.w.components, *layer.bias.components, *q.components]
    got, got_grads = outputs_and_grads(layer, q, params)
    ref, ref_grads = outputs_and_grads(expansion, q, params)
    assert np.abs(got - ref).max() < 1e-10
    for g, r in zip(got_grads, ref_grads):
        assert np.abs(g - r).max() < 1e-10 * max(1.0, np.abs(r).max())


class TestHamiltonExpansion:
    """The layers against the 16-term Hamilton expansion in selftest."""

    @pytest.mark.parametrize("kernel", [(3, 3), (3, 5)])
    def test_conv_matches_expansion(self, kernel):
        rng = np.random.default_rng(40 + kernel[1])
        for _ in range(5):
            in_q, out_q = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            layer = QConv2d(in_q, out_q, kernel, rng)
            for b in layer.bias.components:
                b.data[:] = rng.normal(size=b.shape)
            shape = (int(rng.integers(1, 4)), in_q, int(rng.integers(3, 9)),
                     int(rng.integers(5, 9)))
            assert_matches_expansion(
                layer, lambda q: hamilton_conv2d(q, layer.w, layer.bias, layer.padding),
                rand_qtensor(rng, shape, requires_grad=True))

    def test_dense_matches_expansion(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            in_q, out_q = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            layer = QDense(in_q, out_q, rng)
            for b in layer.bias.components:
                b.data[:] = rng.normal(size=b.shape)
            assert_matches_expansion(
                layer, lambda q: hamilton_dense(q, layer.w, layer.bias),
                rand_qtensor(rng, (int(rng.integers(1, 9)), in_q), requires_grad=True))


def count_calls(monkeypatch, name):
    calls = []
    real = getattr(qlayers, name)
    monkeypatch.setattr(qlayers, name, lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


def new_graph_nodes(outputs, inputs):
    """Nodes with a backward rule reachable from outputs without passing inputs."""
    seen, stack, count = {id(t) for t in inputs}, list(outputs), 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            count += 1
            stack.extend(node._parents)
    return count


def stacked_input(rng, shape):
    """A stacked QTensor leaf of the given plane shape."""
    shape = (shape[0], 4 * shape[1]) + shape[2:]
    return QTensor.of(Tensor(rng.normal(size=shape), requires_grad=True))


class TestOneGemmPerLayer:
    # block weight, conv, bias concat, bias add
    MAX_CONV_NODES = 4
    # the conv's nodes, slope concat, prelu, dropout multiply
    MAX_BLOCK_NODES = 7

    def test_conv_makes_one_conv2d_call(self, monkeypatch):
        calls = count_calls(monkeypatch, "conv2d")
        rng = np.random.default_rng(44)
        layer = QConv2d(3, 2, (3, 5), rng)
        q = stacked_input(rng, (2, 3, 6, 7))
        out = layer(q)
        assert len(calls) == 1
        assert new_graph_nodes([out.stacked()], [q.stacked()]) <= self.MAX_CONV_NODES

    def test_planes_input_adds_one_concat(self):
        rng = np.random.default_rng(46)
        layer = QConv2d(3, 2, (3, 5), rng)
        q = rand_qtensor(rng, (2, 3, 6, 7), requires_grad=True)
        out = layer(q)
        assert new_graph_nodes([out.stacked()], q.components) <= self.MAX_CONV_NODES + 1

    def test_conv_prelu_dropout_block_nodes(self):
        rng = np.random.default_rng(47)
        conv, act = QConv2d(3, 2, (3, 5), rng), QPReLU(2)
        q = stacked_input(rng, (2, 3, 6, 7))
        out = quaternion_dropout(act(conv(q)), 0.3, rng, training=True)
        assert new_graph_nodes([out.stacked()], [q.stacked()]) <= self.MAX_BLOCK_NODES

    def test_conv_prelu_dropout_block_bytes(self):
        rng = np.random.default_rng(48)
        conv, act = QConv2d(8, 8, (3, 5), rng), QPReLU(8)
        q = stacked_input(rng, (2, 8, 13, 20))
        out = quaternion_dropout(act(conv(q)), 0.3, rng, training=True).stacked()
        params = [t for _, t in conv.parameters("conv") + act.parameters("act")]
        held = graph_nbytes(out, stop=[q.stacked()] + params)
        activation = out.data.nbytes
        vectors = 2 * (4 * 8 + 5) * 8   # concatenated bias and slopes, split offsets
        # conv, bias add, PReLU and dropout outputs, plus a plane-sized mask;
        # the block weight is dropped after the conv and rebuilt in the backward
        assert held <= 4.25 * activation + vectors

    def test_conv_block_holds_three_activations(self):
        rng = np.random.default_rng(48)
        conv, act = QConv2d(8, 8, (3, 5), rng), QPReLU(8)
        q = stacked_input(rng, (2, 8, 13, 20))
        out = quaternion_dropout(act(conv(q)), 0.3, rng, training=True).stacked()
        params = [t for _, t in conv.parameters("conv") + act.parameters("act")]
        held = graph_nbytes(out, stop=[q.stacked()] + params)
        activation = out.data.nbytes
        vectors = 2 * (4 * 8 + 5) * 8   # concatenated bias and slopes, split offsets
        # conv (its bias added in place), PReLU and dropout outputs, plus a
        # plane-sized mask: no bias-add output
        assert held <= 3.25 * activation + vectors

    def test_conv_records_no_bias_add_node(self):
        rng = np.random.default_rng(44)
        layer = QConv2d(3, 2, (3, 5), rng)
        q = stacked_input(rng, (2, 3, 6, 7))
        # block weight, bias concat, conv
        assert new_graph_nodes([layer(q).stacked()], [q.stacked()]) == 3

    def test_dense_graph_holds_output_and_bias(self):
        rng = np.random.default_rng(49)
        layer = QDense(6, 5, rng)
        q = stacked_input(rng, (7, 6))
        out = layer(q).stacked()
        held = graph_nbytes(out, stop=[q.stacked(), *layer.w.components,
                                       *layer.bias.components])
        vectors = 4 * 5 * 8 + 5 * 8   # concatenated bias, split offsets
        # the product's output, its bias added in place: no block weight (it is
        # dropped after the product), no transposed weight and no plane copy
        assert held == 1 * out.data.nbytes + vectors

    def test_dense_makes_one_linear_call(self, monkeypatch):
        calls = count_calls(monkeypatch, "linear")
        rng = np.random.default_rng(45)
        layer = QDense(3, 2, rng)
        layer(rand_qtensor(rng, (4, 3), requires_grad=True))
        assert len(calls) == 1

    def test_real_dense_makes_no_transpose_node(self, monkeypatch):
        rng = np.random.default_rng(50)
        layer = RealDense(6, 4, rng)
        transposes = []
        real = Tensor.transpose
        monkeypatch.setattr(Tensor, "transpose",
                            lambda self, axes: transposes.append(axes) or real(self, axes))
        x = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
        out = layer(x)
        assert transposes == []
        # the product, its bias added in place
        assert new_graph_nodes([out], [x, layer.w, layer.b]) == 1


class TestFusedBlock:
    """``_PReLU.block`` and ``pooled_block``: PReLU and dropout (or the first
    block's pool) over a layer's fresh output, as one ``prelu`` node."""

    # concatenated bias planes and their split offsets
    VECTORS = 4 * 8 * 8 + 5 * 8

    def test_quaternion_conv_block_holds_one_activation(self):
        rng = np.random.default_rng(48)
        conv, act = QConv2d(8, 8, (3, 5), rng), QPReLU(8)
        q = stacked_input(rng, (2, 8, 13, 20))
        out = act.block(conv(q).stacked(), 0.3, rng, training=True)
        params = [t for _, t in conv.parameters("conv") + act.parameters("act")]
        held = graph_nbytes(out, stop=[q.stacked()] + params)
        # the activation only: the conv output is released, and no mask is kept
        assert held <= 1.1 * out.data.nbytes + self.VECTORS

    def test_real_conv_block_holds_one_activation(self):
        rng = np.random.default_rng(48)
        conv, act = RealConv2d(32, 32, (3, 5), rng), RealPReLU(32)
        x = Tensor(rng.normal(size=(2, 32, 13, 20)), requires_grad=True)
        out = act.block(conv(x), 0.3, rng, training=True)
        params = [t for _, t in conv.parameters("conv") + act.parameters("act")]
        assert graph_nbytes(out, stop=[x] + params) <= 1.1 * out.data.nbytes

    def test_quaternion_dense_block_holds_one_activation(self):
        rng = np.random.default_rng(53)
        dense, act = QDense(8, 8, rng), QPReLU(8)
        q = stacked_input(rng, (40, 8))
        out = act.block(dense(q).stacked(), 0.3, rng, training=True)
        params = [t for _, t in dense.parameters("dense") + act.parameters("act")]
        held = graph_nbytes(out, stop=[q.stacked()] + params)
        # the activation only: the product output is released, and no mask is
        # kept
        assert held <= 1.1 * out.data.nbytes + self.VECTORS

    def test_real_dense_block_holds_one_activation(self):
        rng = np.random.default_rng(53)
        dense, act = RealDense(32, 32, rng), RealPReLU(32)
        x = Tensor(rng.normal(size=(40, 32)), requires_grad=True)
        out = act.block(dense(x), 0.3, rng, training=True)
        params = [t for _, t in dense.parameters("dense") + act.parameters("act")]
        assert graph_nbytes(out, stop=[x] + params) <= 1.1 * out.data.nbytes

    @pytest.mark.parametrize("algebra", ["quaternion", "real"])
    def test_first_block_holds_its_pooled_output_and_argmax(self, algebra):
        rng = np.random.default_rng(51)
        if algebra == "quaternion":
            conv, act = QConv2d(1, 8, (3, 5), rng), QPReLU(8)
            x = stacked_input(rng, (2, 1, 41, 20))
            z, inputs, vectors = conv(x).stacked(), [x.stacked()], self.VECTORS
            pool = lambda t: split_maxpool_freq(QTensor.of(t), 3).stacked()
        else:
            conv, act = RealConv2d(4, 32, (3, 5), rng), RealPReLU(32)
            x = Tensor(rng.normal(size=(2, 4, 41, 20)), requires_grad=True)
            z, inputs, vectors = conv(x), [x], 0
            pool = lambda t: maxpool_freq(t, 3)
        out = act.pooled_block(z, pool)
        assert out.shape == (2, 32, 13, 20) and z.data is None
        params = [t for _, t in conv.parameters("conv") + act.parameters("act")]
        held = graph_nbytes(out, stop=inputs + params)
        # the pooled activation and one byte of argmax per pooled element:
        # no full-resolution array
        assert held == out.data.nbytes + out.data.size + vectors

    @pytest.mark.parametrize("slope", [0.0, -0.1])
    def test_a_slope_not_above_zero_keeps_the_input(self, slope):
        rng = np.random.default_rng(48)
        conv, act = QConv2d(8, 8, (3, 5), rng), QPReLU(8)
        act.slopes.data[3] = slope
        q = stacked_input(rng, (2, 8, 13, 20))
        out = act.block(conv(q).stacked(), 0.3, rng, training=True)
        params = [t for _, t in conv.parameters("conv") + act.parameters("act")]
        held = graph_nbytes(out, stop=[q.stacked()] + params)
        # the conv output, the activation and a plane-sized bool mask
        activation = out.data.nbytes
        assert held == 2 * activation + activation // 32 + self.VECTORS

    @pytest.mark.parametrize("slopes", [(0.25, 0.5), (0.3, -0.2), (0.0, 0.1)])
    @pytest.mark.parametrize("training", [False, True])
    def test_block_values_and_rng_match_unfused_layers(self, slopes, training):
        rng = np.random.default_rng(52)
        x = rng.normal(size=(2, 8, 5, 7))
        for act, dropout, wrap in ((QPReLU(2), quaternion_dropout, QTensor.of),
                                   (RealPReLU(8), unit_dropout, lambda t: t)):
            act.slopes.data[:] = np.resize(slopes, act.slopes.shape)
            want_rng, got_rng = np.random.default_rng(3), np.random.default_rng(3)
            want = dropout(act(wrap(Tensor(x))), 0.3, want_rng, training)
            got = act.block(Tensor(x.copy()), 0.3, got_rng, training)
            want = want.stacked() if isinstance(want, QTensor) else want
            assert np.array_equal(got.data, want.data)
            assert want_rng.random() == got_rng.random()


# (layer, plane shape of its input) for every quaternion layer; a layer that
# draws dropout gets a fresh, equally seeded rng per call
STACKED_LAYERS = [
    pytest.param(lambda rng: QConv2d(2, 3, (3, 5), rng), (2, 2, 6, 5), id="QConv2d"),
    pytest.param(lambda rng: QDense(3, 2, rng), (5, 3), id="QDense"),
    pytest.param(lambda rng: QPReLU(2, init=0.25), (2, 2, 4, 3), id="QPReLU"),
    pytest.param(lambda rng: (lambda x: split_maxpool_freq(x, 2)), (2, 2, 6, 3),
                 id="split_maxpool_freq"),
    pytest.param(lambda rng: (lambda x: quaternion_dropout(
        x, 0.3, np.random.default_rng(9), training=True)), (3, 5), id="quaternion_dropout"),
]


@pytest.mark.parametrize("make, shape", STACKED_LAYERS)
def test_layer_takes_and_returns_the_stacked_tensor(make, shape):
    rng = np.random.default_rng(60)
    layer = make(rng)
    params = [t for _, t in layer.parameters("l")] if hasattr(layer, "parameters") else []
    x = rng.normal(size=(shape[0], 4 * shape[1]) + shape[2:])
    runs = []
    for as_qtensor in (False, True):
        zero_grads(params)
        leaf = Tensor(x.copy(), requires_grad=True)
        out = layer(QTensor.of(leaf) if as_qtensor else leaf)
        assert type(out) is (QTensor if as_qtensor else Tensor)
        out = out.stacked() if as_qtensor else out
        backward((out * Tensor(np.linspace(-1.0, 1.0, out.data.size).reshape(out.shape))).sum())
        runs.append([out.data, leaf.grad] + [p.grad for p in params])
    for got, want in zip(*runs):
        assert np.array_equal(got, want)


class TestSplitOps:
    def test_prelu_negative_ones(self):
        slopes = 0.3
        act = QPReLU(1, init=slopes)
        q = QTensor.from_arrays(*(np.full((2, 1), -1.0) for _ in range(4)))
        out = act(q)
        assert np.allclose(out.numpy(), -slopes)

    def test_prelu_zero_slope_is_relu(self):
        rng = np.random.default_rng(14)
        act = QPReLU(3, init=0.0)
        q = rand_qtensor(rng, (5, 3))
        assert np.array_equal(act(q).numpy(), np.maximum(q.numpy(), 0.0))

    def test_prelu_unit_slope_is_identity(self):
        rng = np.random.default_rng(15)
        act = QPReLU(3, init=1.0)
        q = rand_qtensor(rng, (5, 3))
        assert np.allclose(act(q).numpy(), q.numpy(), atol=1e-15)

    def test_prelu_slope_gradient(self):
        rng = np.random.default_rng(16)
        act = QPReLU(2, init=0.25)
        q = rand_qtensor(rng, (1, 2, 3, 3), requires_grad=True)
        fn = lambda: sum((p * p).sum() for p in act(q).components)
        assert check_gradients(fn, [act.slopes, *q.components]) < 1e-5

    def test_maxpool_width_one_is_identity(self):
        q = rand_qtensor(np.random.default_rng(17), (1, 2, 6, 4))
        assert np.array_equal(split_maxpool_freq(q, 1).numpy(), q.numpy())

    def test_maxpool_constant_plane(self):
        q = QTensor.from_arrays(*(np.full((1, 1, 7, 3), 2.5) for _ in range(4)))
        out = split_maxpool_freq(q, 3)
        assert out.shape == (1, 1, 2, 3)
        assert np.all(out.numpy() == 2.5)

    def test_maxpool_matches_naive_loop(self):
        rng = np.random.default_rng(18)
        q = rand_qtensor(rng, (2, 3, 8, 5))
        width = 3
        out = split_maxpool_freq(q, width).numpy()
        planes = q.numpy()
        ref = np.zeros((4, 2, 3, 8 // width, 5))
        for c in range(4):
            for b in range(2):
                for ch in range(3):
                    for f in range(8 // width):
                        for t in range(5):
                            ref[c, b, ch, f, t] = max(
                                planes[c, b, ch, f * width + u, t] for u in range(width))
        assert np.array_equal(out, ref)


class TestDropout:
    def test_rate_zero_identity(self):
        q = rand_qtensor(np.random.default_rng(19), (2, 5))
        out = quaternion_dropout(q, 0.0, np.random.default_rng(0), training=True)
        assert np.array_equal(out.numpy(), q.numpy())

    def test_inference_identity(self):
        q = rand_qtensor(np.random.default_rng(20), (2, 5))
        out = quaternion_dropout(q, 0.9, None, training=False)
        assert np.array_equal(out.numpy(), q.numpy())

    def test_mask_shared_across_components(self):
        rng = np.random.default_rng(21)
        q = QTensor.from_arrays(*(np.ones((4, 100)) for _ in range(4)))
        out = quaternion_dropout(q, 0.5, rng, training=True).numpy()
        dropped = out == 0.0
        # a dropped unit is dropped in all four components
        assert dropped.any()
        assert (dropped == dropped[0]).all()
        # the real twin's dropout draws per real unit: the blocks differ
        real = unit_dropout(q.stacked(), 0.5, rng, training=True).data.reshape(4, 4, 100)
        dropped = real == 0.0
        assert dropped.any() and not (dropped == dropped[:, :1]).all()

    def test_survivors_scaled(self):
        rng = np.random.default_rng(22)
        q = QTensor.from_arrays(*(np.ones((10, 10)) for _ in range(4)))
        out = quaternion_dropout(q, 0.25, rng, training=True).numpy()
        kept = out[out != 0.0]
        assert np.allclose(kept, 1.0 / 0.75)

    def test_empirical_keep_fraction(self):
        rng = np.random.default_rng(23)
        q = QTensor.from_arrays(*(np.ones((1000, 1000)) for _ in range(4)))
        out = quaternion_dropout(q, 0.3, rng, training=True)
        keep = float((out.r.data != 0.0).mean())
        assert abs(keep - 0.700) < 0.005

    def test_keeps_a_plane_sized_mask(self):
        rng = np.random.default_rng(50)
        x = stacked_input(rng, (2, 3, 6, 7)).stacked()
        out = quaternion_dropout(QTensor.of(x), 0.3, rng, training=True).stacked()
        assert graph_nbytes(out, stop=[x]) - out.data.nbytes <= out.data.nbytes / 4

    @pytest.mark.parametrize("shape", [(2, 3, 6, 7), (5, 3)])
    def test_gradient(self, shape):
        rng = np.random.default_rng(51)
        x = stacked_input(rng, shape).stacked()
        c = Tensor(rng.normal(size=x.shape))
        fn = lambda: (quaternion_dropout(QTensor.of(x), 0.4, np.random.default_rng(3),
                                         training=True).stacked() * c).sum()
        assert check_gradients(fn, [x]) < 1e-5

    def test_bad_rate_rejected(self):
        q = rand_qtensor(np.random.default_rng(24), (2, 2))
        with pytest.raises(ValueError):
            quaternion_dropout(q, 1.0, np.random.default_rng(0), training=True)


class TestInitializer:
    def test_zero_phase_gives_purely_real(self):
        rng = np.random.default_rng(25)
        phi = rng.uniform(0.5, 2.0, size=100)
        axis = rng.normal(size=(100, 3))
        axis /= np.linalg.norm(axis, axis=-1, keepdims=True)
        r, x, y, z = compose_polar(phi, np.zeros(100), axis)
        assert np.array_equal(r, phi)
        assert not np.any(x) and not np.any(y) and not np.any(z)

    def test_imaginary_direction_is_unit(self):
        rng = np.random.default_rng(26)
        phi = rng.uniform(0.5, 2.0, size=500)
        theta = rng.uniform(-np.pi, np.pi, size=500)
        axis = rng.random((500, 3))
        axis /= np.linalg.norm(axis, axis=-1, keepdims=True)
        _, x, y, z = compose_polar(phi, theta, axis)
        direction_norm = np.sqrt(x * x + y * y + z * z) / np.abs(phi * np.sin(theta))
        assert np.allclose(direction_norm, 1.0)

    def test_magnitude_is_phi(self):
        rng = np.random.default_rng(27)
        spec = InitSpec(n_in=16, n_out=16)
        r, x, y, z = quaternion_init(spec, (2000,), rng)
        # |w| follows sigma * Chi(4); its mean is sigma*E[Chi(4)]
        mags = np.sqrt(r * r + x * x + y * y + z * z)
        sigma = spec.sigma()
        # E[Chi(4)] = sqrt(2) * Gamma(5/2) / Gamma(2)
        expected_mean = sigma * np.sqrt(2.0) * 1.3293403882
        assert mags.mean() == pytest.approx(expected_mean, rel=0.05)

    def test_variance_and_mean_statistics(self):
        rng = np.random.default_rng(28)
        spec = InitSpec(n_in=128, n_out=128, criterion="he")
        planes = quaternion_init(spec, (100_000,), rng)
        w = np.stack(planes, axis=1)
        var = (w ** 2).sum(axis=1).mean() - (w.mean(axis=0) ** 2).sum()
        target = 4.0 * spec.sigma() ** 2
        assert abs(var - target) / target < 0.03
        se = w.std(axis=0) / np.sqrt(w.shape[0])
        assert np.all(np.abs(w.mean(axis=0)) < 3.0 * se)

    def test_glorot_sigma(self):
        assert InitSpec(10, 30, "glorot").sigma() == pytest.approx(1.0 / np.sqrt(80.0))

    def test_he_sigma(self):
        assert InitSpec(128, 1, "he").sigma() == pytest.approx(1.0 / np.sqrt(256.0))

    def test_bad_fanin_rejected(self):
        with pytest.raises(ValueError):
            quaternion_init(InitSpec(0, 1), (3,), np.random.default_rng(0))


def test_conv_layer_uses_receptive_field_fanin():
    # sigma for he with n_in = in_q*kh*kw; check the drawn scale matches
    rng = np.random.default_rng(29)
    layer = QConv2d(4, 64, (3, 5), rng, bias=False)
    w = np.stack([p.data for p in layer.w.components])
    var = (w ** 2).sum(axis=0).mean()
    target = 4.0 / (2.0 * 4 * 15)
    assert var == pytest.approx(target, rel=0.05)
