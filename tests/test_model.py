import io
import math
from dataclasses import replace

import numpy as np
import pytest

from qspeech.autodiff import Tensor, backward, graph_nbytes, zero_grads
from qspeech.config import ModelConfig, RunConfig, TrainConfig
from qspeech.ctc import SymbolTable
from qspeech.data import synth_toy_dataset
from qspeech.errors import ConfigError
from qspeech.model import build_model, build_real_model, count_params
from qspeech.qlayers import QTensor, quaternion_dropout, split_maxpool_freq, unit_dropout
from qspeech.trainer import Trainer

SMALL = ModelConfig(n_conv_layers=2, conv_channels=3, n_dense_layers=1,
                    dense_width=8, in_freq=9, dropout=0.3)
BUILDERS = (build_model, build_real_model)   # the quaternion model and its real twin


def features(rng, batch, freq, time):
    planes = np.zeros((4, batch, 1, freq, time))
    planes[1:] = rng.normal(size=(3, batch, 1, freq, time))
    return QTensor.from_arrays(*planes)


def test_forward_smoke_shapes():
    rng = np.random.default_rng(0)
    cfg = ModelConfig(n_conv_layers=6, conv_channels=8, n_dense_layers=3,
                      dense_width=16)
    model = build_model(cfg, n_classes=40, rng=rng)
    out = model.forward(features(rng, 2, 41, 12))
    assert out.shape == (2, 12, 40)
    assert np.all(np.isfinite(out.data))


def test_training_forward_uses_dropout():
    for build in BUILDERS:
        rng = np.random.default_rng(1)
        model = build(SMALL, n_classes=5, rng=rng)
        x = features(rng, 1, 9, 6)
        quiet = model.forward(x, training=False)
        noisy = model.forward(x, training=True, rng=np.random.default_rng(2))
        assert not np.array_equal(quiet.data, noisy.data)


def test_time_axis_never_pooled():
    for build in BUILDERS:
        rng = np.random.default_rng(3)
        model = build(SMALL, n_classes=4, rng=rng)
        for t in (5, 17, 30):
            assert model.forward(features(rng, 1, 9, t)).shape[1] == t


def test_dense_pair_parameter_counts():
    # real 1024->1024 vs quaternion 256q->256q, weights only
    from qspeech.qlayers import QDense, RealDense
    rng = np.random.default_rng(4)
    qd = QDense(256, 256, rng, bias=False)
    rd = RealDense(1024, 1024, rng, bias=False)
    assert rd.weight_count() == 1_048_576
    assert qd.weight_count() == 262_144
    assert rd.weight_count() / qd.weight_count() == 4.0


def test_paired_models_weight_ratio_exactly_four():
    rng = np.random.default_rng(5)
    cfg = ModelConfig(n_conv_layers=4, conv_channels=8, n_dense_layers=3,
                      dense_width=16)
    q = build_model(cfg, n_classes=6, rng=rng)
    r = build_real_model(cfg, n_classes=6, rng=np.random.default_rng(5))
    for ql, rl in zip(q.convs + q.denses, r.convs + r.denses):
        assert rl.weight_count() == 4 * ql.weight_count()


def test_total_param_ratio_near_quarter():
    # biases and PReLU slopes keep the total ratio slightly above 1/4
    rng = np.random.default_rng(6)
    cfg = ModelConfig(n_conv_layers=10, conv_channels=64, n_dense_layers=3,
                      dense_width=256)
    q = build_model(cfg, n_classes=62, rng=rng)
    r = build_real_model(cfg, n_classes=62, rng=np.random.default_rng(6))
    ratio = count_params(q) / count_params(r)
    assert 0.24 < ratio < 0.27


def test_count_params_exact_small():
    rng = np.random.default_rng(7)
    cfg = ModelConfig(n_conv_layers=1, conv_channels=2, n_dense_layers=1,
                      dense_width=3, in_freq=9, kernel_freq=3, kernel_time=5)
    model = build_model(cfg, n_classes=4, rng=rng)
    conv_w = 4 * 2 * 1 * 15
    conv_b = 4 * 2
    conv_slopes = 2
    dense_in = 2 * (9 // 3)
    dense_w = 4 * 3 * dense_in
    dense_b = 4 * 3
    dense_slopes = 3
    head = (4 * 3) * 4 + 4
    assert count_params(model) == (conv_w + conv_b + conv_slopes + dense_w
                                   + dense_b + dense_slopes + head)


def test_invalid_config_rejected_with_field():
    with pytest.raises(ConfigError, match="n_conv_layers"):
        build_model(ModelConfig(n_conv_layers=0), 5, np.random.default_rng(0))


def test_layer_table_matches_total():
    for build in BUILDERS:
        rng = np.random.default_rng(8)
        model = build(SMALL, n_classes=5, rng=rng)
        assert sum(n for _, _, n in model.layer_table()) == count_params(model)


def test_parameter_names_unique():
    for build in BUILDERS:
        rng = np.random.default_rng(9)
        model = build(SMALL, n_classes=5, rng=rng)
        names = [n for n, _ in model.parameters()]
        assert len(names) == len(set(names))


def test_regularized_excludes_first_conv_head_and_biases():
    for build in BUILDERS:
        rng = np.random.default_rng(10)
        model = build(SMALL, n_classes=5, rng=rng)
        reg = {n for n, _ in model.regularized_parameters()}
        # quaternion weights are "<layer>.w.<component>", real ones "<layer>.w"
        assert all(n.split(".")[1] == "w" for n in reg)
        assert not any(n.startswith("conv0.") for n in reg)
        assert not any(n.startswith("head") for n in reg)
        assert any(n.startswith("conv1.") for n in reg)
        assert any(n.startswith("dense0.") for n in reg)


def test_real_model_forward_shape():
    rng = np.random.default_rng(11)
    model = build_real_model(SMALL, n_classes=5, rng=rng)
    assert model.forward(features(rng, 2, 9, 7)).shape == (2, 7, 5)


def test_training_graph_holds_no_block_weight():
    # Each quaternion layer drops its 4x4 block weight once its product has
    # run; the backward rebuilds it from the four planes.
    rng = np.random.default_rng(12)
    cfg = ModelConfig()
    model = build_model(cfg, n_classes=62, rng=rng)
    x = Tensor(rng.normal(size=(2, 4 * cfg.in_channels, cfg.in_freq, 20)))
    out = model.forward(QTensor.of(x), training=True, rng=rng)
    held = graph_nbytes(out, stop=[x] + [t for _, t in model.parameters()])
    block_weights = sum(16 * layer.w.r.data.nbytes for layer in model.convs + model.denses)
    assert held < block_weights


@pytest.mark.parametrize("build", BUILDERS)
def test_layers_get_and_return_plain_tensors(build, monkeypatch):
    # Inside the model an activation is the stacked Tensor in both algebras:
    # no conv, dense or pool call sees a QTensor, and both pool through
    # split_maxpool_freq.
    from qspeech import model as model_module
    model = build(SMALL, n_classes=5, rng=np.random.default_rng(19))
    seen = []

    def spy(name, fn):
        def call(x, *args):
            out = fn(x, *args)
            seen.append((name, type(x), type(out)))
            return out
        return call

    monkeypatch.setattr(model_module, "split_maxpool_freq",
                        spy("pool", model_module.split_maxpool_freq))
    model.convs[:] = [spy("conv", c) for c in model.convs]
    model.denses[:] = [spy("dense", d) for d in model.denses]
    model.forward(features(np.random.default_rng(20), 2, 9, 6), training=True,
                  rng=np.random.default_rng(21))
    assert sorted(name for name, _, _ in seen) == sorted(
        ["pool"] + ["conv"] * SMALL.n_conv_layers + ["dense"] * SMALL.n_dense_layers)
    assert all(t_in is Tensor and t_out is Tensor for _, t_in, t_out in seen)


# model.prelu_init values on both sides of the one-activation path: with
# every slope > 0 a block's PReLU runs its backward from its output, with a
# slope <= 0 it keeps its input
PRELU_INITS = (0.25, 0.0, -0.1)


def unfused_forward(model, feats, training, rng):
    """``CNNModel.forward`` as one node per layer: conv -> PReLU -> pool in
    the first block, conv -> PReLU -> dropout in the others."""
    cfg = model.cfg
    if model.algebra == "quaternion":
        wrap, pool, dropout = QTensor.of, split_maxpool_freq, quaternion_dropout
    else:
        wrap, pool, dropout = (lambda t: t), split_maxpool_freq, unit_dropout

    def tensor(x):
        return x.stacked() if isinstance(x, QTensor) else x

    x = wrap(feats.stacked())
    for i, (conv, act) in enumerate(zip(model.convs, model.conv_acts)):
        x = act(conv(x))
        x = pool(x, cfg.pool_width) if i == 0 else dropout(x, cfg.dropout, rng, training)
    x = tensor(x)
    b, c, f, t = x.shape
    x = wrap(x.transpose((0, 3, 1, 2)).reshape((b * t, c * f)))
    for dense, act in zip(model.denses, model.dense_acts):
        x = dropout(act(dense(x)), cfg.dropout, rng, training)
    return model.head(tensor(x)).reshape((b, t, model.n_classes))


@pytest.mark.parametrize("build", BUILDERS)
@pytest.mark.parametrize("prelu_init", PRELU_INITS)
def test_fused_blocks_match_the_unfused_composition(build, prelu_init):
    model = build(replace(SMALL, n_conv_layers=3, prelu_init=prelu_init), n_classes=5,
                  rng=np.random.default_rng(13))
    x = features(np.random.default_rng(14), 2, 9, 11)
    g = Tensor(np.random.default_rng(15).normal(size=(2, 11, 5)))
    params = [p for _, p in model.parameters()]
    runs = []
    for forward in (model.forward, lambda *a, **k: unfused_forward(model, *a, **k)):
        zero_grads(params)
        rng = np.random.default_rng(16)
        out = forward(x, training=True, rng=rng)
        backward((out * g).sum())
        runs.append((out.data, rng.random(), [p.grad for p in params]))
    (out, draw, grads), (want_out, want_draw, want_grads) = runs
    assert np.array_equal(out, want_out) and draw == want_draw
    for got, want in zip(grads, want_grads):
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("prelu_init, most", [(0.25, 1.05), (0.0, 2.05), (-0.1, 2.05)])
def test_conv_block_graph_follows_the_slope_signs(prelu_init, most):
    rng = np.random.default_rng(17)
    model = build_model(replace(SMALL, conv_channels=8, prelu_init=prelu_init), 5, rng)
    conv, act = model.convs[1], model.conv_acts[1]
    x = Tensor(rng.normal(size=(2, 32, 3, 20)), requires_grad=True)
    out = act.block(conv(QTensor.of(x)).stacked(), 0.3, rng, training=True)
    params = [p for _, p in conv.parameters("c") + act.parameters("a")]
    held = graph_nbytes(out, stop=[x] + params) / out.data.nbytes
    # one activation at 0.25; the conv output, the activation and a bool
    # mask at 0 and -0.1 (the unfused block held 3.25)
    assert most - 0.05 <= held <= most


@pytest.mark.parametrize("prelu_init", PRELU_INITS)
def test_one_epoch_trains_at_any_prelu_init(prelu_init, tmp_path):
    symbols = ("a", "b", "c")
    cfg = RunConfig(model=ModelConfig(n_conv_layers=2, conv_channels=3, n_dense_layers=1,
                                      dense_width=8, dropout=0.3, prelu_init=prelu_init),
                    train=TrainConfig(epochs=1, fine_tune_epochs=0, batch_size=3, seed=4))
    utts = synth_toy_dataset(8, symbols, np.random.default_rng(18), min_frames=12,
                             max_frames=20, min_labels=1, max_labels=2)
    log = io.StringIO()
    Trainer(cfg, SymbolTable(symbols), log_stream=log).train(utts[:6], utts[6:], tmp_path)
    (line,) = log.getvalue().splitlines()
    fields = dict(kv.split("=") for kv in line.split())
    assert fields["epoch"] == "1" and fields["phase"] == "adam"
    assert all(math.isfinite(float(fields[k])) for k in ("train_loss", "dev_loss", "dev_per"))
