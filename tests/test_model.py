import numpy as np
import pytest

from qspeech.autodiff import Tensor, graph_nbytes
from qspeech.config import ModelConfig
from qspeech.errors import ConfigError
from qspeech.model import build_model, build_real_model, count_params
from qspeech.qlayers import QTensor

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
