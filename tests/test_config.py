import pytest

from qspeech.config import (ModelConfig, RunConfig, TrainConfig, config_hash,
                            dump_config, parse_config)
from qspeech.errors import ConfigError


def test_defaults_validate():
    RunConfig().validate()


def test_parse_and_dump_roundtrip():
    cfg = RunConfig(model=ModelConfig(n_conv_layers=10, conv_channels=64,
                                      symbols="a b c"),
                    train=TrainConfig(epochs=3, seed=7))
    again = parse_config(dump_config(cfg))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


def test_parse_basic():
    cfg = parse_config("""
        # comment
        model.n_conv_layers = 8
        model.dropout = 0.2
        train.batch_size = 4
        features.include_energy = true
    """)
    assert cfg.model.n_conv_layers == 8
    assert cfg.model.dropout == 0.2
    assert cfg.train.batch_size == 4
    assert cfg.features.include_energy is True


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("model.frobnicate = 1")


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("banana.x = 1")


def test_bad_type_rejected():
    with pytest.raises(ConfigError, match="model.n_conv_layers"):
        parse_config("model.n_conv_layers = lots")


def test_missing_section_prefix():
    with pytest.raises(ConfigError, match="section prefix"):
        parse_config("epochs = 3")


@pytest.mark.parametrize("line,field", [
    ("model.n_conv_layers = 0", "n_conv_layers"),
    ("model.dropout = 1.5", "dropout"),
    ("model.kernel_freq = 4", "kernel_freq"),
    ("model.pool_width = 99", "pool_width"),
    ("train.batch_size = 0", "batch_size"),
    ("train.early_stop_metric = wer", "early_stop_metric"),
    ("train.seed = -1", "seed"),
    ("train.adam_lr = -1", "adam_lr"),
    ("train.adam_eps = 0", "adam_eps"),
    ("train.adam_beta1 = 1.0", "adam_beta1"),
    ("train.adam_beta2 = -0.5", "adam_beta2"),
    ("train.sgd_lr = -1e-3", "sgd_lr"),
    ("features.hop_ms = inf", "hop_ms"),
    ("features.window_ms = nan", "window_ms"),
])
def test_validation_names_field(line, field):
    with pytest.raises(ConfigError, match=field):
        parse_config(line)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_a_non_finite_prelu_init_is_rejected(value):
    with pytest.raises(ConfigError, match="model.prelu_init"):
        ModelConfig(prelu_init=value).validate()
    with pytest.raises(ConfigError, match="model.prelu_init"):
        parse_config(f"model.prelu_init = {value}")
    # a slope <= 0 stays legal: the block keeps its input instead
    ModelConfig(prelu_init=-0.5).validate()


def test_hash_changes_with_values():
    a = config_hash(RunConfig())
    b = config_hash(parse_config("train.seed = 99"))
    assert a != b


def test_hash_inside_a_symbol_is_kept():
    cfg = RunConfig(model=ModelConfig(symbols="aa h# pau"))
    assert parse_config(dump_config(cfg)) == cfg
    again = parse_config("# TIMIT subset\nmodel.symbols = aa h# pau  # closures follow\n")
    assert again.model.symbol_list() == ["aa", "h#", "pau"]
    assert parse_config("model.symbols = a\t# tab before a comment").model.symbol_list() == ["a"]


@pytest.mark.parametrize("symbols,match", [("aa #h pau", "'#h' starts with '#'"),
                                           ("lo mid lo", "duplicate symbol.*lo")])
def test_bad_symbols_rejected(symbols, match):
    with pytest.raises(ConfigError, match=f"model.symbols: .*{match}"):
        ModelConfig(symbols=symbols).validate()


def test_symbol_list():
    cfg = parse_config("model.symbols = sil ah k")
    assert cfg.model.symbol_list() == ["sil", "ah", "k"]
    assert ModelConfig().symbol_list() == []
