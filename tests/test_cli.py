import numpy as np
import pytest

from qspeech.cli import main
from qspeech.data import synth_tone_corpus


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    manifest = synth_tone_corpus(root / "wav", 8, ("lo", "mid", "hi"),
                                 np.random.default_rng(0))
    return manifest


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "tiny.cfg"
    p.write_text("""
        model.n_conv_layers = 2
        model.conv_channels = 2
        model.n_dense_layers = 1
        model.dense_width = 4
        model.dropout = 0.0
        model.l2 = 0.0
        train.epochs = 2
        train.fine_tune_epochs = 1
        train.batch_size = 4
        train.seed = 3
    """, encoding="utf-8")
    return p


@pytest.fixture(scope="module")
def trained_run(corpus, tiny_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = main(["train", "--config", str(tiny_config), "--manifest", str(corpus),
                 "--out", str(out)])
    assert code == 0
    return out


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6
    assert all(line.startswith("PASS") for line in lines)


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as e:
        main(["train"])  # missing required --manifest/--out
    assert e.value.code == 1


def test_unknown_subcommand_exits_one():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 1


def test_extract_writes_features_and_manifest(corpus, tmp_path, capsys):
    out = tmp_path / "feats"
    assert main(["extract", "--manifest", str(corpus), "--out", str(out)]) == 0
    new_manifest = out / "manifest.tsv"
    assert new_manifest.exists()
    lines = new_manifest.read_text().strip().splitlines()
    assert len(lines) == 8
    from qspeech.features import load_features
    first_path = lines[0].split("\t")[1]
    assert first_path == "tone000.qfeat"    # relative to the manifest's directory
    fs = load_features(out / first_path)
    assert fs.width == 41


def test_extract_to_relative_dir_gives_loadable_manifest(corpus, tmp_path, monkeypatch):
    from qspeech.config import FeatureConfig
    from qspeech.data import load_dataset
    monkeypatch.chdir(tmp_path)
    assert main(["extract", "--manifest", str(corpus), "--out", "feats"]) == 0
    utts = load_dataset("feats/manifest.tsv", FeatureConfig())
    assert len(utts) == 8 and all(u.features.shape[1] == 41 for u in utts)


def test_extract_parallel_matches_serial(corpus, tmp_path):
    a, b = tmp_path / "serial", tmp_path / "parallel"
    assert main(["extract", "--manifest", str(corpus), "--out", str(a)]) == 0
    assert main(["extract", "--manifest", str(corpus), "--out", str(b),
                 "--workers", "2"]) == 0
    for fa in sorted(a.glob("*.qfeat")):
        fb = b / fa.name
        assert fa.read_bytes() == fb.read_bytes()


def test_extract_missing_wav_exits_two(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("u1\tmissing.wav\tlo\n", encoding="utf-8")
    code = main(["extract", "--manifest", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2


def test_train_writes_log_and_checkpoints(trained_run, capsys):
    assert (trained_run / "best.ckpt").exists()
    assert (trained_run / "last.ckpt").exists()


def test_resume_of_finished_run_names_an_existing_checkpoint(
        trained_run, corpus, tiny_config, tmp_path, capsys):
    from qspeech.checkpoint import load_checkpoint
    last = trained_run / "last.ckpt"
    capsys.readouterr()
    assert main(["train", "--config", str(tiny_config), "--manifest", str(corpus),
                 "--out", str(tmp_path / "run2"), "--checkpoint", str(last)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1].startswith(f"best epoch {load_checkpoint(last)['best_epoch']} (per=")
    assert out[-1].endswith(f" inherited from {last}")
    assert not (tmp_path / "run2" / "best.ckpt").exists()


def test_eval_reports_per(trained_run, corpus, capsys):
    code = main(["eval", "--checkpoint", str(trained_run / "best.ckpt"),
                 "--manifest", str(corpus)])
    assert code == 0
    out = capsys.readouterr().out
    assert "per=" in out and "utterances=8" in out


def test_eval_with_phone_map(trained_run, corpus, tmp_path, capsys):
    pmap = tmp_path / "fold.txt"
    pmap.write_text("mid lo\n", encoding="utf-8")
    code = main(["eval", "--checkpoint", str(trained_run / "best.ckpt"),
                 "--manifest", str(corpus), "--phone-map", str(pmap)])
    assert code == 0


def test_decode_writes_transcripts(trained_run, corpus, tmp_path, capsys):
    out_file = tmp_path / "hyp.tsv"
    code = main(["decode", "--checkpoint", str(trained_run / "best.ckpt"),
                 "--manifest", str(corpus), "--out", str(out_file)])
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 8
    for line in lines:
        utt_id, _, rest = line.partition("\t")
        assert utt_id.startswith("tone")
        assert all(s in ("lo", "mid", "hi") for s in rest.split())


def test_decode_corrupted_checkpoint_exits_two(trained_run, corpus, tmp_path):
    bad = tmp_path / "bad.ckpt"
    raw = bytearray((trained_run / "best.ckpt").read_bytes())
    raw[60] ^= 0x55
    bad.write_bytes(bytes(raw))
    code = main(["decode", "--checkpoint", str(bad), "--manifest", str(corpus)])
    assert code == 2


def test_inspect_prints_counts(tiny_config, capsys):
    assert main(["inspect", "--config", str(tiny_config)]) == 0
    out = capsys.readouterr().out
    assert "quaternion model parameters:" in out
    assert "weight ratio (real/quaternion): 4.000" in out


def test_train_resume_from_checkpoint(corpus, tiny_config, trained_run, tmp_path):
    out = tmp_path / "resumed"
    code = main(["train", "--config", str(tiny_config), "--manifest", str(corpus),
                 "--out", str(out), "--checkpoint", str(trained_run / "last.ckpt")])
    assert code == 0  # schedule already complete; resumes and exits cleanly


def test_train_with_no_epoch_to_run_exits_two(tmp_path, capsys):
    out = tmp_path / "o"
    # the manifest does not exist: the check comes before any data is read
    assert main(["train", "--manifest", str(tmp_path / "missing.tsv"), "--out", str(out),
                 "--epochs", "0", "--fine-tune-epochs", "0"]) == 2
    assert "train.epochs + train.fine_tune_epochs = 0" in capsys.readouterr().err
    assert not out.exists()


def test_train_bad_manifest_exits_two(tiny_config, tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("broken line without tabs\n", encoding="utf-8")
    code = main(["train", "--config", str(tiny_config), "--manifest", str(bad),
                 "--out", str(tmp_path / "o")])
    assert code == 2


def test_eval_missing_phone_map_exits_two(trained_run, corpus, tmp_path):
    code = main(["eval", "--checkpoint", str(trained_run / "best.ckpt"),
                 "--manifest", str(corpus), "--phone-map", str(tmp_path / "absent.txt")])
    assert code == 2


def test_eval_malformed_phone_map_exits_two(trained_run, corpus, tmp_path):
    pmap = tmp_path / "bad.txt"
    pmap.write_text("mid lo hi\n", encoding="utf-8")
    code = main(["eval", "--checkpoint", str(trained_run / "best.ckpt"),
                 "--manifest", str(corpus), "--phone-map", str(pmap)])
    assert code == 2


def test_eval_phone_map_deleting_every_reference_exits_two(trained_run, corpus, tmp_path,
                                                          capsys):
    pmap = tmp_path / "drop.txt"
    pmap.write_text("lo\nmid\nhi\n", encoding="utf-8")   # every label maps to nothing
    code = main(["eval", "--checkpoint", str(trained_run / "best.ckpt"),
                 "--manifest", str(corpus), "--phone-map", str(pmap)])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        f"data error: {pmap}: phone map deletes every reference label")


@pytest.mark.parametrize("command,option,what", [("eval", "--manifest", "manifest"),
                                                 ("decode", "--manifest", "manifest"),
                                                 ("train", "--manifest", "manifest"),
                                                 ("inspect", "--config", "config"),
                                                 ("eval", "--phone-map", "phone map")])
def test_file_not_utf8_exits_two_naming_it(trained_run, corpus, tmp_path, capsys,
                                           command, option, what):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("u\xe9\tu.qfeat\tlo\n".encode("latin-1"))
    checkpoint = ["--checkpoint", str(trained_run / "best.ckpt")]
    manifest = str(latin1 if option == "--manifest" else corpus)
    args = {"eval": [*checkpoint, "--manifest", manifest],
            "decode": [*checkpoint, "--manifest", manifest],
            "train": ["--manifest", manifest, "--out", str(tmp_path / "o")],
            "inspect": []}[command]
    if option != "--manifest":
        args += [option, str(latin1)]
    assert main([command, *args]) == 2
    assert capsys.readouterr().err.startswith(f"data error: {latin1}: cannot read {what} (")


@pytest.mark.parametrize("command", ["eval", "decode"])
def test_feature_file_without_frames_exits_two(trained_run, tmp_path, capsys, command):
    import struct
    from qspeech.features import MAGIC
    empty = tmp_path / "empty.qfeat"
    empty.write_bytes(MAGIC + struct.pack("<III", 1, 0, 41))   # version 1, 0 frames, 41 bands
    manifest = tmp_path / "m.tsv"
    manifest.write_text("u1\tempty.qfeat\tlo\n", encoding="utf-8")
    code = main([command, "--checkpoint", str(trained_run / "best.ckpt"),
                 "--manifest", str(manifest)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"data error: {empty}: feature file holds no frames")


def test_eval_feature_file_cut_in_header_exits_two(trained_run, tmp_path):
    from qspeech.features import MAGIC
    (tmp_path / "cut.qfeat").write_bytes(MAGIC + b"\x01\x00\x00")
    manifest = tmp_path / "m.tsv"
    manifest.write_text("u1\tcut.qfeat\tlo\n", encoding="utf-8")
    code = main(["eval", "--checkpoint", str(trained_run / "best.ckpt"),
                 "--manifest", str(manifest)])
    assert code == 2


def test_decode_checkpoint_shorter_than_header_exits_two(trained_run, corpus, tmp_path):
    short = tmp_path / "short.ckpt"
    short.write_bytes((trained_run / "best.ckpt").read_bytes()[:8])   # inside the version field
    code = main(["decode", "--checkpoint", str(short), "--manifest", str(corpus)])
    assert code == 2


def test_decode_out_in_missing_directory_exits_two(trained_run, corpus, tmp_path, capsys):
    code = main(["decode", "--checkpoint", str(trained_run / "best.ckpt"),
                 "--manifest", str(corpus), "--out", str(tmp_path / "absent" / "hyp.tsv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("data error: ")


def test_train_out_naming_a_file_exits_two(corpus, tiny_config, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    code = main(["train", "--config", str(tiny_config), "--manifest", str(corpus),
                 "--out", str(taken)])
    assert code == 2
    assert capsys.readouterr().err.startswith("data error: ")


def test_train_unwritable_checkpoint_exits_two(corpus, tiny_config, tmp_path, capsys):
    out = tmp_path / "o"
    (out / "best.ckpt").mkdir(parents=True)   # a directory where the best checkpoint goes
    code = main(["train", "--config", str(tiny_config), "--manifest", str(corpus),
                 "--out", str(out), "--epochs", "1", "--fine-tune-epochs", "0"])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        f"data error: {out / 'best.ckpt'}: cannot write checkpoint (")


def test_extract_out_naming_a_file_exits_two(corpus, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    assert main(["extract", "--manifest", str(corpus), "--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("data error: ")


def _config_with(tiny_config, tmp_path, extra):
    p = tmp_path / "changed.cfg"
    p.write_text(tiny_config.read_text(encoding="utf-8") + extra, encoding="utf-8")
    return p


@pytest.mark.parametrize("extra,names", [("model.in_freq = 38\n", "41 frequency bands"),
                                         ("model.in_channels = 2\n", "model.in_channels = 2")],
                         ids=["in_freq", "in_channels"])
def test_train_features_not_fitting_the_model_exit_two(corpus, tiny_config, tmp_path, capsys,
                                                       extra, names):
    cfg = _config_with(tiny_config, tmp_path, extra)
    code = main(["train", "--config", str(cfg), "--manifest", str(corpus),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: utterance 'tone") and names in err


@pytest.mark.parametrize("command", ["train", "inspect"])
def test_duplicate_config_symbols_exit_two(corpus, tiny_config, tmp_path, capsys, command):
    cfg = _config_with(tiny_config, tmp_path, "model.symbols = lo mid lo\n")
    args = ["--manifest", str(corpus), "--out", str(tmp_path / "o")] if command == "train" else []
    assert main([command, "--config", str(cfg), *args]) == 2
    assert "model.symbols: duplicate symbol(s) lo" in capsys.readouterr().err


def test_extract_repeated_utterance_id_exits_two(corpus, tmp_path, capsys):
    rows = [line.split("\t") for line in corpus.read_text(encoding="utf-8").splitlines()[:3]]
    rows[1][0] = rows[0][0]
    repeated = tmp_path / "repeated.tsv"
    repeated.write_text("".join(f"{utt}\t{corpus.parent / wav}\t{labels}\n"
                                for utt, wav, labels in rows), encoding="utf-8")
    out = tmp_path / "feats"
    code = main(["extract", "--manifest", str(repeated), "--out", str(out)])
    assert code == 2
    assert "utterance id 'tone000' already used on line 1" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("bad_id", ["a/b", "../x", "nul\0id", ".", ".."])
def test_extract_unusable_utterance_id_exits_two_before_writing(corpus, tmp_path, capsys,
                                                                bad_id):
    rows = [line.split("\t") for line in corpus.read_text(encoding="utf-8").splitlines()[:2]]
    rows[1][0] = bad_id
    manifest = tmp_path / "bad_id.tsv"
    manifest.write_text("".join(f"{utt}\t{corpus.parent / wav}\t{labels}\n"
                                for utt, wav, labels in rows), encoding="utf-8")
    out = tmp_path / "feats"
    code = main(["extract", "--manifest", str(manifest), "--out", str(out)])
    assert code == 2
    assert f"utterance id {bad_id!r} cannot name a feature file" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.qfeat"))


def test_extract_utterance_id_too_long_for_a_file_name_exits_two(corpus, tmp_path, capsys):
    rows = [line.split("\t") for line in corpus.read_text(encoding="utf-8").splitlines()[:2]]
    rows[1][0] = "u" * 300   # past the usual 255-byte file name limit
    manifest = tmp_path / "long_id.tsv"
    manifest.write_text("".join(f"{utt}\t{corpus.parent / wav}\t{labels}\n"
                                for utt, wav, labels in rows), encoding="utf-8")
    code = main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "feats")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "cannot write feature file" in err
    assert "Traceback" not in err


def test_extract_unwritable_manifest_exits_two(corpus, tmp_path, capsys):
    out = tmp_path / "feats"
    (out / "manifest.tsv").mkdir(parents=True)   # a directory where the manifest goes
    assert main(["extract", "--manifest", str(corpus), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "cannot write manifest" in err


@pytest.fixture(scope="module")
def narrow_checkpoint(corpus, tiny_config, tmp_path_factory):
    """A checkpoint of a model for 38-band features (37 mels and energy)."""
    root = tmp_path_factory.mktemp("narrow")
    cfg = root / "narrow.cfg"
    cfg.write_text(tiny_config.read_text(encoding="utf-8")
                   + "features.n_mels = 37\nmodel.in_freq = 38\n", encoding="utf-8")
    assert main(["train", "--config", str(cfg), "--manifest", str(corpus),
                 "--out", str(root), "--epochs", "1", "--fine-tune-epochs", "0"]) == 0
    return root / "last.ckpt"


@pytest.mark.parametrize("command", ["eval", "decode"])
def test_features_wider_than_checkpoint_model_exit_two(narrow_checkpoint, corpus, tmp_path,
                                                       capsys, command):
    feats = tmp_path / "feats"     # 41 bands, from the default front end
    assert main(["extract", "--manifest", str(corpus), "--out", str(feats)]) == 0
    capsys.readouterr()
    code = main([command, "--checkpoint", str(narrow_checkpoint),
                 "--manifest", str(feats / "manifest.tsv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: utterance 'tone") and "model.in_freq = 38" in err


@pytest.mark.parametrize("line,key", [("hop_ms = 0", "hop_ms"), ("window_ms = 0", "window_ms"),
                                      ("delta_window = 0", "delta_window"),
                                      ("fft_size = 64", "fft_size"), ("n_mels = 0", "n_mels"),
                                      ("sample_rate = 0", "sample_rate"),
                                      ("log_floor = 0", "log_floor")])
def test_extract_bad_feature_config_exits_two(corpus, tmp_path, capsys, line, key):
    cfg = tmp_path / "features.cfg"
    cfg.write_text(f"features.{line}\n", encoding="utf-8")
    out = tmp_path / "feats"
    assert main(["extract", "--config", str(cfg), "--manifest", str(corpus),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"data error: features.{key}: must be ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "inspect"])
def test_negative_config_seed_exits_two(corpus, tiny_config, tmp_path, capsys, command):
    cfg = _config_with(tiny_config, tmp_path, "train.seed = -1\n")
    args = ["--manifest", str(corpus), "--out", str(tmp_path / "o")] if command == "train" else []
    assert main([command, "--config", str(cfg), *args]) == 2
    assert "train.seed: must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["train", "--manifest", "m.tsv", "--out", "o", "--seed", "-1"], "--seed: must be >= 0"),
    (["selftest", "--seed", "-1"], "--seed: must be >= 0"),
    (["inspect", "--n-symbols", "-3"], "--n-symbols: must be >= 1"),
    (["inspect", "--n-symbols", "0"], "--n-symbols: must be >= 1"),
    (["selftest", "--seed", "x"], "--seed: invalid int value: 'x'"),
    (["train", "--manifest", "m.tsv", "--out", "o", "--epochs", "-1"], "--epochs: must be >= 0"),
    (["train", "--manifest", "m.tsv", "--out", "o", "--fine-tune-epochs", "-2"],
     "--fine-tune-epochs: must be >= 0"),
    (["extract", "--manifest", "m.tsv", "--out", "o", "--workers", "0"], "--workers: must be >= 1"),
    (["extract", "--manifest", "m.tsv", "--out", "o", "--workers", "-4"],
     "--workers: must be >= 1"),
], ids=["train-seed", "selftest-seed", "inspect-n-symbols", "inspect-zero-symbols",
        "selftest-seed-not-int", "train-epochs", "train-fine-tune-epochs", "extract-zero-workers",
        "extract-negative-workers"])
def test_out_of_range_integer_option_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and message in err and "Traceback" not in err
