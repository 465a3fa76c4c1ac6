import numpy as np
import pytest

from qspeech.ctc import SymbolTable
from qspeech.data import (Utterance, derive_symbol_table, make_batches,
                          read_manifest, synth_toy_dataset)
from qspeech.errors import DataError


def toy_utts(rng, n=7):
    return synth_toy_dataset(n, ("a", "b", "c"), rng, min_frames=10, max_frames=30)


def test_manifest_parsing(tmp_path):
    p = tmp_path / "m.tsv"
    p.write_text("u1\tfeat/u1.qfeat\tah k sil\nu2\t/abs/u2.qfeat\tk\n", encoding="utf-8")
    entries = read_manifest(p)
    assert entries[0][0] == "u1"
    assert entries[0][1].endswith("feat/u1.qfeat")
    assert entries[0][2] == ["ah", "k", "sil"]
    assert entries[1][1] == "/abs/u2.qfeat"


def test_manifest_errors(tmp_path):
    p = tmp_path / "m.tsv"
    p.write_text("only-two-fields\tx.qfeat\n", encoding="utf-8")
    with pytest.raises(DataError, match="3 tab-separated"):
        read_manifest(p)
    p.write_text("u1\tx.qfeat\t\n", encoding="utf-8")
    with pytest.raises(DataError, match="no labels"):
        read_manifest(p)
    p.write_text("", encoding="utf-8")
    with pytest.raises(DataError, match="empty manifest"):
        read_manifest(p)


def test_manifest_rejects_repeated_utterance_id(tmp_path):
    p = tmp_path / "m.tsv"
    p.write_text("u1\ta.qfeat\tk\nu2\tb.qfeat\tk\n\nu1\tc.qfeat\tah\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"m\.tsv:4: utterance id 'u1' already used on line 1"):
        read_manifest(p)


def test_derive_symbol_table_sorted():
    utts = [Utterance("u", np.zeros((4, 41, 5), np.float32), ["c", "a"]),
            Utterance("v", np.zeros((4, 41, 5), np.float32), ["b", "a"])]
    table = derive_symbol_table(utts)
    assert table.symbols == ("a", "b", "c")


def test_batches_pad_and_encode():
    rng = np.random.default_rng(0)
    utts = toy_utts(rng)
    table = derive_symbol_table(utts)
    batches = make_batches(utts, table, batch_size=3)
    assert sum(len(b.utt_ids) for b in batches) == len(utts)
    for b in batches:
        max_t = max(b.lengths)
        assert b.features.shape == (len(b.utt_ids), 1, 41, max_t)
        planes = b.features.numpy()
        for i, n in enumerate(b.lengths):
            assert not np.any(planes[:, i, :, :, n:])  # zero padding
        for target in b.targets:
            assert all(0 <= t < table.blank_index for t in target)


def test_batches_bucket_by_length():
    rng = np.random.default_rng(1)
    utts = toy_utts(rng, n=12)
    table = derive_symbol_table(utts)
    batches = make_batches(utts, table, batch_size=4)
    spans = [max(b.lengths) - min(b.lengths) for b in batches]
    all_span = max(u.n_frames for u in utts) - min(u.n_frames for u in utts)
    assert max(spans) <= all_span
    # batches are consecutive in sorted length order
    mins = [min(b.lengths) for b in batches]
    assert mins == sorted(mins)


def test_batch_shuffle_reproducible():
    rng = np.random.default_rng(2)
    utts = toy_utts(rng, n=10)
    table = derive_symbol_table(utts)
    ids1 = [b.utt_ids for b in make_batches(utts, table, 2, np.random.default_rng(5))]
    ids2 = [b.utt_ids for b in make_batches(utts, table, 2, np.random.default_rng(5))]
    assert ids1 == ids2


def test_toy_dataset_properties():
    rng = np.random.default_rng(3)
    utts = synth_toy_dataset(20, ("a", "b", "c", "d", "e"), rng)
    assert len(utts) == 20
    for u in utts:
        assert 50 <= u.n_frames <= 100
        assert 2 <= len(u.labels) <= 5
        assert not np.any(u.features[0])  # zero real plane
        assert all(x != y for x, y in zip(u.labels, u.labels[1:]))


def test_toy_dataset_deterministic():
    a = synth_toy_dataset(5, ("a", "b"), np.random.default_rng(7))
    b = synth_toy_dataset(5, ("a", "b"), np.random.default_rng(7))
    for ua, ub in zip(a, b):
        assert np.array_equal(ua.features, ub.features)
        assert ua.labels == ub.labels


def test_symbol_table_is_frozen_value():
    t1 = SymbolTable(("a", "b"))
    t2 = SymbolTable(("a", "b"))
    assert t1 == t2
