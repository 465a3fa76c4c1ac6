import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qspeech import ctc
from qspeech.autodiff import Tensor, backward, concat, no_grad
from qspeech.ctc import (SymbolTable, batch_ctc_loss, best_path_decode, collapse,
                         ctc_loss, ctc_loss_node, min_alignment_frames)
from qspeech.errors import InfeasibleAlignment
from qspeech.gradcheck import check_gradients

BLANK = 4  # convention in these tests: classes 0..3 plus blank 4


def enumerate_loss(logits, target, blank):
    """Brute force: sum path probabilities over every latent sequence."""
    logits = np.asarray(logits, dtype=np.float64)
    n, k = logits.shape
    logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    total = -np.inf
    for path in itertools.product(range(k), repeat=n):
        if collapse(path, blank) == list(target):
            total = np.logaddexp(total, sum(logp[t, c] for t, c in enumerate(path)))
    return -total


class TestCollapse:
    def test_three_canonical_cases(self):
        z1, z2, z3 = 0, 1, 2
        b = BLANK
        assert collapse([z1, z2, b, z3, b], b) == [z1, z2, z3]
        assert collapse([z1, z2, z3, z3, b], b) == [z1, z2, z3]
        assert collapse([z1, b, z2, z3, z3], b) == [z1, z2, z3]

    def test_all_blanks_collapse_to_empty(self):
        assert collapse([BLANK, BLANK, BLANK], BLANK) == []

    def test_repeat_merging_before_blank_removal(self):
        # a - a collapses to a,a; a a collapses to a
        assert collapse([0, BLANK, 0], BLANK) == [0, 0]
        assert collapse([0, 0], BLANK) == [0]

    @given(st.lists(st.integers(min_value=0, max_value=3), max_size=8))
    def test_blank_free_repeat_free_is_fixed_point(self, seq):
        deduped = [s for i, s in enumerate(seq) if i == 0 or s != seq[i - 1]]
        assert collapse(deduped, BLANK) == deduped


class TestMinFrames:
    def test_no_repeats(self):
        assert min_alignment_frames([0, 1, 2]) == 3

    def test_adjacent_repeats_force_blanks(self):
        assert min_alignment_frames([0, 0]) == 3
        assert min_alignment_frames([1, 1, 1]) == 5


class TestLoss:
    def test_single_frame_single_label(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(1, 5))
        loss, _ = ctc_loss(logits, [2], BLANK)
        p = np.exp(logits[0] - np.log(np.exp(logits[0]).sum()))
        assert loss == pytest.approx(-np.log(p[2]), abs=1e-12)

    def test_two_frames_hand_enumeration(self):
        # paths for target (a): (a,a), (a,-), (-,a)
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(2, 5))
        a = 1
        p = np.exp(logits - np.log(np.exp(logits).sum(axis=1, keepdims=True)))
        expected = -np.log(p[0, a] * p[1, a] + p[0, a] * p[1, BLANK] + p[0, BLANK] * p[1, a])
        loss, _ = ctc_loss(logits, [a], BLANK)
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 25:
            n = int(rng.integers(1, 8))
            n_sym = int(rng.integers(1, 5))
            m = int(rng.integers(1, 4))
            target = rng.integers(0, n_sym, size=m).tolist()
            if n < min_alignment_frames(target):
                continue
            logits = rng.normal(scale=2.0, size=(n, n_sym + 1))
            loss, _ = ctc_loss(logits, target, blank=n_sym)
            ref = enumerate_loss(logits, target, blank=n_sym)
            assert abs(loss - ref) < 1e-8
            checked += 1

    def test_probability_in_unit_interval(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(6, 5))
        loss, _ = ctc_loss(logits, [0, 1], BLANK)
        assert 0.0 < np.exp(-loss) <= 1.0

    def test_loss_decreases_as_alignment_sharpens(self):
        # push logits toward a valid alignment; loss must fall monotonically
        base = np.zeros((4, 5))
        alignment = [0, 0, BLANK, 1]
        losses = []
        for scale in (0.0, 1.0, 2.0, 4.0, 8.0):
            logits = base.copy()
            for t, c in enumerate(alignment):
                logits[t, c] = scale
            losses.append(ctc_loss(logits, [0, 1], BLANK)[0])
        assert all(l1 > l2 for l1, l2 in zip(losses, losses[1:]))

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError):
            ctc_loss(np.zeros((3, 5)), [], BLANK)

    def test_blank_in_target_rejected(self):
        with pytest.raises(ValueError):
            ctc_loss(np.zeros((3, 5)), [BLANK], BLANK)

    def test_infeasible_target_rejected(self):
        with pytest.raises(InfeasibleAlignment):
            ctc_loss(np.zeros((2, 5)), [0, 1, 2], BLANK)
        with pytest.raises(InfeasibleAlignment):
            ctc_loss(np.zeros((2, 5)), [0, 0], BLANK)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        t = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
        err = check_gradients(lambda: ctc_loss_node(t, [0, 2, 2], BLANK), [t])
        assert err < 1e-4

    def test_node_records_no_graph_under_no_grad(self):
        t = Tensor(np.random.default_rng(6).normal(size=(6, 5)), requires_grad=True)
        with no_grad():
            out = ctc_loss_node(t, [0, 2, 2], BLANK)
        assert not out.requires_grad and out._parents == () and out._backward is None
        assert out.data == ctc_loss_node(t, [0, 2, 2], BLANK).data

    def test_node_is_the_batch_node_of_one(self, monkeypatch):
        # so the checks on ctc_loss_node cover the node a training step runs
        calls = []

        def spy(logits, lengths, targets, blank):
            calls.append((logits.shape, list(lengths), [list(t) for t in targets], blank))
            return batch_ctc_loss(logits, lengths, targets, blank)

        monkeypatch.setattr(ctc, "batch_ctc_loss", spy)
        t = Tensor(np.random.default_rng(7).normal(size=(6, 5)), requires_grad=True)
        ctc_loss_node(t, [0, 2, 2], BLANK)
        assert calls == [((1, 6, 5), [6], [[0, 2, 2]], BLANK)]

    def test_gradient_shifts_probability_toward_target(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(5, 5))
        _, grad = ctc_loss(logits, [3], BLANK)
        # gradient rows sum to zero (softmax lives on the simplex)
        assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_alpha_beta_occupancy_identity(self):
        # loss is invariant to which frame the state sum is evaluated at;
        # equivalently the gradient of an always-on class stays bounded.
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(7, 4))
        loss1, g1 = ctc_loss(logits, [1, 2], blank=3)
        loss2, g2 = ctc_loss(logits.copy(), [1, 2], blank=3)
        assert loss1 == loss2
        assert np.array_equal(g1, g2)


def padded_batch(rng, n_examples, n_classes=5, max_labels=3):
    """Random targets, their lengths, and (B, T, K) logits whose frames past
    each length hold junk that must not reach the loss."""
    targets = [rng.integers(0, n_classes - 1, size=int(rng.integers(1, max_labels + 1))).tolist()
               for _ in range(n_examples)]
    lengths = [min_alignment_frames(t) + int(rng.integers(0, 4)) for t in targets]
    logits = rng.normal(scale=3.0, size=(n_examples, max(lengths), n_classes))
    return logits, lengths, targets


class TestBatchLoss:
    def test_batch_of_one_equals_single(self):
        rng = np.random.default_rng(7)
        logits = Tensor(rng.normal(size=(1, 5, 5)))
        total, mean = batch_ctc_loss(logits, [5], [[1, 0]], BLANK)
        single, _ = ctc_loss(logits.data[0], [1, 0], BLANK)
        assert total.data.item() == pytest.approx(single, abs=1e-14)
        assert mean.data.item() == pytest.approx(single, abs=1e-14)

    def test_duplicated_example_doubles_sum(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(size=(6, 5))
        single, _ = ctc_loss(logits, [2, 3], BLANK)
        total, mean = batch_ctc_loss(Tensor(np.stack([logits, logits])), [6, 6],
                                     [[2, 3], [2, 3]], BLANK)
        assert total.data.item() == pytest.approx(2.0 * single, abs=1e-12)
        assert mean.data.item() == pytest.approx(single, abs=1e-12)

    def test_batch_equals_sum_of_independent_calls(self):
        # mixed frame and target lengths; padded frames hold junk
        logits, lengths, targets = padded_batch(np.random.default_rng(9), 4, max_labels=2)
        assert len(set(lengths)) > 1 and len(set(map(len, targets))) > 1
        expected = sum(ctc_loss(logits[i, :n], t, BLANK)[0]
                       for i, (n, t) in enumerate(zip(lengths, targets)))
        total, mean = batch_ctc_loss(Tensor(logits), lengths, targets, BLANK)
        assert abs(total.data.item() - expected) < 1e-10
        assert mean.data.item() == pytest.approx(expected / 4, abs=1e-12)
        brute = sum(enumerate_loss(logits[i, :n], t, BLANK)
                    for i, (n, t) in enumerate(zip(lengths, targets)))
        assert abs(total.data.item() - brute) < 1e-8

    def test_infeasible_example_reports_index(self):
        logits = Tensor(np.zeros((2, 5, 5)))
        with pytest.raises(InfeasibleAlignment, match="example 1"):
            batch_ctc_loss(logits, [5, 1], [[0], [0, 1]], BLANK)

    def test_batch_gradients_accumulate(self):
        # one tensor feeding two examples receives the sum of their gradients
        rng = np.random.default_rng(10)
        logits = Tensor(rng.normal(size=(5, 5)), requires_grad=True)
        row = logits.reshape((1, 5, 5))
        total, _ = batch_ctc_loss(concat([row, row], axis=0), [5, 5], [[1], [2]], BLANK)
        backward(total)
        g_both = logits.grad.copy()
        logits.grad = None
        backward(ctc_loss_node(logits, [1], BLANK))
        backward(ctc_loss_node(logits, [2], BLANK))
        assert np.allclose(g_both, logits.grad, atol=1e-14)

    def test_padded_examples_match_their_unpadded_slices(self):
        rng = np.random.default_rng(12)
        for n_examples in (1, 2, 3, 5, 8):
            logits, lengths, targets = padded_batch(rng, n_examples, n_classes=7, max_labels=5)
            t = Tensor(logits, requires_grad=True)
            backward(batch_ctc_loss(t, lengths, targets, 6)[0])
            for i, (n, target) in enumerate(zip(lengths, targets)):
                loss, grad = ctc_loss(logits[i, :n], target, 6)
                alone, _ = batch_ctc_loss(Tensor(logits[i:i + 1]), [n], [target], 6)
                assert alone.data.item() == loss
                assert np.array_equal(t.grad[i, :n], grad)
                assert np.all(t.grad[i, n:] == 0.0)

    def test_gradient_matches_finite_differences(self):
        logits, lengths, targets = padded_batch(np.random.default_rng(13), 3)
        t = Tensor(logits, requires_grad=True)
        err = check_gradients(lambda: batch_ctc_loss(t, lengths, targets, BLANK)[1], [t])
        assert err < 1e-4


class TestDecode:
    def test_collapse_of_forced_argmax(self):
        logits = np.full((4, 5), -5.0)
        for t, c in enumerate([0, 0, BLANK, 1]):
            logits[t, c] = 5.0
        assert best_path_decode(logits, BLANK) == [0, 1]

    def test_all_blank_dominant(self):
        logits = np.zeros((6, 5))
        logits[:, BLANK] = 3.0
        assert best_path_decode(logits, BLANK) == []

    def test_matches_two_step_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            logits = rng.normal(size=(10, 5))
            got = best_path_decode(logits, BLANK)
            # independent composition: explicit argmax loop, then collapse
            path = [int(np.argmax(row)) for row in logits]
            assert got == collapse(path, BLANK)

    def test_ties_break_to_lowest_index(self):
        logits = np.zeros((3, 5))  # all tied, argmax -> class 0
        assert best_path_decode(logits, BLANK) == [0]


class TestSymbolTable:
    def test_blank_is_extra_trailing_class(self):
        table = SymbolTable(("a", "b", "c"))
        assert table.blank_index == 3
        assert table.num_classes == 4

    def test_encode_decode_roundtrip(self):
        table = SymbolTable(("sil", "ah", "k"))
        assert table.decode(table.encode(["k", "sil"])) == ["k", "sil"]

    def test_unknown_label(self):
        table = SymbolTable(("a",))
        with pytest.raises(KeyError):
            table.encode(["zz"])

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ValueError):
            SymbolTable(("a", "a"))
