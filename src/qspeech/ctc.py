"""Connectionist temporal classification.

The loss of a label sequence given per-frame logits is the negative log
of the total probability of every latent frame-level path that collapses
to that sequence, where collapsing first merges consecutive repeats and
then removes blanks. The sum runs over the blank-augmented label sequence
(blank, t1, blank, t2, ..., tm, blank) with the usual forward-backward
dynamic program, entirely in log space so long utterances cannot
underflow.

One forward recursion runs over a padded batch, and beta is the same
recursion on each example reversed; the likelihood needs alpha alone, so
beta runs only for a gradient. ``batch_ctc_loss`` is one autodiff
node over padded (batch, frames, classes) logits plus lengths; ``ctc_loss``
and ``ctc_loss_node`` are batch-of-one calls. ``best_path_decode`` is greedy:
per-frame argmax followed by the collapse function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .autodiff import Tensor
from .errors import InfeasibleAlignment

__all__ = [
    "SymbolTable",
    "collapse",
    "min_alignment_frames",
    "ctc_loss",
    "ctc_loss_node",
    "batch_ctc_loss",
    "best_path_decode",
]

NEG_INF = -np.inf


@dataclass(frozen=True)
class SymbolTable:
    """Ordered output symbols plus an implicit trailing blank class.

    ``blank_index == len(symbols)``, so logit rows have width
    ``len(symbols) + 1``.
    """

    symbols: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("duplicate symbols in table")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.symbols)})

    @property
    def blank_index(self) -> int:
        return len(self.symbols)

    @property
    def num_classes(self) -> int:
        return len(self.symbols) + 1

    def encode(self, labels: Sequence[str]) -> list[int]:
        try:
            return [self._index[s] for s in labels]
        except KeyError as e:
            raise KeyError(f"label {e.args[0]!r} not in symbol table") from None

    def decode(self, indices: Sequence[int]) -> list[str]:
        return [self.symbols[i] for i in indices]


def collapse(latent: Sequence[int], blank: int) -> list[int]:
    """Merge consecutive repeats, then drop blanks."""
    out: list[int] = []
    prev = None
    for s in latent:
        if s != prev:
            out.append(s)
        prev = s
    return [s for s in out if s != blank]


def min_alignment_frames(target: Sequence[int]) -> int:
    """Shortest latent path length: one frame per label plus a forced
    blank between each adjacent repeat."""
    repeats = sum(1 for a, b in zip(target, target[1:]) if a == b)
    return len(target) + repeats


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

def _augment(targets: list[list[int]], blank: int) -> np.ndarray:
    aug = np.full((len(targets), 2 * max(map(len, targets)) + 1), blank, dtype=np.int64)
    for b, target in enumerate(targets):
        aug[b, 1:2 * len(target):2] = target
    return aug


def ctc_loss(logits: np.ndarray, target: Sequence[int], blank: int
             ) -> tuple[float, np.ndarray]:
    """Loss and gradient wrt ``logits`` for one example.

    ``logits`` is (n_frames, n_classes) of raw scores; softmax over each
    frame is part of the loss. ``target`` must be non-empty, blank-free
    and short enough to be alignable in ``n_frames``.
    """
    logits = np.asarray(logits, dtype=np.float64)
    n, k = logits.shape
    loss, gradient = _ctc(logits[None], np.array([n]), [_check(target, n, k, blank)], blank)
    return float(loss[0]), gradient()[0]


def _check(target: Sequence[int], n: int, k: int, blank: int) -> list[int]:
    target = list(target)
    if len(target) == 0:
        raise ValueError("CTC target must contain at least one label")
    if any(t == blank or not 0 <= t < k for t in target):
        raise ValueError("CTC target labels must be valid non-blank classes")
    need = min_alignment_frames(target)
    if n < need:
        raise InfeasibleAlignment(
            f"target of length {len(target)} needs >= {need} frames, got {n}")
    return target


def _alpha(lp: np.ndarray, aug: np.ndarray, blank: int) -> np.ndarray:
    """Forward variables log P(frames 0..t, state s) of a batch, from the
    (B, T, S) log-probabilities of the augmented targets' states."""
    # Which states allow the diagonal skip s-2 -> s (label differs two back).
    can_skip = np.zeros(aug.shape, dtype=bool)
    can_skip[:, 2:] = (aug[:, 2:] != blank) & (aug[:, 2:] != aug[:, :-2])
    # Two leading states that stay -inf make "one back" and "two back" slices.
    alpha = np.full(lp.shape[:2] + (lp.shape[2] + 2,), NEG_INF)
    alpha[:, 0, 2:4] = lp[:, 0, :2]
    for t in range(1, lp.shape[1]):
        prev = alpha[:, t - 1]
        skip = np.where(can_skip, prev[:, :-2], NEG_INF)
        alpha[:, t, 2:] = np.logaddexp(np.logaddexp(prev[:, 2:], prev[:, 1:-1]), skip) + lp[:, t]
    return alpha[:, :, 2:]


def _ctc(logits: np.ndarray, lengths: np.ndarray, targets: list[list[int]],
         blank: int) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
    """Losses (B,) of padded (B, T, K) logits, from the forward variables
    alone, and a function that runs the backward recursion and returns their
    gradient wrt the logits."""
    aug = _augment(targets, blank)
    ex, frames, states = np.arange(len(aug)), np.arange(logits.shape[1]), np.arange(aug.shape[1])
    s_len = 2 * np.array([len(target) for target in targets]) + 1
    state_ok = states < s_len[:, None]                                 # (B, S)
    logp = _log_softmax(logits)
    lp = np.take_along_axis(logp, aug[:, None, :], axis=2)   # (B, T, S): log p_t(l'_s)
    lp_in = np.where(state_ok[:, None], lp, NEG_INF)    # no path enters a padded state
    alpha = _alpha(lp_in, aug, blank)
    log_p = np.logaddexp(alpha[ex, lengths - 1, s_len - 1], alpha[ex, lengths - 1, s_len - 2])

    def gradient() -> np.ndarray:
        # Beta is alpha on each example reversed in time and in states (the reversed
        # augmented target is the augmented reversed target); padding stays put.
        frame_ok = frames < lengths[:, None]                           # (B, T)
        rev_t = np.where(frame_ok, lengths[:, None] - 1 - frames, frames)
        rev_s = np.where(state_ok, s_len[:, None] - 1 - states, states)
        flip = (ex[:, None, None], rev_t[:, :, None], rev_s[:, None, :])
        beta = _alpha(lp_in[flip], aug[ex[:, None], rev_s], blank)[flip]

        # d loss / d logits = softmax - posterior over states sharing the class.
        # alpha*beta double-counts p_t(l'_s), hence the -lp term (the finite lp,
        # so a padded state gives -inf rather than nan).
        occupancy = np.where(frame_ok[:, :, None] & state_ok[:, None],
                             alpha + beta - lp, NEG_INF)
        posterior = np.exp(occupancy - log_p[:, None, None])
        grad = np.exp(logp)
        grad[~frame_ok] = 0.0
        for s in states:
            grad[ex[:, None], frames, aug[:, s, None]] -= posterior[:, :, s]
        return grad
    return -log_p, gradient


def batch_ctc_loss(logits: Tensor, lengths: Sequence[int], targets: Sequence[Sequence[int]],
                   blank: int) -> tuple[Tensor, Tensor]:
    """Summed and mean CTC loss over padded (batch, frames, classes) logits, as one
    node; example i reads ``lengths[i]`` frames. Errors name the example index.

    The losses come from the forward recursion alone. Only when the sum
    requires a gradient (``logits`` does, outside ``no_grad``) does the node
    run the backward recursion and keep the gradient, so an evaluation under
    ``no_grad`` runs alpha once per batch and gets the same losses, bit for
    bit, as a training step."""
    n_ex, n, k = logits.shape
    if not 0 < n_ex == len(lengths) == len(targets) or max(lengths) > n:
        raise ValueError("batch_ctc_loss needs one length <= n_frames and one target each")
    checked = []
    for i, (length, target) in enumerate(zip(lengths, targets)):
        try:
            checked.append(_check(target, length, k, blank))
        except ValueError as e:
            raise type(e)(f"example {i}: {e}") from None
    losses, gradient = _ctc(logits.data, np.asarray(lengths), checked, blank)
    out = Tensor._result(np.add.accumulate(losses)[-1], (logits,))  # sum in example order
    if out.requires_grad:
        grad = gradient()
        out._backward = lambda: logits._accum(out.grad * grad)
    return out, out / n_ex


def ctc_loss_node(logits: Tensor, target: Sequence[int], blank: int) -> Tensor:
    """CTC loss of a (n_frames, n_classes) tensor: ``batch_ctc_loss`` of a batch of one."""
    n, k = logits.shape
    return batch_ctc_loss(logits.reshape((1, n, k)), [n], [target], blank)[0]


def best_path_decode(logits: np.ndarray, blank: int) -> list[int]:
    """Greedy decode: per-frame argmax (ties to the lowest index),
    collapsed. May return an empty sequence."""
    logits = np.asarray(logits)
    if logits.ndim != 2:
        raise ValueError("best_path_decode expects (n_frames, n_classes)")
    return collapse(np.argmax(logits, axis=1).tolist(), blank)
