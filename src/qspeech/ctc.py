"""Connectionist temporal classification.

The loss of a label sequence given per-frame logits is the negative log
of the total probability of every latent frame-level path that collapses
to that sequence, where collapsing first merges consecutive repeats and
then removes blanks. The sum runs over the blank-augmented label sequence
(blank, t1, blank, t2, ..., tm, blank) with the usual forward-backward
dynamic program, entirely in log space so long utterances cannot
underflow.

``ctc_loss`` returns both the loss and its analytic gradient with respect
to the raw logits (softmax included); ``ctc_loss_node`` wraps the same
computation as an autodiff graph node. ``best_path_decode`` is greedy:
per-frame argmax followed by the collapse function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

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
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

def _augment(target: Sequence[int], blank: int) -> np.ndarray:
    aug = np.full(2 * len(target) + 1, blank, dtype=np.int64)
    aug[1::2] = target
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
    target = list(target)
    if len(target) == 0:
        raise ValueError("CTC target must contain at least one label")
    if any(t == blank or not 0 <= t < k for t in target):
        raise ValueError("CTC target labels must be valid non-blank classes")
    need = min_alignment_frames(target)
    if n < need:
        raise InfeasibleAlignment(
            f"target of length {len(target)} needs >= {need} frames, got {n}")

    aug = _augment(target, blank)
    s_len = aug.size
    logp = _log_softmax(logits)
    lp = logp[:, aug]                      # (n, s_len): log p_t(l'_s)

    # Which states allow the diagonal skip s-2 -> s (label differs two back).
    can_skip = np.zeros(s_len, dtype=bool)
    can_skip[2:] = (aug[2:] != blank) & (aug[2:] != aug[:-2])

    alpha = np.full((n, s_len), NEG_INF)
    alpha[0, 0] = lp[0, 0]
    if s_len > 1:
        alpha[0, 1] = lp[0, 1]
    for t in range(1, n):
        prev = alpha[t - 1]
        stay = prev
        step = np.concatenate(([NEG_INF], prev[:-1]))
        skip = np.concatenate(([NEG_INF, NEG_INF], prev[:-2]))
        skip = np.where(can_skip, skip, NEG_INF)
        alpha[t] = _logsumexp3(stay, step, skip) + lp[t]

    log_p = np.logaddexp(alpha[n - 1, s_len - 1],
                         alpha[n - 1, s_len - 2] if s_len > 1 else NEG_INF)
    loss = -log_p

    beta = np.full((n, s_len), NEG_INF)
    beta[n - 1, s_len - 1] = lp[n - 1, s_len - 1]
    if s_len > 1:
        beta[n - 1, s_len - 2] = lp[n - 1, s_len - 2]
    for t in range(n - 2, -1, -1):
        nxt = beta[t + 1]
        stay = nxt
        step = np.concatenate((nxt[1:], [NEG_INF]))
        skip = np.concatenate((nxt[2:], [NEG_INF, NEG_INF]))
        can_skip_fwd = np.zeros(s_len, dtype=bool)
        can_skip_fwd[:-2] = can_skip[2:]
        skip = np.where(can_skip_fwd, skip, NEG_INF)
        beta[t] = _logsumexp3(stay, step, skip) + lp[t]

    # d loss / d logits = softmax - posterior over states sharing the class.
    # alpha*beta double-counts p_t(l'_s), hence the -lp term.
    grad = np.exp(logp)
    occupancy = alpha + beta - lp          # (n, s_len) in log space
    for s in range(s_len):
        kcls = aug[s]
        grad[:, kcls] -= np.exp(occupancy[:, s] - log_p)
    return float(loss), grad


def _logsumexp3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.logaddexp(np.logaddexp(a, b), c)


def ctc_loss_node(logits: Tensor, target: Sequence[int], blank: int) -> Tensor:
    """CTC loss as an autodiff node over a (n_frames, n_classes) tensor."""
    loss, grad = ctc_loss(logits.data, target, blank)
    out = Tensor._result(np.float64(loss), (logits,))
    if out.requires_grad:
        out._backward = lambda: logits._accum(out.grad * grad)
    return out


def batch_ctc_loss(batch: Sequence[tuple[Tensor, Sequence[int]]], blank: int
                   ) -> tuple[Tensor, Tensor]:
    """Summed and mean CTC loss over (logits, target) pairs.

    Per-example infeasibility is re-raised with the example index
    attached.
    """
    if not batch:
        raise ValueError("batch_ctc_loss needs at least one example")
    total: Tensor | None = None
    for i, (logits, target) in enumerate(batch):
        try:
            one = ctc_loss_node(logits, target, blank)
        except InfeasibleAlignment as e:
            raise InfeasibleAlignment(f"example {i}: {e}") from None
        total = one if total is None else total + one
    return total, total / len(batch)


def best_path_decode(logits: np.ndarray, blank: int) -> list[int]:
    """Greedy decode: per-frame argmax (ties to the lowest index),
    collapsed. May return an empty sequence."""
    logits = np.asarray(logits)
    if logits.ndim != 2:
        raise ValueError("best_path_decode expects (n_frames, n_classes)")
    return collapse(np.argmax(logits, axis=1).tolist(), blank)
