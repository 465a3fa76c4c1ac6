"""Training loop, evaluation, and checkpoint wiring.

Two phases: Adam for ``train.epochs`` epochs, then SGD fine-tuning for
``train.fine_tune_epochs``. Gradient steps use the batch-mean CTC loss
with the L2 term added to the gradients of the hidden-layer weights.
Every epoch logs one machine-parsable key=value line and updates the
best-dev checkpoint; runs are bit-reproducible for a fixed seed because
all randomness (init, shuffling, dropout) flows through one generator
whose state is checkpointed for exact resumption.

Utterances whose targets cannot be aligned in their frame count are
skipped and counted, never fatal.
"""

from __future__ import annotations

import errno
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from .autodiff import Tensor, backward, no_grad, zero_grads
from .config import RunConfig, config_hash, dump_config
# ctc_loss is not called here, but bench/tracing.py times trainer.ctc_loss by name
from .ctc import SymbolTable, batch_ctc_loss, best_path_decode, ctc_loss, min_alignment_frames
from .data import Batch, Utterance, make_batches
from .errors import DataError
from .metrics import apply_phone_map, per
from .model import CNNModel, build_model
from .optim import SGD, Adam, apply_l2

__all__ = ["TrainResult", "Trainer", "decode_dataset", "evaluate_per",
           "evaluate_loss", "train_to_memorization", "restore_parameters"]


@dataclass
class EpochStats:
    epoch: int
    phase: str
    train_loss: float
    dev_loss: float
    dev_per: float
    skipped: int
    seconds: float

    def log_line(self) -> str:
        return (f"epoch={self.epoch} phase={self.phase} "
                f"train_loss={self.train_loss:.6f} dev_loss={self.dev_loss:.6f} "
                f"dev_per={self.dev_per:.3f} skipped={self.skipped} "
                f"seconds={self.seconds:.2f}")


@dataclass
class TrainResult:
    history: list[EpochStats] = field(default_factory=list)
    best_epoch: int = -1
    best_metric: float = float("inf")
    # The checkpoint that recorded the best metric: this run's best.ckpt,
    # or the resumed checkpoint if no epoch of this run improved on it.
    best_path: Path | None = None
    last_path: Path | None = None


def _feasible(batch: Batch) -> tuple[list[int], int]:
    """Indices of batch members whose targets fit their frame count."""
    ok = [i for i in range(len(batch.targets))
          if batch.lengths[i] >= min_alignment_frames(batch.targets[i])]
    return ok, len(batch.targets) - len(ok)


def _feasible_loss(logits: Tensor, batch: Batch, ok: list[int],
                   blank: int) -> tuple[Tensor, Tensor]:
    """``batch_ctc_loss`` (sum, mean) of the batch members ``ok``."""
    if len(ok) < len(batch.targets):
        logits = logits[ok]
    return batch_ctc_loss(logits, [batch.lengths[i] for i in ok],
                          [batch.targets[i] for i in ok], blank)


def _transcribe(logits: np.ndarray, batch: Batch, table: SymbolTable,
                out: dict[str, list[str]]) -> None:
    """Store each batch member's greedy transcript in ``out`` under its id."""
    for i, utt_id in enumerate(batch.utt_ids):
        out[utt_id] = table.decode(best_path_decode(logits[i, :batch.lengths[i], :],
                                                    table.blank_index))


def _check_writable(path: Path) -> None:
    """Raise the ``DataError`` that ``Trainer.save`` would raise for
    ``path``, found without training: ``path`` must not be a directory, and
    the temporary file a save writes beside it must be creatable (it is
    created and removed)."""
    try:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        tmp = Path(f"{path}.tmp")
        with open(tmp, "wb"):
            pass
        tmp.unlink()
    except OSError as e:
        raise DataError(f"{path}: cannot write checkpoint ({e.strerror})") from None


class Trainer:
    def __init__(self, cfg: RunConfig, table: SymbolTable,
                 model: CNNModel | None = None, log_stream=None):
        cfg.validate()
        self.cfg = cfg
        self.table = table
        self.rng = np.random.default_rng(cfg.train.seed)
        self.model = model if model is not None else build_model(
            cfg.model, table.num_classes, self.rng)
        self.params = self.model.parameters()
        # the config is frozen, so every checkpoint stores the same text and hash
        self._config_text, self._config_hash = dump_config(cfg), config_hash(cfg)
        self.log_stream = log_stream if log_stream is not None else sys.stdout
        self.start_epoch = 0
        self.best_metric = float("inf")
        self.best_epoch = -1
        self.resumed_from: Path | None = None
        self._resume_opt_state: dict | None = None

    # -- checkpoint plumbing ----------------------------------------------

    def _param_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data for name, p in self.params}

    def save(self, path: Path, epoch: int, phase: str, optimizer, best_metric,
             best_epoch: int = -1, same_as: Path | None = None) -> None:
        """Write a checkpoint of the run state. ``same_as`` names a checkpoint
        just written with the same state, which is hard-linked to ``path``
        instead of serialising it again, unless the file system refuses."""
        if same_as is not None and ckpt.link_checkpoint(same_as, path):
            return
        try:
            ckpt.save_checkpoint(
                path,
                params=self._param_arrays(),
                optimizer=optimizer.state(),
                epoch=epoch,
                phase=phase,
                config_text=self._config_text,
                config_hash=self._config_hash,
                symbols=list(self.table.symbols),
                rng_state=self.rng.bit_generator.state,
                best_metric=best_metric,
                best_epoch=best_epoch,
            )
        except OSError as e:     # an unwritable directory, a full disk
            raise DataError(f"{path}: cannot write checkpoint ({e.strerror})") from None

    def resume(self, path: str | Path) -> None:
        state = ckpt.load_checkpoint(path)
        if state["config_hash"] != self._config_hash:
            raise DataError(f"{path}: checkpoint config hash does not match the "
                            "current config; refusing to resume")
        if state["symbols"] != list(self.table.symbols):
            raise DataError(f"{path}: checkpoint symbol table differs")
        restore_parameters(self.model, state["params"])
        self.rng.bit_generator.state = state["rng_state"]
        self.start_epoch = int(state["epoch"])
        if state["best_metric"] is not None:
            self.best_metric = float(state["best_metric"])
        self.best_epoch = int(state["best_epoch"])
        self.resumed_from = Path(path)
        self._resume_opt_state = {**state["optimizer"], "buffers": state["opt_buffers"]}

    # -- core loops ---------------------------------------------------------

    def _run_epoch(self, optimizer, train_set: list[Utterance]) -> tuple[float, int]:
        cfg = self.cfg
        batches = make_batches(train_set, self.table, cfg.train.batch_size, rng=self.rng)
        total_loss, n_examples, skipped = 0.0, 0, 0
        for batch in batches:
            logits = self.model.forward(batch.features, training=True, rng=self.rng)
            ok, batch_skipped = _feasible(batch)
            skipped += batch_skipped
            if not ok:
                continue
            loss_sum, loss_mean = _feasible_loss(logits, batch, ok, self.table.blank_index)
            zero_grads(p for _, p in self.params)
            backward(loss_mean)
            apply_l2(self.model.regularized_parameters(), cfg.model.l2)
            optimizer.step()
            total_loss += loss_sum.data.item()
            n_examples += len(ok)
        if n_examples == 0:
            raise DataError("every utterance in the epoch was infeasible for CTC")
        return total_loss / n_examples, skipped

    def train(self, train_set: list[Utterance], dev_set: list[Utterance],
              out_dir: str | Path) -> TrainResult:
        cfg = self.cfg
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        result = TrainResult(best_epoch=self.best_epoch, best_metric=self.best_metric,
                             best_path=self.resumed_from, last_path=out_dir / "last.ckpt")

        total = cfg.train.epochs + cfg.train.fine_tune_epochs
        if self.start_epoch < total:   # a checkpoint no epoch could save fails now
            _check_writable(out_dir / "best.ckpt")
            _check_writable(result.last_path)
        optimizer = None
        current_phase = None
        for epoch in range(self.start_epoch, total):
            phase = "adam" if epoch < cfg.train.epochs else "sgd"
            if phase != current_phase or optimizer is None:
                if phase == "adam":
                    optimizer = Adam(self.params, lr=cfg.train.adam_lr,
                                     beta1=cfg.train.adam_beta1,
                                     beta2=cfg.train.adam_beta2,
                                     eps=cfg.train.adam_eps)
                else:
                    optimizer = SGD(self.params, lr=cfg.train.sgd_lr)
                if self._resume_opt_state is not None \
                        and self._resume_opt_state.get("mode") == phase:
                    optimizer.load_state(self._resume_opt_state)
                self._resume_opt_state = None
                current_phase = phase

            t0 = time.monotonic()
            train_loss, skipped = self._run_epoch(optimizer, train_set)
            # one no-grad pass over the dev set gives its loss and its transcripts
            dev_hyps: dict[str, list[str]] = {}
            dev_loss = evaluate_loss(self.model, dev_set, self.table, cfg.train.batch_size,
                                     dev_hyps)
            dev_per = _score(dev_hyps, dev_set)
            stats = EpochStats(epoch + 1, phase, train_loss, dev_loss, dev_per,
                               skipped, time.monotonic() - t0)
            result.history.append(stats)
            print(stats.log_line(), file=self.log_stream)

            metric = dev_per if cfg.train.early_stop_metric == "per" else dev_loss
            improved = metric < result.best_metric
            if improved:
                result.best_metric = metric
                result.best_epoch = epoch + 1
                result.best_path = out_dir / "best.ckpt"
                self.save(result.best_path, epoch + 1, phase, optimizer, metric,
                          best_epoch=epoch + 1)
            # After an improving epoch last.ckpt gets best.ckpt's bytes.
            # best.ckpt is written first, so a crash in between leaves
            # last.ckpt at the previous epoch.
            self.save(result.last_path, epoch + 1, phase, optimizer, result.best_metric,
                      best_epoch=result.best_epoch,
                      same_as=result.best_path if improved else None)
        return result


def train_to_memorization(cfg: RunConfig, table: SymbolTable,
                          utts: list[Utterance], max_epochs: int = 100,
                          log_stream=None) -> tuple[int, float, float]:
    """Adam-only overfit loop on a fixed set, stopping once greedy decoding
    reproduces every target. Returns (epochs_run, mean_train_loss,
    sequence_accuracy in [0,1])."""
    trainer = Trainer(cfg, table, log_stream=log_stream or sys.stdout)
    optimizer = Adam(trainer.params, lr=cfg.train.adam_lr,
                     beta1=cfg.train.adam_beta1, beta2=cfg.train.adam_beta2,
                     eps=cfg.train.adam_eps)
    loss, accuracy = float("inf"), 0.0
    epoch = 0
    for epoch in range(1, max_epochs + 1):
        loss, _ = trainer._run_epoch(optimizer, utts)
        hyps = decode_dataset(trainer.model, utts, table)
        accuracy = sum(hyps[u.utt_id] == u.labels for u in utts) / len(utts)
        if log_stream is not None:
            print(f"epoch={epoch} train_loss={loss:.6f} "
                  f"sequence_accuracy={accuracy:.3f}", file=log_stream)
        if accuracy == 1.0 and loss < 0.1:
            break
    return epoch, loss, accuracy


def restore_parameters(model, params: dict[str, np.ndarray]) -> None:
    named = dict(model.parameters())
    missing = set(named) ^ set(params)
    if missing:
        raise DataError(f"checkpoint parameters do not match the model: {sorted(missing)}")
    for name, p in named.items():
        if p.data.shape != params[name].shape:
            raise DataError(f"checkpoint parameter {name!r} has shape "
                            f"{params[name].shape}, model expects {p.data.shape}")
        p.data = params[name].astype(np.float64).copy()


def evaluate_loss(model: CNNModel, utts: list[Utterance], table: SymbolTable,
                  batch_size: int, hyps: dict[str, list[str]] | None = None) -> float:
    """Mean CTC loss of the utterances whose targets fit their frame count
    (inf if none does), from one no-grad forward per batch of
    ``batch_size``. Each batch's feasible members make one
    ``batch_ctc_loss``, which under ``no_grad`` runs the forward recursion
    alone. Given a dict ``hyps``, the same logits also give every
    utterance's greedy transcript, stored under its id, as
    ``decode_dataset`` at this batch size would."""
    total, n = 0.0, 0
    for batch in make_batches(utts, table, batch_size):
        ok, _ = _feasible(batch)
        with no_grad():
            logits = model.forward(batch.features, training=False)
            if ok:
                loss_sum, _ = _feasible_loss(logits, batch, ok, table.blank_index)
                total += loss_sum.data.item()
                n += len(ok)
        if hyps is not None:
            _transcribe(logits.data, batch, table, hyps)
    return total / n if n else float("inf")


def decode_dataset(model: CNNModel, utts: list[Utterance], table: SymbolTable,
                   batch_size: int = 8) -> dict[str, list[str]]:
    """Greedy transcripts for every utterance, keyed by utterance id."""
    out: dict[str, list[str]] = {}
    for batch in make_batches(utts, table, batch_size):
        with no_grad():
            logits = model.forward(batch.features, training=False)
        _transcribe(logits.data, batch, table, out)
    return out


def evaluate_per(model: CNNModel, utts: list[Utterance], table: SymbolTable,
                 phone_map=None) -> float:
    return _score(decode_dataset(model, utts, table), utts, phone_map)


def _score(hyps: dict[str, list[str]], utts: list[Utterance], phone_map=None) -> float:
    """PER of the transcripts ``hyps`` against the utterances' labels."""
    pairs = []
    for u in utts:
        hyp, ref = hyps[u.utt_id], list(u.labels)
        if phone_map is not None:
            hyp = apply_phone_map(hyp, phone_map)
            ref = apply_phone_map(ref, phone_map)
        pairs.append((hyp, ref))
    return per(pairs)
