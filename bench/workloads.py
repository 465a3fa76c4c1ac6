"""The three benchmark workloads.

Each workload makes its inputs from a seed, runs the timed calls into
qspeech, and checks the outputs against ``reference.json``. Sizes are
fixed per workload; the seed changes only the content (labels, noise,
weights), so every seed costs the same work.

Every batch is length-uniform, so no padded frame reaches a loss or a
transcript: ``make_batches`` sorts by frame count and cuts consecutive
groups, and each frame count below comes in whole batches. The dev set of
a training workload has a single frame count, because ``Trainer.train``
decodes it with ``evaluate_per``'s own batch size of 8, not the workload's.

qspeech functions are called through their modules (``trainer.evaluate_loss``,
not a name imported here), so that ``tracing`` can time them by replacing
the module attribute.
"""

from __future__ import annotations

import io
import math
import wave
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from qspeech import checkpoint, data, metrics, model, trainer
from qspeech.config import RunConfig, load_config, parse_config
from qspeech.ctc import SymbolTable
from qspeech.optim import Adam

# The seed picks one of this many input sets (seed % N_INPUT_SETS);
# reference.json holds the expected outputs of each one.
N_INPUT_SETS = 16

# Gate tolerances. Losses may move by float64 reassociation (a GEMM
# reordered, a loop vectorised); PER and transcripts may not move at all.
LOSS_RTOL = 1e-6
PER_ATOL = 1e-9

# The walkthrough config. The gate catches an edit to it that changes a
# workload, because the reference outputs would no longer match.
TINY_CFG = Path(__file__).resolve().parent.parent / "configs" / "tiny.cfg"


@dataclass(frozen=True)
class Shape:
    """Fixed input sizes: one group of ``batch`` utterances per entry of
    ``train_lengths`` and ``dev_lengths``, each group of one frame count.
    Without ``train_lengths`` the workload only decodes."""

    train_lengths: tuple[int, ...]
    dev_lengths: tuple[int, ...]
    batch: int
    epochs: int = 1

    @property
    def operations(self) -> int:
        """Train batches, or decoded utterances when there is no training."""
        if self.train_lengths:
            return self.epochs * len(self.train_lengths)
        return self.batch * len(self.dev_lengths)

    @property
    def frames(self) -> int:
        """Frames trained on (over all epochs), or decoded."""
        if self.train_lengths:
            return self.epochs * self.batch * sum(self.train_lengths)
        return self.batch * sum(self.dev_lengths)


SHAPES = {
    "full": {
        "train-paper": Shape(train_lengths=(30, 26), dev_lengths=(24,), batch=4),
        "overfit-tiny": Shape(train_lengths=(52, 60, 68, 76, 84, 92),
                              dev_lengths=(96, 96), batch=2, epochs=3),
        "decode-tones": Shape(train_lengths=(), batch=8,
                              dev_lengths=(28, 36, 44, 52, 60, 68, 76, 84)),
    },
    # Seconds-long sizes for smoke.py; no metric of these is meaningful.
    "toy": {
        "train-paper": Shape(train_lengths=(12,), dev_lengths=(10,), batch=2),
        "overfit-tiny": Shape(train_lengths=(20,), dev_lengths=(16,), batch=2, epochs=2),
        "decode-tones": Shape(train_lengths=(), dev_lengths=(20, 24), batch=8),
    },
}
NAMES = tuple(SHAPES["full"])


def input_set(seed: int) -> int:
    return seed % N_INPUT_SETS


def _symbols(n: int) -> tuple[str, ...]:
    return tuple(f"p{i:02d}" for i in range(n))


def _length_uniform(utts, lengths, batch):
    """Take ``batch`` utterances for each listed frame count (so ``batch``
    times as many for a count listed more than once), in pool order."""
    by_len: dict[int, list] = {}
    for u in utts:
        by_len.setdefault(u.n_frames, []).append(u)
    picked = []
    for n, groups in Counter(lengths).items():
        group = by_len.get(n, [])[:batch * groups]
        if len(group) < batch * groups:
            raise RuntimeError(f"synthetic pool has {len(group)} utterances of "
                               f"{n} frames, need {batch * groups}")
        picked += group
    return picked


def _loss_close(got: float, want: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= LOSS_RTOL * max(abs(want), 1.0)


class TrainWorkload:
    """``Trainer.train`` on ``synth_toy_dataset`` utterances, with a dev set."""

    def __init__(self, shape: Shape, cfg: RunConfig, n_symbols: int,
                 workdir: Path, seed: int):
        self.shape, self.workdir = shape, workdir
        if len(set(shape.dev_lengths)) != 1:
            raise ValueError("the dev set needs a single frame count")
        if set(shape.train_lengths) & set(shape.dev_lengths):
            raise ValueError("train and dev sets need frame counts of their own")
        lengths = shape.train_lengths + shape.dev_lengths
        lo, hi = min(lengths), max(lengths)
        # About 12 utterances per possible length, so every needed length
        # has a full batch; _length_uniform raises if one does not.
        rng = np.random.default_rng([input_set(seed), 1])
        pool = data.synth_toy_dataset(12 * (hi - lo + 1), _symbols(n_symbols), rng,
                                      min_frames=lo, max_frames=hi)
        self.train_set = _length_uniform(pool, shape.train_lengths, shape.batch)
        self.dev_set = _length_uniform(pool, shape.dev_lengths, shape.batch)
        self.table = SymbolTable(_symbols(n_symbols))
        cfg = replace(cfg, train=replace(
            cfg.train, epochs=shape.epochs, fine_tune_epochs=0,
            batch_size=shape.batch, seed=input_set(seed)))
        self.trainer = trainer.Trainer(cfg, self.table, log_stream=io.StringIO())

    def run(self) -> dict:
        result = self.trainer.train(self.train_set, self.dev_set, self.workdir / "run")
        return {"history": [[s.train_loss, s.dev_loss, s.dev_per, s.skipped]
                            for s in result.history]}

    @staticmethod
    def check(shape: Shape, outputs: dict, reference: dict) -> list[str]:
        """One message per failed train batch: every batch of an epoch whose
        losses or dev PER left the reference, or that skipped an utterance."""
        got, want = outputs["history"], reference["history"]
        per_epoch = len(shape.train_lengths)
        failures = []
        for epoch in range(shape.epochs):
            if epoch >= len(got):
                failures += [f"epoch {epoch + 1}: missing"] * per_epoch
                continue
            (tl, dl, dp, skipped), (rtl, rdl, rdp, _) = got[epoch], want[epoch]
            if not (_loss_close(tl, rtl) and _loss_close(dl, rdl)
                    and abs(dp - rdp) <= PER_ATOL and skipped == 0):
                failures += [f"epoch {epoch + 1}: got {got[epoch]}, "
                             f"reference {want[epoch]}"] * per_epoch
        return failures

    def sizes(self) -> dict:
        return {"train_utterances": len(self.train_set),
                "dev_utterances": len(self.dev_set),
                "train_frames": sum(u.n_frames for u in self.train_set),
                "dev_frames": sum(u.n_frames for u in self.dev_set),
                "batch": self.shape.batch, "epochs": self.shape.epochs,
                "parameters": model.count_params(self.trainer.model),
                "symbols": self.table.num_classes - 1}


TONE_SYMBOLS = ("lo", "mid", "hi")
SAMPLE_RATE = 16000


def _write_tone_corpus(out_dir: Path, lengths, batch, rng) -> Path:
    """Tone WAVs as in ``qspeech.data.synth_tone_corpus`` (octave-spaced
    pure tones, one per label, light noise), but with each group of
    ``batch`` utterances cut to one exact frame count."""
    out_dir.mkdir(parents=True, exist_ok=True)
    freqs = 350.0 * 2.0 ** np.arange(len(TONE_SYMBOLS))
    lines = []
    for g, n_frames in enumerate(lengths):
        # 25 ms window, 10 ms hop: n samples give 1 + (n - 400) // 160 frames.
        n_samples = 400 + 160 * (n_frames - 1)
        t = np.arange(n_samples) / SAMPLE_RATE
        for k in range(batch):
            n_labels = int(rng.integers(2, 5))
            labels: list[str] = []
            while len(labels) < n_labels:
                s = TONE_SYMBOLS[int(rng.integers(len(TONE_SYMBOLS)))]
                if not labels or s != labels[-1]:
                    labels.append(s)
            cuts = np.sort(rng.choice(np.arange(1, 8 * n_labels), n_labels - 1,
                                      replace=False)) * n_samples // (8 * n_labels)
            bounds = np.concatenate(([0], cuts, [n_samples]))
            samples = 0.01 * rng.normal(size=n_samples)
            for lab, a, b in zip(labels, bounds[:-1], bounds[1:]):
                f = freqs[TONE_SYMBOLS.index(lab)]
                samples[a:b] += 0.4 * np.sin(2 * np.pi * f * t[a:b])
            pcm = np.clip(samples * 32767.0, -32768, 32767).astype("<i2")
            utt_id = f"tone{g:02d}{k}"
            with wave.open(str(out_dir / f"{utt_id}.wav"), "wb") as wf:
                wf.setnchannels(1)
                wf.setsampwidth(2)
                wf.setframerate(SAMPLE_RATE)
                wf.writeframes(pcm.tobytes())
            lines.append(f"{utt_id}\t{utt_id}.wav\t{' '.join(labels)}\n")
    manifest = out_dir / "manifest.tsv"
    manifest.write_text("".join(lines), encoding="utf-8")
    return manifest


class DecodeWorkload:
    """The forward-only path of ``qspeech eval``/``decode``: checkpoint in,
    WAVs through the front end, greedy transcripts and PER out."""

    def __init__(self, shape: Shape, workdir: Path, seed: int):
        self.shape = shape
        rng = np.random.default_rng([input_set(seed), 2])
        self.manifest = _write_tone_corpus(workdir / "tones", shape.dev_lengths,
                                           shape.batch, rng)
        cfg = load_config(TINY_CFG)
        cfg = replace(cfg, train=replace(cfg.train, batch_size=shape.batch,
                                         seed=input_set(seed)))
        seeded = trainer.Trainer(cfg, SymbolTable(TONE_SYMBOLS), log_stream=io.StringIO())
        self.n_params = model.count_params(seeded.model)
        self.checkpoint = workdir / "model.ckpt"
        seeded.save(self.checkpoint, 0, "adam", Adam(seeded.params), float("inf"))

    def run(self) -> dict:
        state = checkpoint.load_checkpoint(self.checkpoint)
        cfg = parse_config(state["config_text"])
        table = SymbolTable(tuple(state["symbols"]))
        net = model.build_model(cfg.model, table.num_classes, np.random.default_rng(0))
        trainer.restore_parameters(net, state["params"])
        utts = data.load_dataset(self.manifest, cfg.features)
        frames = sum(u.n_frames for u in utts)
        if frames != self.shape.frames:
            raise RuntimeError(f"front end made {frames} frames, "
                               f"expected {self.shape.frames}")
        hyps = trainer.decode_dataset(net, utts, table, batch_size=self.shape.batch)
        per = metrics.per([(hyps[u.utt_id], u.labels) for u in utts])
        return {"transcripts": {k: " ".join(v) for k, v in sorted(hyps.items())},
                "per": per}

    @staticmethod
    def check(shape: Shape, outputs: dict, reference: dict) -> list[str]:
        """One message per utterance whose transcript left the reference;
        every utterance fails if the PER moved while the transcripts did not."""
        got, want = outputs["transcripts"], reference["transcripts"]
        failures = [f"{u}: got {got.get(u)!r}, reference {want[u]!r}"
                    for u in sorted(want) if got.get(u) != want[u]]
        failures += [f"{u}: not in the reference" for u in sorted(set(got) - set(want))]
        if not failures and not abs(outputs["per"] - reference["per"]) <= PER_ATOL:
            failures = [f"per: got {outputs['per']}, reference {reference['per']}"] \
                * shape.operations
        return failures

    def sizes(self) -> dict:
        return {"utterances": self.shape.operations, "frames": self.shape.frames,
                "batch": self.shape.batch, "parameters": self.n_params,
                "symbols": len(TONE_SYMBOLS)}


def check(name: str, size: str, outputs: dict, reference: dict) -> list[str]:
    """The correctness gate: one message per failed operation."""
    kind = DecodeWorkload if name == "decode-tones" else TrainWorkload
    return kind.check(SHAPES[size][name], outputs, reference)


def build(name: str, size: str, workdir: Path, seed: int):
    shape = SHAPES[size][name]
    if name == "train-paper":
        return TrainWorkload(shape, RunConfig(), 61, workdir, seed)
    if name == "overfit-tiny":
        return TrainWorkload(shape, load_config(TINY_CFG), 5, workdir, seed)
    if name == "decode-tones":
        return DecodeWorkload(shape, workdir, seed)
    raise ValueError(f"unknown workload {name!r}")
