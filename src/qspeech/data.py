"""Datasets, manifests, batching and toy data synthesis.

A manifest is plain text, one utterance per line::

    utterance-id <tab> feature-or-wav-path <tab> space-separated labels

``.wav`` paths are run through the acoustic front end on load; feature
files produced by ``qspeech extract`` are loaded directly. Batches are
bucketed by length: utterances are sorted by frame count, cut into
consecutive groups, and zero-padded to the longest member. The CTC loss
reads only each example's first ``length`` frames, but the padding is not
invisible: 'same' convolutions let it change the last frames of the
shorter utterances' logits, so an utterance's outputs depend on what it is
batched with.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .ctc import SymbolTable
from .errors import DataError, read_file
from .features import FeatureConfig, extract, load_features, read_wav
from .qlayers import QTensor

__all__ = ["Utterance", "Batch", "read_manifest", "load_dataset",
           "derive_symbol_table", "make_batches", "batch_to_qtensor",
           "synth_toy_dataset", "synth_tone_corpus"]


@dataclass
class Utterance:
    utt_id: str
    features: np.ndarray            # (4, width, n_frames) float
    labels: list[str]

    @property
    def n_frames(self) -> int:
        return self.features.shape[2]


@dataclass
class Batch:
    utt_ids: list[str]
    features: Tensor                # stacked r|x|y|z: (batch, 4, width, max_frames)
    lengths: list[int]
    targets: list[list[int]]


def read_manifest(path: str | Path) -> list[tuple[str, str, list[str]]]:
    entries, first_line = [], {}
    base = Path(path).parent
    for lineno, line in enumerate(read_file(path, "manifest").split("\n"), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields, "
                            f"got {len(parts)}")
        utt_id, file_path, labels = parts
        if utt_id in first_line:
            raise DataError(f"{path}:{lineno}: utterance id {utt_id!r} already used "
                            f"on line {first_line[utt_id]}")
        first_line[utt_id] = lineno
        labels_list = labels.split()
        if not labels_list:
            raise DataError(f"{path}:{lineno}: utterance {utt_id!r} has no labels")
        p = Path(file_path)
        if not p.is_absolute():
            p = base / p
        entries.append((utt_id, str(p), labels_list))
    if not entries:
        raise DataError(f"{path}: empty manifest")
    return entries


def load_dataset(manifest: str | Path, feat_cfg: FeatureConfig) -> list[Utterance]:
    utts = []
    for utt_id, file_path, labels in read_manifest(manifest):
        if file_path.endswith(".wav"):
            wave, _ = read_wav(file_path, expect_rate=feat_cfg.sample_rate)
            fs = extract(wave, feat_cfg)
        else:
            fs = load_features(file_path)
        utts.append(Utterance(utt_id, fs.data, labels))
    return utts


def derive_symbol_table(utts: list[Utterance]) -> SymbolTable:
    seen = sorted({lab for u in utts for lab in u.labels})
    return SymbolTable(tuple(seen))


def make_batches(utts: list[Utterance], table: SymbolTable, batch_size: int,
                 rng: np.random.Generator | None = None) -> list[Batch]:
    """Length-bucketed batches; pass an rng to shuffle the batch order."""
    order = sorted(range(len(utts)), key=lambda i: (utts[i].n_frames, utts[i].utt_id))
    groups = [order[i:i + batch_size] for i in range(0, len(order), batch_size)]
    if rng is not None:
        rng.shuffle(groups)
    batches = []
    for group in groups:
        members = [utts[i] for i in group]
        max_t = max(u.n_frames for u in members)
        width = members[0].features.shape[1]
        stacked = np.zeros((len(members), 4, width, max_t))
        targets = []
        for b, u in enumerate(members):
            stacked[b, :, :, :u.n_frames] = u.features
            try:
                targets.append(table.encode(u.labels))
            except KeyError as e:
                raise DataError(f"utterance {u.utt_id!r}: {e.args[0]}") from None
        batches.append(Batch(
            utt_ids=[u.utt_id for u in members],
            features=Tensor(stacked),
            lengths=[u.n_frames for u in members],
            targets=targets,
        ))
    return batches


def batch_to_qtensor(features: np.ndarray) -> QTensor:
    """Wrap a single utterance (4, width, n_frames) as a batch of one."""
    return QTensor.of(Tensor(features[None]))


def synth_tone_corpus(out_dir: str | Path, n_utts: int, symbols: tuple[str, ...],
                      rng: np.random.Generator) -> Path:
    """Write a small 16 kHz WAV corpus where each symbol is a pure tone.

    Utterances are sequences of 120-200 ms tone segments (one per label)
    with light noise. Returns the path of the written manifest.
    """
    import wave as wave_mod

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sample_rate = 16000
    freqs = 350.0 * 2.0 ** np.arange(len(symbols))  # octave spacing
    manifest = out_dir / "manifest.tsv"
    with open(manifest, "w", encoding="utf-8") as mf:
        for n in range(n_utts):
            n_labels = int(rng.integers(2, 5))
            labels = []
            for _ in range(n_labels):
                while True:
                    s = symbols[int(rng.integers(len(symbols)))]
                    if not labels or s != labels[-1]:
                        break
                labels.append(s)
            pieces = []
            for lab in labels:
                dur = int(sample_rate * rng.uniform(0.12, 0.20))
                t = np.arange(dur) / sample_rate
                tone = 0.4 * np.sin(2 * np.pi * freqs[symbols.index(lab)] * t)
                pieces.append(tone + 0.01 * rng.normal(size=dur))
            samples = np.concatenate(pieces)
            pcm = np.clip(samples * 32767.0, -32768, 32767).astype("<i2")
            wav_path = out_dir / f"tone{n:03d}.wav"
            with wave_mod.open(str(wav_path), "wb") as wf:
                wf.setnchannels(1)
                wf.setsampwidth(2)
                wf.setframerate(sample_rate)
                wf.writeframes(pcm.tobytes())
            mf.write(f"tone{n:03d}\t{wav_path.name}\t{' '.join(labels)}\n")
    return manifest


def synth_toy_dataset(n_utts: int, symbols: tuple[str, ...], rng: np.random.Generator,
                      min_frames: int = 50, max_frames: int = 100,
                      min_labels: int = 2, max_labels: int = 5,
                      width: int = 41, noise: float = 0.1) -> list[Utterance]:
    """Synthetic utterances for overfit smoke runs.

    Each symbol owns a fixed random 41-band pattern; an utterance is a
    sequence of contiguous segments, one per label, rendered into the i
    plane with that pattern plus noise (j and k get scaled copies, the
    real plane stays zero). Adjacent repeated labels are avoided so the
    rendered segments stay distinguishable.
    """
    base = 5  # minimum frames per rendered segment
    if min_frames < base * min_labels:
        raise ValueError(f"min_frames={min_frames} cannot fit {min_labels} segments "
                         f"of {base}+ frames")
    protos = rng.normal(0.0, 1.0, size=(len(symbols), width))
    utts = []
    for n in range(n_utts):
        n_frames = int(rng.integers(min_frames, max_frames + 1))
        hi = min(max_labels, n_frames // base)
        n_labels = int(rng.integers(min_labels, hi + 1))
        labels = []
        for _ in range(n_labels):
            while True:
                s = int(rng.integers(len(symbols)))
                if not labels or symbols[s] != labels[-1]:
                    break
            labels.append(symbols[s])
        extra = rng.multinomial(n_frames - base * n_labels, [1.0 / n_labels] * n_labels)
        seg_lens = base + extra
        bounds = np.concatenate(([0], np.cumsum(seg_lens)))
        feat = np.zeros((4, width, n_frames))
        for seg, lab in enumerate(labels):
            lo, hi = int(bounds[seg]), int(bounds[seg + 1])
            pat = protos[symbols.index(lab)][:, None]
            feat[1, :, lo:hi] = pat + noise * rng.normal(size=(width, hi - lo))
            feat[2, :, lo:hi] = 0.5 * pat + noise * rng.normal(size=(width, hi - lo))
            feat[3, :, lo:hi] = 0.25 * pat + noise * rng.normal(size=(width, hi - lo))
        utts.append(Utterance(f"toy{n:03d}", feat.astype(np.float32), labels))
    return utts
