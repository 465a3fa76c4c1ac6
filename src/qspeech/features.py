"""Acoustic front end: log mel-filterbank energies packed as quaternions.

The pipeline is framing (25 ms Hamming window, 10 ms hop by default) ->
power spectrum -> 40 triangular mel filters (HTK mel scale,
2595*log10(1+f/700)) -> log with a 1e-10 floor, plus one per-frame log
energy row, giving 41 static features per frame. First and second
time-derivative streams come from the standard regression deltas with
edge replication. The three 41-wide streams are packed per (band, frame)
into one quaternion with a zero real part: i carries the energy, j its
slope, k its concavity, so 123 real features become 41 quaternions.

Packed features are float32; files round-trip bit-exactly. Per-corpus
normalization is deliberately not applied anywhere.
"""

from __future__ import annotations

import struct
import wave
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import DataError, check_config

__all__ = [
    "FeatureConfig",
    "FeatureSequence",
    "read_wav",
    "log_mel_energies",
    "delta",
    "pack_quaternions",
    "extract",
    "save_features",
    "load_features",
    "mel_filterbank",
]

MAGIC = b"QFEAT\n"
VERSION = 1


@dataclass(frozen=True)
class FeatureConfig:
    sample_rate: int = 16000
    window_ms: float = 25.0
    hop_ms: float = 10.0
    n_mels: int = 40
    fft_size: int = 512
    include_energy: bool = True
    delta_window: int = 2
    log_floor: float = 1e-10

    @property
    def window_length(self) -> int:
        return int(round(self.sample_rate * self.window_ms / 1000.0))

    @property
    def hop_length(self) -> int:
        return int(round(self.sample_rate * self.hop_ms / 1000.0))

    def validate(self) -> None:
        check_config("features", self, (
            ("sample_rate", self.sample_rate >= 1, ">= 1"),
            ("window_ms", self.window_length >= 1, "at least one sample long"),
            ("hop_ms", self.hop_length >= 1, "at least one sample long"),
            ("n_mels", self.n_mels >= 1, ">= 1"),
            ("fft_size", self.fft_size >= self.window_length,
             f">= the window length, {self.window_length} samples"),
            ("delta_window", self.delta_window >= 1, ">= 1"),
            ("log_floor", self.log_floor > 0.0, "> 0")))


@dataclass
class FeatureSequence:
    """Per-utterance quaternion features: (4, width, n_frames) float32.

    Plane 0 is the (identically zero) real part; planes 1..3 hold the
    static, delta and delta-delta streams.
    """

    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 3 or self.data.shape[0] != 4:
            raise ValueError(f"expected (4, width, n_frames), got {self.data.shape}")

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def n_frames(self) -> int:
        return self.data.shape[2]


def read_wav(path: str | Path, expect_rate: int | None = None) -> tuple[np.ndarray, int]:
    """Read a 16-bit PCM mono WAV file into float64 samples in [-1, 1)."""
    try:
        with wave.open(str(path), "rb") as wf:
            if wf.getnchannels() != 1:
                raise DataError(f"{path}: expected mono audio, got {wf.getnchannels()} channels")
            if wf.getsampwidth() != 2:
                raise DataError(f"{path}: expected 16-bit PCM, got {wf.getsampwidth() * 8}-bit")
            rate = wf.getframerate()
            raw = wf.readframes(wf.getnframes())
    except (wave.Error, EOFError, OSError) as e:
        raise DataError(f"{path}: not a readable WAV file ({e})") from None
    if expect_rate is not None and rate != expect_rate:
        raise DataError(f"{path}: sample rate {rate} does not match configured {expect_rate}")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return samples, rate


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=8)
def mel_filterbank(n_mels: int, fft_size: int, sample_rate: int) -> np.ndarray:
    """Triangular filters, (n_mels, fft_size//2 + 1), over [0, nyquist].

    Built once per geometry and shared, so the array is read-only.
    """
    n_bins = fft_size // 2 + 1
    bin_hz = np.arange(n_bins) * sample_rate / fft_size
    edges = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0), n_mels + 2))
    fb = np.zeros((n_mels, n_bins))
    for m in range(n_mels):
        lo, mid, hi = edges[m], edges[m + 1], edges[m + 2]
        rising = (bin_hz - lo) / (mid - lo)
        falling = (hi - bin_hz) / (hi - mid)
        fb[m] = np.clip(np.minimum(rising, falling), 0.0, None)
    fb.flags.writeable = False
    return fb


def frame_signal(waveform: np.ndarray, cfg: FeatureConfig) -> np.ndarray:
    """Slice a waveform into (n_frames, window_length) frames."""
    win, hop = cfg.window_length, cfg.hop_length
    if waveform.size < win:
        raise DataError(f"utterance of {waveform.size} samples is shorter than one "
                        f"{win}-sample window")
    n_frames = 1 + (waveform.size - win) // hop
    idx = np.arange(win)[None, :] + hop * np.arange(n_frames)[:, None]
    return waveform[idx]


def log_mel_energies(waveform: np.ndarray, cfg: FeatureConfig) -> np.ndarray:
    """Static stream: (width, n_frames) with log mel energies and, when
    configured, a final per-frame log energy row."""
    waveform = np.asarray(waveform, dtype=np.float64)
    frames = frame_signal(waveform, cfg) * np.hamming(cfg.window_length)
    spec = np.fft.rfft(frames, n=cfg.fft_size, axis=1)
    power = spec.real ** 2 + spec.imag ** 2
    fb = mel_filterbank(cfg.n_mels, cfg.fft_size, cfg.sample_rate)
    mel = np.log(np.maximum(power @ fb.T, cfg.log_floor))
    out = mel.T
    if cfg.include_energy:
        energy = np.log(np.maximum((frames ** 2).sum(axis=1), cfg.log_floor))
        out = np.vstack([out, energy[None, :]])
    return out


def delta(stream: np.ndarray, half_width: int = 2) -> np.ndarray:
    """Regression deltas with edge replication.

    d_t = sum_{n=1..N} n * (c_{t+n} - c_{t-n}) / (2 * sum n^2), columns
    beyond the ends replicated from the first/last frame.
    """
    if half_width < 1:
        raise ValueError("delta half_width must be >= 1")
    stream = np.asarray(stream, dtype=np.float64)
    n_frames = stream.shape[-1]
    padded = np.pad(stream, [(0, 0)] * (stream.ndim - 1) + [(half_width, half_width)],
                    mode="edge")
    denom = 2.0 * sum(n * n for n in range(1, half_width + 1))
    out = np.zeros_like(stream)
    for n in range(1, half_width + 1):
        lo = half_width - n
        hi = half_width + n
        out += n * (padded[..., hi:hi + n_frames] - padded[..., lo:lo + n_frames])
    return out / denom


def pack_quaternions(static: np.ndarray, d1: np.ndarray, d2: np.ndarray) -> FeatureSequence:
    """Arrange three equally shaped streams as zero-real quaternions."""
    if not (static.shape == d1.shape == d2.shape):
        raise ValueError(f"stream shapes differ: {static.shape}, {d1.shape}, {d2.shape}")
    planes = np.stack([np.zeros_like(static), static, d1, d2]).astype(np.float32)
    return FeatureSequence(planes)


def extract(waveform: np.ndarray, cfg: FeatureConfig) -> FeatureSequence:
    """Full front end: static -> delta -> delta-delta -> packed."""
    static = log_mel_energies(waveform, cfg)
    d1 = delta(static, cfg.delta_window)
    d2 = delta(d1, cfg.delta_window)
    return pack_quaternions(static, d1, d2)


def save_features(path: str | Path, fs: FeatureSequence) -> None:
    """Write magic, version, frame count, width, then the three streams
    as row-major little-endian float32."""
    try:
        with open(path, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<III", VERSION, fs.n_frames, fs.width))
            for plane in (1, 2, 3):
                f.write(np.ascontiguousarray(fs.data[plane], dtype="<f4").tobytes())
    except OSError as e:    # a name too long for the file system, a full disk
        raise DataError(f"{path}: cannot write feature file ({e.strerror})") from None


def load_features(path: str | Path) -> FeatureSequence:
    try:
        f = open(path, "rb")
    except OSError as e:
        raise DataError(f"{path}: cannot read feature file ({e})") from None
    with f:
        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise DataError(f"{path}: bad magic, not a feature file")
        header = f.read(12)
        if len(header) != 12:
            raise DataError(f"{path}: truncated feature file header")
        version, n_frames, width = struct.unpack("<III", header)
        if version != VERSION:
            raise DataError(f"{path}: unsupported feature file version {version}")
        count = width * n_frames
        streams = []
        for _ in range(3):
            buf = f.read(4 * count)
            if len(buf) != 4 * count:
                raise DataError(f"{path}: truncated feature file")
            streams.append(np.frombuffer(buf, dtype="<f4").reshape(width, n_frames))
        if f.read(1):
            raise DataError(f"{path}: trailing bytes after feature payload")
    return pack_quaternions(*streams)
