import wave as wave_mod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qspeech import features
from qspeech.errors import DataError
from qspeech.features import (MAGIC, FeatureConfig, FeatureSequence, delta, extract,
                              load_features, log_mel_energies, mel_filterbank,
                              pack_quaternions, read_wav, save_features,
                              hz_to_mel, mel_to_hz)

CFG = FeatureConfig()


def write_wav(path, samples, rate=16000):
    pcm = np.clip(samples * 32767.0, -32768, 32767).astype("<i2")
    with wave_mod.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(rate)
        wf.writeframes(pcm.tobytes())


def direct_dft_logmel(wave, cfg, n_frames):
    """Independent reference: naive DFT definition plus a loop-built
    triangular filterbank."""
    win, hop, nfft = cfg.window_length, cfg.hop_length, cfg.fft_size
    frames = np.stack([wave[i * hop:i * hop + win] for i in range(n_frames)])
    frames = frames * np.hamming(win)
    padded = np.zeros((n_frames, nfft))
    padded[:, :win] = frames
    k = np.arange(nfft // 2 + 1)[:, None]
    t = np.arange(nfft)[None, :]
    basis = np.exp(-2j * np.pi * k * t / nfft)
    power = np.abs(padded @ basis.T) ** 2

    mel = lambda f: 2595.0 * np.log10(1.0 + f / 700.0)
    imel = lambda m: 700.0 * (10.0 ** (m / 2595.0) - 1.0)
    edges = imel(np.linspace(0.0, mel(cfg.sample_rate / 2.0), cfg.n_mels + 2))
    bins = np.arange(nfft // 2 + 1) * cfg.sample_rate / nfft
    fb = np.zeros((cfg.n_mels, nfft // 2 + 1))
    for m in range(cfg.n_mels):
        for b, f in enumerate(bins):
            if edges[m] <= f <= edges[m + 1]:
                fb[m, b] = (f - edges[m]) / (edges[m + 1] - edges[m])
            elif edges[m + 1] < f <= edges[m + 2]:
                fb[m, b] = (edges[m + 2] - f) / (edges[m + 2] - edges[m + 1])
    return np.log(np.maximum(power @ fb.T, cfg.log_floor)).T


class TestWav:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.uniform(-0.5, 0.5, size=8000)
        p = tmp_path / "x.wav"
        write_wav(p, samples)
        loaded, rate = read_wav(p, expect_rate=16000)
        assert rate == 16000
        assert np.abs(loaded - samples).max() < 2.0 / 32768.0

    def test_rate_mismatch(self, tmp_path):
        p = tmp_path / "x.wav"
        write_wav(p, np.zeros(100), rate=8000)
        with pytest.raises(DataError):
            read_wav(p, expect_rate=16000)

    def test_non_wav_rejected(self, tmp_path):
        p = tmp_path / "x.wav"
        p.write_bytes(b"not audio at all")
        with pytest.raises(DataError):
            read_wav(p)


class TestLogMel:
    def test_one_second_frame_count(self):
        static = log_mel_energies(np.zeros(16000) + 1e-6, CFG)
        assert static.shape == (41, 98)  # floor((16000-400)/160)+1

    def test_sine_at_band_center_dominates(self):
        fb = mel_filterbank(CFG.n_mels, CFG.fft_size, CFG.sample_rate)
        band = 20
        center_bin = int(np.argmax(fb[band]))
        freq = center_bin * CFG.sample_rate / CFG.fft_size
        t = np.arange(16000) / CFG.sample_rate
        static = log_mel_energies(0.5 * np.sin(2 * np.pi * freq * t), CFG)
        mel_means = static[:40].mean(axis=1)
        assert np.argmax(mel_means) == band
        assert mel_means[band] > mel_means[band - 2]
        assert mel_means[band] > mel_means[band + 2]

    def test_silence_hits_log_floor(self):
        static = log_mel_energies(np.zeros(16000), CFG)
        assert np.all(static == np.log(CFG.log_floor))

    def test_matches_direct_dft_oracle(self):
        rng = np.random.default_rng(1)
        wave = rng.normal(scale=0.1, size=1200)
        got = log_mel_energies(wave, CFG)
        ref = direct_dft_logmel(wave, CFG, got.shape[1])
        assert np.abs((got[:40] - ref) / ref).max() < 1e-6

    def test_energy_row_is_frame_log_energy(self):
        rng = np.random.default_rng(2)
        wave = rng.normal(scale=0.1, size=900)
        got = log_mel_energies(wave, CFG)
        frames = np.stack([wave[i * CFG.hop_length:i * CFG.hop_length + CFG.window_length]
                           for i in range(got.shape[1])]) * np.hamming(CFG.window_length)
        ref = np.log(np.maximum((frames ** 2).sum(axis=1), CFG.log_floor))
        assert np.allclose(got[40], ref, atol=1e-12)

    def test_too_short_utterance(self):
        with pytest.raises(DataError):
            log_mel_energies(np.zeros(CFG.window_length - 1), CFG)

    def test_filterbank_is_built_once_and_read_only(self):
        fb = mel_filterbank(CFG.n_mels, CFG.fft_size, CFG.sample_rate)
        assert mel_filterbank(CFG.n_mels, CFG.fft_size, CFG.sample_rate) is fb
        assert not fb.flags.writeable
        with pytest.raises(ValueError):
            fb[0, 0] = 1.0
        fresh = mel_filterbank.__wrapped__(CFG.n_mels, CFG.fft_size, CFG.sample_rate)
        assert np.array_equal(fb, fresh)

    def test_extract_unchanged_by_the_cached_filterbank(self, monkeypatch):
        wave = np.random.default_rng(3).normal(scale=0.1, size=2000)
        cached = extract(wave, CFG).data
        monkeypatch.setattr(features, "mel_filterbank", mel_filterbank.__wrapped__)
        assert np.array_equal(extract(wave, CFG).data, cached)

    def test_mel_scale_inverts(self):
        f = np.linspace(0, 8000, 50)
        assert np.allclose(mel_to_hz(hz_to_mel(f)), f, atol=1e-9)


class TestDelta:
    def test_constant_stream_is_zero(self):
        assert not np.any(delta(np.full((5, 30), 3.3), 2))

    def test_linear_ramp_interior_is_one(self):
        ramp = np.tile(np.arange(25.0), (4, 1))
        d = delta(ramp, 2)
        assert np.allclose(d[:, 2:-2], 1.0)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(3)
        stream = rng.normal(size=(6, 17))
        n = 2
        d = delta(stream, n)
        denom = 2.0 * sum(k * k for k in range(1, n + 1))
        for t in range(17):
            acc = np.zeros(6)
            for k in range(1, n + 1):
                right = stream[:, min(t + k, 16)]
                left = stream[:, max(t - k, 0)]
                acc += k * (right - left)
            assert np.allclose(d[:, t], acc / denom, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31))
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 12))
        b = rng.normal(size=(3, 12))
        assert np.allclose(delta(a + b, 2), delta(a, 2) + delta(b, 2), atol=1e-12)

    def test_single_frame_stream(self):
        assert not np.any(delta(np.ones((41, 1)), 2))


class TestPacking:
    def test_123_reals_become_41_quaternions(self):
        a, b, c = (np.zeros((41, 10)) for _ in range(3))
        fs = pack_quaternions(a, b, c)
        assert fs.width == 41
        assert 3 * fs.width == 123
        assert fs.data.shape == (4, 41, 10)

    def test_zero_inputs_zero_quaternions(self):
        fs = pack_quaternions(*(np.zeros((41, 5)) for _ in range(3)))
        assert not np.any(fs.data)

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(4)
        streams = [rng.normal(size=(41, 9)).astype(np.float32) for _ in range(3)]
        back = pack_quaternions(*streams).data[1:]
        for orig, rec in zip(streams, back):
            assert np.array_equal(orig, rec)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pack_quaternions(np.zeros((41, 5)), np.zeros((41, 5)), np.zeros((41, 6)))

    def test_bad_plane_count(self):
        with pytest.raises(ValueError):
            FeatureSequence(np.zeros((3, 41, 5)))


class TestExtract:
    def test_real_plane_exactly_zero(self):
        rng = np.random.default_rng(5)
        fs = extract(rng.normal(scale=0.2, size=7000), CFG)
        assert not np.any(fs.data[0])

    def test_silence_has_zero_derivative_planes(self):
        fs = extract(np.zeros(5000), CFG)
        assert not np.any(fs.data[2]) and not np.any(fs.data[3])

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        wave = rng.normal(scale=0.2, size=6000)
        fs1 = extract(wave, CFG)
        fs2 = extract(wave.copy(), CFG)
        assert np.array_equal(fs1.data, fs2.data)

    def test_width_default_41(self):
        fs = extract(np.zeros(2000), CFG)
        assert fs.width == 41


class TestFeatureFiles:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        fs = extract(rng.normal(scale=0.3, size=4000), CFG)
        p = tmp_path / "u.qfeat"
        save_features(p, fs)
        loaded = load_features(p)
        assert np.array_equal(fs.data, loaded.data)
        p2 = tmp_path / "u2.qfeat"
        save_features(p2, loaded)
        assert p.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.qfeat"
        p.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(DataError):
            load_features(p)

    def test_truncated(self, tmp_path):
        rng = np.random.default_rng(8)
        fs = extract(rng.normal(scale=0.3, size=4000), CFG)
        p = tmp_path / "u.qfeat"
        save_features(p, fs)
        p.write_bytes(p.read_bytes()[:-10])
        with pytest.raises(DataError):
            load_features(p)
        p.write_bytes(MAGIC + b"\x01\x00\x00\x00\x05")    # cut inside the header
        with pytest.raises(DataError, match="truncated"):
            load_features(p)
