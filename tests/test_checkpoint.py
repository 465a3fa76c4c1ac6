import hashlib
import json
import struct

import numpy as np
import pytest

from qspeech.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from qspeech.config import RunConfig, config_hash, dump_config
from qspeech.errors import DataError


def sample_payload(rng):
    return dict(
        params={"a.w": rng.normal(size=(3, 2)), "b.w": rng.normal(size=4)},
        optimizer={"mode": "adam", "lr": 1e-3, "beta1": 0.9, "beta2": 0.999,
                   "eps": 1e-8, "step_count": 7,
                   "buffers": {"m:a.w": rng.normal(size=(3, 2)),
                               "v:a.w": rng.normal(size=(3, 2)) ** 2}},
        epoch=5,
        phase="adam",
        config_text=dump_config(RunConfig()),
        config_hash=config_hash(RunConfig()),
        symbols=["a", "b"],
        rng_state=np.random.default_rng(3).bit_generator.state,
        best_metric=12.5,
        best_epoch=4,
    )


def test_save_load_save_byte_identical(tmp_path):
    payload = sample_payload(np.random.default_rng(0))
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, **payload)
    state = load_checkpoint(p1)
    save_checkpoint(
        p2, params=state["params"], optimizer={**state["optimizer"],
                                               "buffers": state["opt_buffers"]},
        epoch=state["epoch"], phase=state["phase"],
        config_text=state["config_text"], config_hash=state["config_hash"],
        symbols=state["symbols"], rng_state=state["rng_state"],
        best_metric=state["best_metric"], best_epoch=state["best_epoch"])
    assert p1.read_bytes() == p2.read_bytes()


def test_file_layout(tmp_path):
    # magic, version, sha256 of the body, then the body: header length,
    # sorted-key JSON header, arrays in manifest order as little-endian f8
    payload = sample_payload(np.random.default_rng(4))
    payload["params"]["c.s"] = np.array(2.5)
    payload["params"]["d.w"] = np.asfortranarray(np.arange(6.0).reshape(2, 3))
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, **payload)
    names = sorted(payload["params"])
    arrays = [payload["params"][n] for n in names]
    buffers = payload["optimizer"]["buffers"]
    arrays += [buffers[n] for n in sorted(buffers)]
    header = {k: payload[k] for k in ("epoch", "phase", "config_text", "config_hash",
                                      "symbols", "rng_state", "best_metric",
                                      "best_epoch")}
    header["optimizer"] = {k: v for k, v in payload["optimizer"].items() if k != "buffers"}
    header["arrays"] = [{"name": f"param:{n}", "shape": list(payload["params"][n].shape)}
                        for n in names]
    header["arrays"] += [{"name": f"opt:{n}", "shape": list(buffers[n].shape)}
                         for n in sorted(buffers)]
    hb = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = b"".join([struct.pack("<I", len(hb)), hb]
                    + [np.asarray(a, dtype="<f8").tobytes(order="C") for a in arrays])
    expected = MAGIC + struct.pack("<I", VERSION) + hashlib.sha256(body).digest() + body
    assert path.read_bytes() == expected


def test_header_without_best_epoch_loads_as_minus_one(tmp_path):
    # checkpoints written before the best epoch was stored lack the key
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, **sample_payload(np.random.default_rng(5)))
    raw = path.read_bytes()
    body = raw[len(MAGIC) + 4 + 32:]
    (hlen,) = struct.unpack_from("<I", body, 0)
    header = json.loads(body[4:4 + hlen])
    del header["best_epoch"]
    hb = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = struct.pack("<I", len(hb)) + hb + body[4 + hlen:]
    path.write_bytes(MAGIC + struct.pack("<I", VERSION) + hashlib.sha256(body).digest() + body)
    state = load_checkpoint(path)
    assert state["best_epoch"] == -1
    assert state["best_metric"] == 12.5


def test_roundtrip_values(tmp_path):
    payload = sample_payload(np.random.default_rng(1))
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, **payload)
    state = load_checkpoint(path)
    assert state["epoch"] == 5
    assert state["symbols"] == ["a", "b"]
    assert state["best_metric"] == 12.5
    assert state["best_epoch"] == 4
    for name, arr in payload["params"].items():
        assert np.array_equal(state["params"][name], arr)
    for name, arr in payload["optimizer"]["buffers"].items():
        assert np.array_equal(state["opt_buffers"][name], arr)
    assert state["rng_state"] == payload["rng_state"]


def test_corruption_detected(tmp_path):
    payload = sample_payload(np.random.default_rng(2))
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, **payload)
    raw = bytearray(path.read_bytes())
    raw[-5] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="integrity"):
        load_checkpoint(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"garbage file contents")
    with pytest.raises(DataError, match="magic"):
        load_checkpoint(path)


def test_failed_write_keeps_previous_checkpoint(tmp_path, monkeypatch):
    # A save that dies part-way (disk full, kill) must not touch the
    # checkpoint it was replacing, and must not leave its partial file.
    import qspeech.checkpoint as ckpt_module
    path = tmp_path / "best.ckpt"
    save_checkpoint(path, **sample_payload(np.random.default_rng(4)))
    before = path.read_bytes()

    class DiesAfter:
        def __init__(self, f, budget):
            self.f, self.budget = f, budget

        def write(self, chunk):
            n = memoryview(chunk).nbytes
            if n > self.budget:
                self.f.write(memoryview(chunk).cast("B")[:self.budget])
                raise OSError("no space left on device")
            self.budget -= n
            return self.f.write(chunk)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.f.__exit__(*exc)

        def __getattr__(self, name):
            return getattr(self.f, name)

    monkeypatch.setattr(ckpt_module, "open",
                        lambda *args, **kwargs: DiesAfter(open(*args, **kwargs), 100),
                        raising=False)
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(path, **sample_payload(np.random.default_rng(5)))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert load_checkpoint(path)["params"].keys() == {"a.w", "b.w"}
    assert [p.name for p in tmp_path.iterdir()] == ["best.ckpt"]


def test_truncated_header_is_data_error(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(MAGIC + b"\x01\x00")
    with pytest.raises(DataError, match="truncated"):
        load_checkpoint(path)
