"""Binary checkpoint files with integrity checking.

Layout: magic, format version, sha256 of the remainder, a
length-prefixed JSON header (epoch, config text and hash, symbols, rng
state, best metric and epoch, array manifest), then the raw little-endian
float64 buffers in manifest order. The JSON is dumped with sorted keys and
fixed separators, so save -> load -> save is byte-identical.

Every save writes a new file and renames it over its target, so a target
always gets a new inode. That makes ``link_checkpoint`` safe: a checkpoint
published under a second name by a hard link stays as it is when either
name is saved again.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import DataError

__all__ = ["save_checkpoint", "link_checkpoint", "load_checkpoint"]

MAGIC = b"QCKPT\n"
VERSION = 1


def save_checkpoint(path: str | Path, *, params: dict[str, np.ndarray],
                    optimizer: dict, epoch: int, phase: str,
                    config_text: str, config_hash: str,
                    symbols: list[str], rng_state: dict,
                    best_metric: float | None = None, best_epoch: int = -1) -> None:
    arrays: list[tuple[str, np.ndarray]] = []
    for name in sorted(params):
        arrays.append((f"param:{name}", params[name]))
    opt_meta = {k: v for k, v in optimizer.items() if k != "buffers"}
    for name in sorted(optimizer.get("buffers", {})):
        arrays.append((f"opt:{name}", optimizer["buffers"][name]))

    header = {
        "epoch": epoch,
        "phase": phase,
        "config_text": config_text,
        "config_hash": config_hash,
        "symbols": symbols,
        "rng_state": rng_state,
        "optimizer": opt_meta,
        "best_metric": best_metric,
        "best_epoch": best_epoch,
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    # Hashed and written chunk by chunk, so no array is copied into one
    # joined buffer.
    body = [struct.pack("<I", len(header_bytes)), header_bytes]
    body += [np.ascontiguousarray(a, dtype="<f8") for _, a in arrays]
    digest = hashlib.sha256()
    for chunk in body:
        digest.update(chunk)
    # Written beside the target and renamed over it, so a crash mid-write
    # leaves the previous checkpoint intact.
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", VERSION))
            f.write(digest.digest())
            for chunk in body:
                f.write(chunk)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def link_checkpoint(src: str | Path, dst: str | Path) -> bool:
    """Publish the checkpoint ``src`` under ``dst`` as a hard link, made
    under a temporary name and renamed over ``dst``. Returns False, with
    ``dst`` left as it was, when the file system refuses; the caller then
    saves ``dst`` in full."""
    tmp = Path(f"{dst}.tmp")
    try:
        tmp.unlink(missing_ok=True)
        os.link(src, tmp)
        os.replace(tmp, dst)
    except OSError:
        tmp.unlink(missing_ok=True)
        return False
    return True


def load_checkpoint(path: str | Path) -> dict:
    """Read and verify a checkpoint; returns header fields plus ``params``
    and ``opt_buffers`` dicts of float64 arrays. A header without
    ``best_epoch`` (written before it was stored) gives -1."""
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise DataError(f"{path}: cannot read checkpoint ({e})") from None
    if raw[:len(MAGIC)] != MAGIC:
        raise DataError(f"{path}: bad magic, not a checkpoint")
    if len(raw) < len(MAGIC) + 4 + 32 + 4:     # version, digest, header length
        raise DataError(f"{path}: truncated checkpoint")
    off = len(MAGIC)
    (version,) = struct.unpack_from("<I", raw, off)
    off += 4
    if version != VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    digest = raw[off:off + 32]
    off += 32
    body = raw[off:]
    if hashlib.sha256(body).digest() != digest:
        raise DataError(f"{path}: integrity check failed (corrupted checkpoint)")
    (hlen,) = struct.unpack_from("<I", body, 0)
    header = json.loads(body[4:4 + hlen].decode("utf-8"))
    pos = 4 + hlen
    params: dict[str, np.ndarray] = {}
    opt_buffers: dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(body, dtype="<f8", count=count, offset=pos).reshape(shape)
        pos += 8 * count
        name = entry["name"]
        if name.startswith("param:"):
            params[name[len("param:"):]] = arr.astype(np.float64)
        elif name.startswith("opt:"):
            opt_buffers[name[len("opt:"):]] = arr.astype(np.float64)
        else:
            raise DataError(f"{path}: unknown array kind {name!r}")
    if pos != len(body):
        raise DataError(f"{path}: payload size mismatch")
    out = {k: header[k] for k in ("epoch", "phase", "config_text", "config_hash",
                                  "symbols", "rng_state", "optimizer", "best_metric")}
    out["best_epoch"] = header.get("best_epoch", -1)
    out["params"] = params
    out["opt_buffers"] = opt_buffers
    return out
