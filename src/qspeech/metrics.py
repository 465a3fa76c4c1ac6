"""Edit distance and phoneme error rate scoring."""

from __future__ import annotations

from typing import Mapping, Sequence

from .errors import read_file

__all__ = ["edit_distance", "per", "apply_phone_map", "load_phone_map"]


def edit_distance(hyp: Sequence, ref: Sequence) -> int:
    """Levenshtein distance with unit substitution/insertion/deletion costs."""
    if len(hyp) < len(ref):
        hyp, ref = ref, hyp
    prev = list(range(len(ref) + 1))
    for i, h in enumerate(hyp, start=1):
        cur = [i] + [0] * len(ref)
        for j, r in enumerate(ref, start=1):
            cur[j] = min(prev[j] + 1,
                         cur[j - 1] + 1,
                         prev[j - 1] + (h != r))
        prev = cur
    return prev[-1]


def per(pairs: Sequence[tuple[Sequence, Sequence]]) -> float:
    """Phoneme error rate percentage over (hypothesis, reference) pairs:
    100 * total edit distance / total reference length."""
    total_ref = sum(len(ref) for _, ref in pairs)
    if total_ref == 0:
        raise ValueError("PER undefined: empty references")
    total_err = sum(edit_distance(hyp, ref) for hyp, ref in pairs)
    return 100.0 * total_err / total_ref


def apply_phone_map(labels: Sequence[str], mapping: Mapping[str, str | None]) -> list[str]:
    """Map labels through a reduction table; ``None`` targets delete."""
    out = []
    for lab in labels:
        tgt = mapping.get(lab, lab)
        if tgt is not None:
            out.append(tgt)
    return out


def load_phone_map(path) -> dict[str, str | None]:
    """Parse a phone mapping file: one ``src dst`` pair per line, a lone
    ``src`` meaning deletion. Whole lines starting with '#' are comments
    (phones like 'h#' contain the character, so no inline comments)."""
    mapping: dict[str, str | None] = {}
    for lineno, line in enumerate(read_file(path, "phone map").split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) == 1:
            mapping[parts[0]] = None
        elif len(parts) == 2:
            mapping[parts[0]] = parts[1]
        else:
            raise ValueError(f"{path}:{lineno}: expected 'src [dst]', got {line!r}")
    return mapping
