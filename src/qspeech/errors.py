"""Exception types shared across the package, and the one reader and
writer of the files a user names, which report any failure as a ``DataError``.

The CLI maps these onto exit codes: usage errors exit 1, ``DataError``
exits 2, ``NumericalError`` exits 3.
"""

from pathlib import Path


class DataError(Exception):
    """Malformed or inconsistent external data (manifests, files, configs)."""


class ConfigError(DataError):
    """Invalid configuration value; message names the offending key."""


def check_config(section: str, cfg, rules) -> None:
    """Raise ``ConfigError`` for the first ``(key, ok, need)`` rule whose ``ok`` is false."""
    for key, ok, need in rules:
        if not ok:
            raise ConfigError(f"{section}.{key}: must be {need}, got {getattr(cfg, key)!r}")


def read_file(path, what: str, binary: bool = False) -> str | bytes:
    """The whole file at ``path``: bytes, or UTF-8 text with universal
    newlines. A file that cannot be opened, read or decoded raises
    ``DataError`` naming the file and ``what`` it should hold."""
    try:
        p = Path(path)
        return p.read_bytes() if binary else p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"{path}: cannot read {what} ({e})") from None


def write_file(path, data: str | bytes, what: str) -> None:
    """Write ``data`` to ``path``, text as UTF-8. A failed write (a missing
    directory, a name too long, a full disk) raises ``DataError`` naming it."""
    try:
        Path(path).write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
    except OSError as e:
        raise DataError(f"{path}: cannot write {what} ({e.strerror})") from None


class NumericalError(Exception):
    """Non-finite values where finite ones are required (e.g. gradients)."""


class InfeasibleAlignment(ValueError):
    """Raised when a target sequence cannot be aligned to the given frames."""
