"""Exception types shared across the package.

The CLI maps these onto exit codes: usage errors exit 1, ``DataError``
exits 2, ``NumericalError`` exits 3.
"""


class DataError(Exception):
    """Malformed or inconsistent external data (manifests, files, configs)."""


class ConfigError(DataError):
    """Invalid configuration value; message names the offending key."""


def check_config(section: str, cfg, rules) -> None:
    """Raise ``ConfigError`` for the first ``(key, ok, need)`` rule whose ``ok`` is false."""
    for key, ok, need in rules:
        if not ok:
            raise ConfigError(f"{section}.{key}: must be {need}, got {getattr(cfg, key)!r}")


class NumericalError(Exception):
    """Non-finite values where finite ones are required (e.g. gradients)."""


class InfeasibleAlignment(ValueError):
    """Raised when a target sequence cannot be aligned to the given frames."""
