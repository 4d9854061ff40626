"""Error taxonomy shared by the library and the CLI exit codes."""


class FarfieldError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class ConfigError(FarfieldError):
    """Invalid or inconsistent configuration."""

    exit_code = 2


class DataError(FarfieldError):
    """Missing or malformed input data."""

    exit_code = 3


class NumericalError(FarfieldError):
    """Numerical failure that regularization could not recover from."""

    exit_code = 4


def check_seed(seed: int) -> None:
    """A random seed is a non-negative integer, as numpy's default_rng takes it."""
    if not seed >= 0:
        raise DataError(f"seed must be a non-negative integer, got {seed}")
