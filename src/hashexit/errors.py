"""Exception types shared across the package, and the one rule that reads
integer vectors with them (`int_vector`)."""

import numpy as np


class HashExitError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(HashExitError, ValueError):
    """Operands have incompatible or malformed shapes."""


class ConfigError(HashExitError, ValueError):
    """A parameter combination is invalid (e.g. more buckets than layers)."""


class InputError(HashExitError, ValueError):
    """Runtime input is unusable (empty sequence, empty corpus, ...)."""


class ParseError(HashExitError, ValueError):
    """An input artifact (table, model, corpus file) is malformed."""


class TrainingError(HashExitError, RuntimeError):
    """Training diverged (non-finite loss)."""


def int_vector(values, what):
    """`values` as an int64 vector. Anything but a flat sequence is a
    ShapeError, and a non-empty one of another dtype than an integer one
    (floats, strings, bools) is an InputError, never truncated."""
    try:
        vector = np.asarray(values)
    except ValueError:  # ragged nesting
        vector = None
    if vector is None or vector.ndim != 1:
        raise ShapeError(f"{what} must be a flat sequence")
    if vector.size and vector.dtype.kind not in "iu":
        raise InputError(f"{what} must be integers, not {vector.dtype}")
    return vector.astype(np.int64, copy=False)
