"""Exception types shared across the package, the one rule that reads
integers with them (`int_scalar`, `int_vector`, and `rng_seed` for seeds
of numpy's generators), the one check of the start rows
of packed documents (`row_offsets`) and the one packed-layout check, which
also holds every document to MAX_SEQUENCE_LEN rows."""

import numpy as np

MAX_SEQUENCE_LEN = 512


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


def int_scalar(value, what):
    """`value` as a Python int. Anything but an int or a numpy integer
    (floats, bools, strings) is an InputError, never truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{what} must be an integer, not "
                         f"{type(value).__name__}")
    return int(value)


def rng_seed(value, what="seed"):
    """`value` read by `int_scalar`; a negative seed, which numpy's
    generators refuse, is a ConfigError."""
    seed = int_scalar(value, what)
    if seed < 0:
        raise ConfigError(f"{what} must be >= 0, got {seed}")
    return seed


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


def row_offsets(offsets, rows, what):
    """`offsets`, each packed document's start row followed by the row
    count, read by `int_vector`, and the document lengths. Offsets that do
    not rise from 0 to `rows` are a ShapeError naming them `what`."""
    offsets = int_vector(offsets, what)
    lengths = np.diff(offsets)
    if (offsets.size == 0 or offsets[0] != 0 or offsets[-1] != rows
            or (lengths < 0).any()):
        raise ShapeError(f"{what} must rise from 0 to the row count {rows}")
    return offsets, lengths


def packed_layout(exits, offsets, num_layers):
    """`exits` and `offsets` of a packed corpus (as in a PackedBatch) read
    by `int_vector`, and the document lengths. Offsets that do not rise from
    0 to the row count are a ShapeError (`row_offsets`), a document of more
    than MAX_SEQUENCE_LEN rows an InputError, and an exit outside
    1..num_layers a ConfigError."""
    exits = int_vector(exits, "exit layers")
    offsets, lengths = row_offsets(offsets, exits.size, "offsets")
    if (lengths > MAX_SEQUENCE_LEN).any():
        raise InputError(f"sequence length {int(lengths.max())} exceeds "
                         f"{MAX_SEQUENCE_LEN}")
    if exits.size and exits.min() < 1:
        raise ConfigError(f"exit layer {int(exits.min())}: exit layers "
                          f"start at 1")
    if exits.size and exits.max() > num_layers:
        raise ConfigError(f"schedule assigns layer {int(exits.max())} "
                          f"beyond the model depth L={num_layers}")
    return exits, offsets, lengths
