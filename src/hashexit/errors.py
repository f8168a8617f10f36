"""Exception types shared across the package, and the reader that turns a
text file's decode failure into one of them."""

from contextlib import contextmanager


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


@contextmanager
def open_text(path):
    """`path` opened for reading as UTF-8; bytes that do not decode raise
    ParseError instead of UnicodeDecodeError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc.reason}") from None
