"""Exception types shared across the package."""


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

