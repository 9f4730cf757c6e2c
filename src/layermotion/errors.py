"""Exception hierarchy shared across the engine.

Exit-code mapping used by the CLI: ConfigError -> 2, MissingArtifactError and
DataError -> 3, NumericalError (and subclasses) -> 4, anything else, and an
OSError from a failed write, -> 1.
"""


class EngineError(Exception):
    """Base class for all engine errors."""


class ConfigError(EngineError):
    """Invalid or degenerate configuration (bad key, bad value, empty scene)."""


class MissingArtifactError(EngineError):
    """An upstream artifact (dataset, checkpoint, render) is absent."""


class NumericalError(EngineError):
    """A non-finite value was produced where a finite one is required."""


class RenderError(NumericalError):
    """Non-finite intermediate during rendering; message names ray/sample."""


class DomainError(EngineError):
    """An argument violates an operation's stated precondition."""


class DataError(EngineError):
    """Malformed or inconsistent on-disk data (shape mismatch, bad magic)."""
