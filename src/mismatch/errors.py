"""Exception taxonomy shared across the package.

Everything raised on purpose derives from MisMatchError so the CLI can map
failures onto exit codes in one place.
"""


class MisMatchError(Exception):
    """Base class for all deliberate errors in this package."""


class DimensionError(MisMatchError, ValueError):
    """Array rank or shape violates an operation's contract."""


class ParameterError(MisMatchError, ValueError):
    """A scalar argument is outside its legal range."""


class ContractError(MisMatchError, RuntimeError):
    """An API was called in a way its contract forbids (wrong block kind,
    missing gradients, wrong decoder count)."""


class GraphError(MisMatchError, RuntimeError):
    """Tape misuse: non-scalar loss, detached loss, or a second backward
    pass over a consumed tape."""


class FormatError(MisMatchError, ValueError):
    """An on-disk container is malformed. Carries the byte offset at which
    the problem was detected."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)
        self.offset = offset


class ConfigError(MisMatchError, ValueError):
    """An experiment, stream, or file configuration is unusable."""


class NumericalAbort(MisMatchError, RuntimeError):
    """Training hit a non-finite loss or gradient. Carries the step index."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step
