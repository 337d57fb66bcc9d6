"""Exception types shared across the package.

The CLI maps these onto exit codes: parse/IO problems give 1, unsupported
inputs give 2, and a failed internal check or NumericalError gives 3.
"""


class EigenframeError(Exception):
    pass


class Graph6Error(EigenframeError):
    """Malformed graph6 input; carries the byte offset of the problem."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class UnsupportedInputError(EigenframeError):
    """Input outside the supported domain (irrational tau on the exact
    backend, non-prime q, n > 5 survey)."""


class ResourceLimitError(UnsupportedInputError):
    """Construction would exceed the hard vertex cap."""


class NumericalError(EigenframeError):
    """Floating-point backend failed to produce a trustworthy answer."""


class InternalCheckError(EigenframeError):
    """A result failed its own verification; indicates a bug, not bad input."""
