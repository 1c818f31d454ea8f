"""Exception hierarchy shared by every sinkdiv module.

All library errors derive from :class:`SinkdivError` so callers can catch one
base class. Input-related errors additionally subclass the matching builtin
(``ValueError`` / ``OSError``) to stay idiomatic. Each class carries the
command-line exit code of its kind of failure: 2 when the input is at fault,
3 for numerical failures.
"""

from __future__ import annotations


class SinkdivError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class InvalidInput(SinkdivError, ValueError):
    """An argument is malformed: NaN/inf entries, negative weights,
    mismatched shapes, or an out-of-range parameter."""


class DegenerateMeasure(SinkdivError, ValueError):
    """A measure ended up with no support, e.g. every weight was zero."""


class FormatError(SinkdivError, ValueError):
    """A file was readable but its content does not parse as a measure."""


class IoError(SinkdivError, OSError):
    """A file could not be read or written."""


class TooLarge(SinkdivError, ValueError):
    """A dense intermediate would exceed the configured size guard."""


class NumericalFailure(SinkdivError, ArithmeticError):
    """An iteration produced non-finite values and cannot continue."""

    exit_code = 3


class GradientUnreliable(SinkdivError):
    """A gradient was requested from a solver state that did not converge.

    The partially computed gradient (when available) is attached as
    ``partial`` so callers can inspect or salvage it.
    """

    exit_code = 3

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial
