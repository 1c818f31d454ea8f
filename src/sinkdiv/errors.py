"""Exception hierarchy shared by every sinkdiv module, and its input checks.

All library errors derive from :class:`SinkdivError` so callers can catch one
base class. Input-related errors additionally subclass the matching builtin
(``ValueError`` / ``OSError``) to stay idiomatic. Each class carries the
command-line exit code of its kind of failure: 2 when the input is at fault,
3 for numerical failures.

Every module checks the counts, scales and arrays that callers pass with the
private helpers below, so a malformed argument raises :class:`InvalidInput`
naming it. This module imports nothing from the package.
"""

from __future__ import annotations

import math

import numpy as np


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


def _count(name: str, value, low: int | None = None) -> int:
    """``value``, an integer (NumPy's, but no ``bool``) of at least ``low`` if given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise InvalidInput(f"{name} must be >= {low}, got {value}")
    return int(value)


def _scale(name: str, value, zero: bool = False):
    """``value``, a finite real number but no ``bool``, above 0, or at least 0 with ``zero``."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if not (real and math.isfinite(value) and (value >= 0 if zero else value > 0)):
        sign = "nonnegative" if zero else "positive"
        raise InvalidInput(f"{name} must be {sign} and finite, got {value!r}")
    return value


def _floats(name: str, value, finite: bool = True) -> np.ndarray:
    """``value`` as a float64 array, checked finite unless ``finite`` is False."""
    # refused before the cast, which would drop the imaginary part with a warning
    if getattr(getattr(value, "dtype", None), "kind", None) == "c":
        raise InvalidInput(f"{name} must be real, got dtype {value.dtype}")
    try:
        a = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"{name} must be an array of numbers: {exc}") from exc
    # counting is twice as fast as .all() on the short vectors of a solve
    if finite and np.count_nonzero(np.isfinite(a)) != a.size:
        raise InvalidInput(f"{name} contains NaN or infinite entries")
    return a


def _check_points(name: str, arr) -> np.ndarray:
    a = _floats(name, arr)
    if a.ndim != 2 or a.shape[1] == 0:
        raise InvalidInput(f"{name} must be (n, d) with d >= 1, got shape {a.shape}")
    if a.shape[0] == 0:
        raise DegenerateMeasure(f"{name} has no points")
    return a


def _check_vector(name: str, arr, length: int) -> np.ndarray:
    a = _floats(name, arr)
    if a.shape != (length,):
        raise InvalidInput(f"{name} must have shape ({length},), got {a.shape}")
    return a
