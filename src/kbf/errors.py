"""Exception types shared across the solver suite.

The ``_check_*`` functions are every construction-time rule on a single
value.  Each raises the caller's own keyed error class under the caller's
key, except ``_check_length``, whose DimensionMismatch names no key.
"""

import math as _math
import numbers as _numbers


class KbfError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(KbfError, ValueError):
    """An input has an invalid or missing value; raised where it is constructed.

    The one construction-time error: library constructors and functions
    raise it, or one of its subclasses ``ConfigError``, ``InvalidGrid`` and
    ``NegativeDuration``, naming their own field or argument, and the CLI
    reports it under that name.  The rules on a single value are the
    ``_check_*`` functions of this module.  It is also a ``ValueError``.

    Attributes
    ----------
    key : name of the offending field or config key
    message : the complaint, without the key
    """

    def __init__(self, key, message):
        self.key = key
        self.message = message
        super().__init__(f"{key}: {message}")


class InvalidGrid(ValidationError):
    """Grid construction arguments violate the grid invariants."""


class DimensionMismatch(KbfError):
    """Vector length does not match the grid it is paired with."""


class NonFiniteInput(KbfError):
    """Input contains NaN or infinity."""


class NotRealRepresentable(KbfError):
    """Coefficient vector is too far from Hermitian symmetry to denote real data."""


class InvalidTestFunction(KbfError):
    """Unknown identifier for the built-in periodic test functions."""


class GridMismatch(KbfError):
    """Operands were built on different grids."""


class NonFiniteState(KbfError):
    """A time-stepping stage produced NaN or infinity (blow-up signal)."""


class BlowUp(KbfError):
    """Solution blew up during time integration.

    Attributes
    ----------
    step : index of the step at which the guard tripped
    time : simulation time at that step
    """

    def __init__(self, step, time, message=None):
        self.step = step
        self.time = time
        super().__init__(message or f"blow-up detected at step {step}, t={time:g}")


class ConfigError(ValidationError):
    """Solve configuration is inconsistent (e.g. non-integral step count)."""


class NegativeDuration(ConfigError):
    """Backward propagation of the linear flow is rejected; keyed ``t``."""


class NonPositiveError(KbfError):
    """Order estimation requires strictly positive error values."""


class ParseError(KbfError):
    """Config text could not be parsed.

    Attributes
    ----------
    line : 1-based line number of the offending line
    """

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


class FileFormatError(KbfError):
    """On-disk data file is malformed."""


class ReferenceNotConverged(KbfError):
    """The self-verifying reference solve could not meet its error tolerance."""


class SingularSolution(KbfError):
    """Closed-form solution hits a singularity (finite-time blow-up)."""


def _check_int(error, key, value, minimum=None) -> None:
    """Raise ``error(key, ...)`` unless ``value`` is an integer, at least ``minimum`` if given."""
    # a bool is an Integral, but True is no count, and it would echo as "True"
    integral = isinstance(value, _numbers.Integral) and not isinstance(value, bool)
    if not integral or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise error(key, f"must be an integer{bound}, got {value!r}")


def _check_real(error, key, value, lower=None, strict=False) -> None:
    """Raise ``error(key, ...)`` unless ``value`` is a finite real ``>= lower`` (> if strict)."""
    ok = isinstance(value, _numbers.Real) and not isinstance(value, bool) and _math.isfinite(value)
    if ok and lower is not None:
        ok = value > lower if strict else value >= lower
    if not ok:
        bound = "" if lower is None else f" {'>' if strict else '>='} {lower}"
        raise error(key, f"must be a finite real number{bound}, got {value!r}")


def _check_choice(error, key, value, choices) -> None:
    """Raise ``error(key, ...)`` unless ``value`` is one of ``choices``."""
    if value not in choices:
        raise error(key, f"must be one of {choices}, got {value!r}")


def _check_line(error, key, value) -> None:
    """Raise ``error(key, ...)`` unless ``value`` is text of one line without outer whitespace.

    Such a value survives a ``key = value`` line: written and read back
    stripped, it parses to itself.
    """
    if not isinstance(value, str) or value != value.strip() or len(value.splitlines()) > 1:
        raise error(key, f"must be one line without outer whitespace, got {value!r}")


def _check_length(what, array, n) -> None:
    """Raise DimensionMismatch unless ``array`` has shape ``(n,)``, one entry per grid point."""
    if array.shape != (n,):
        raise DimensionMismatch(f"{what} of shape {array.shape}, not ({n},)")
