"""Exception types shared across the solver suite."""


class KbfError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(KbfError, ValueError):
    """An input has an invalid or missing value; raised where it is constructed.

    The one construction-time error: library constructors raise it (or a
    subclass) naming their own field, and the CLI reports it under that
    name.  It is also a ``ValueError``.

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


class NegativeDuration(KbfError):
    """Backward propagation of the linear flow is rejected."""


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
