"""Exception types shared across the toolkit.

Every failure mode that callers are expected to branch on gets its own
class; plain ``ValueError`` is reserved for malformed arguments that
indicate a programming error rather than a property of the input system.
"""

import os


class CarlemanLabError(Exception):
    """Base class for all toolkit errors."""


class NonSquareError(CarlemanLabError):
    """A square matrix was required."""


class NumericalBreakdownError(CarlemanLabError):
    """An iterative kernel (eigensolver, linear solve) failed to converge."""


class NotPositiveDefiniteError(CarlemanLabError):
    """A Hermitian positive-definite weight matrix was required."""


class DimensionMismatchError(CarlemanLabError):
    """Operand dimensions are inconsistent."""


class NotStableError(CarlemanLabError):
    """The linear part has spectral abscissa >= 0; no Lyapunov witness exists."""


class SingularSystemError(CarlemanLabError):
    """A linear system that should be regular turned out singular."""


class EmptyInputError(CarlemanLabError):
    """A nonempty collection was required."""


class MatrixOverflowError(CarlemanLabError):
    """Result magnitude exceeds the representable floating-point range."""


class NonPositiveGammaError(CarlemanLabError):
    """Rescaling parameters must be positive and finite."""


class StepSizeUnderflowError(CarlemanLabError):
    """Adaptive integration collapsed its step; signals finite-time escape."""


class NonFiniteStateError(CarlemanLabError):
    """Integration produced NaN or Inf state entries."""


class DimensionCapError(CarlemanLabError):
    """A Carleman lift would exceed the configured dimension cap."""

    def __init__(self, required: int, cap: int):
        super().__init__(
            f"Carleman lift dimension {required} (full coordinates) exceeds cap {cap}; "
            "raise the cap explicitly to proceed"
        )
        self.required = required
        self.cap = cap


def dense_cap() -> int:
    """Lift-dimension cap, 20 000 unless the CARLEMAN_LAB_CAP env var sets it."""
    raw = os.environ.get("CARLEMAN_LAB_CAP")
    return int(raw) if raw else 20_000


def check_cap(dim: int, cap: int | None = None) -> None:
    """Raise :class:`DimensionCapError` when ``dim`` exceeds ``cap`` (default :func:`dense_cap`)."""
    cap = dense_cap() if cap is None else cap
    if dim > cap:
        raise DimensionCapError(dim, cap)


class ZeroInitialStateError(CarlemanLabError):
    """R-numbers are undefined for x(0) = 0."""


class NonDiagonalizableError(CarlemanLabError):
    """The linear part is (numerically) defective; certification declined."""


class UncertifiedError(CarlemanLabError):
    """An error bound was requested from an uncertified certificate."""


class NoDissipativeModeError(CarlemanLabError):
    """All eigenvalues are marginal; the real spectral gap is undefined."""


class PositiveRealPartError(CarlemanLabError):
    """Some eigenvalue has strictly positive real part."""


class ZeroDriveError(CarlemanLabError):
    """The drive vector is zero; the driving embedding is unnecessary."""


class ZeroNonlinearityError(CarlemanLabError):
    """The quadratic term vanishes; the requested quantity is undefined."""


class ZeroAncillaSeedError(CarlemanLabError):
    """Ancilla initial values must be nonzero."""


class DriveNotSupportedError(CarlemanLabError):
    """The operation requires a driftless system (F0 = 0)."""


class NotPoincareError(CarlemanLabError):
    """The spectrum does not lie in the Poincare domain."""


class ResonanceFoundError(CarlemanLabError):
    """A resonant eigenvalue combination was detected."""


class ResonantDenominatorError(CarlemanLabError):
    """A reciprocal eigenvalue-combination denominator vanishes."""

    def __init__(self, message, offending=None):
        super().__init__(message)
        self.offending = offending


class CapExceededError(CarlemanLabError):
    """A combinatorial enumeration cap or a solver's work budget was exceeded."""


class FrequencyTooSmallError(CarlemanLabError):
    """The oscillation frequency is too small for the spectral band condition."""


class WrongSignError(CarlemanLabError):
    """A sign condition on the inputs is violated."""


class SingularQError(CarlemanLabError):
    """The supplied eigenbasis matrix is singular."""


class UnknownFixtureError(CarlemanLabError):
    """No fixture with the requested name exists."""


class ParamOutOfRangeError(CarlemanLabError):
    """A fixture parameter is outside its documented range."""
