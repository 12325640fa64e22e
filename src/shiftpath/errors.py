"""Exception types shared across the library."""


class ShiftPathError(Exception):
    """Base class for every library-specific error."""


class NonBinaryEntry(ShiftPathError):
    """Transition matrix contains an entry other than 0 or 1."""


class ZeroColumn(ShiftPathError):
    """A transition-matrix column is all zeros, so some symbol has no preimage."""

    def __init__(self, column):
        self.column = column
        super().__init__(f"column {column} of the transition matrix is all zeros")


class InadmissibleWord(ShiftPathError):
    """A word violates the transition matrix."""


class TableTooLarge(ShiftPathError):
    """A word table would exceed the size limit, so it is not built."""


class DepthDowngrade(ShiftPathError):
    """Attempt to represent a cylinder function at a shallower depth than it needs."""


class NegativeWeight(ShiftPathError):
    """A weight function that must be nonnegative has a negative value."""


class DepthTooShallow(ShiftPathError):
    """A measure stored at finite depth cannot resolve the requested quantity."""


class NotSubNormalized(ShiftPathError):
    """The weight is not sub-normalized.

    Some value of the transferred constant T1 exceeds 1 by more than
    `invariant.NORMALIZED_SLACK`, or is NaN.
    """


class DegenerateH(ShiftPathError):
    """h is zero, as no closed class of the operator keeps its mass, or the base has no mass."""


class NotFixedPoint(ShiftPathError):
    """A measure claimed to be fixed under the weighted transformer is not."""

    def __init__(self, residual, tol):
        self.residual = residual
        self.tol = tol
        super().__init__(f"fixed-point residual {residual:.3e} exceeds tolerance {tol:.1e}")


class ZeroMassConditioning(ShiftPathError):
    """A sampled trajectory reached a cylinder of mass zero."""


class TooFewSamples(ShiftPathError, ValueError):
    """A Monte Carlo check was given too few samples to be meaningful."""


class FilterMismatch(ShiftPathError):
    """The squared modulus of the filter does not reproduce the weight."""


class ConfigError(ShiftPathError):
    """A configuration document is malformed or inconsistent."""
