"""Exception types shared across the package, and the dimension cap.

Everything derives from ValueError so callers can catch broadly; the CLI
distinguishes DimensionCapExceeded (exit 3) from other input errors (exit 2).
"""

DEFAULT_MAX_N = 8  # the CLI's default dimension cap, a policy limit


class DimensionMismatch(ValueError):
    """Operands have incompatible dimensions."""


class ZeroScale(ValueError):
    """A scale entry is zero; monomial matrices need nonzero scales."""


class UnitProductViolation(ValueError):
    """The product of the diagonal/scale entries is not 1."""


class NegativeRadicand(ValueError):
    """Even-order real root of a negative product."""


class ZeroCoordinate(ValueError):
    """A chart coordinate is zero."""


class TraceNotZero(ValueError):
    """Diagonal entries do not sum to zero."""


class NotIdentityComponent(ValueError):
    """Logarithm requested off the all-positive component."""


class NotMonomial(ValueError):
    """Matrix does not have exactly one nonzero entry per row and column."""


class NotSquare(ValueError):
    """Matrix is not square."""


class DimensionCapExceeded(ValueError):
    """Requested dimension is above the configured dimension cap."""


class MalformedInput(ValueError):
    """JSON input does not match the expected schema."""
