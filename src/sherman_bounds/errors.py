"""Exception hierarchy shared by every module in the package.

All errors raised intentionally by this package derive from
:class:`ShermanBoundsError`, so callers can catch one type.  Within that,
:class:`DomainError` groups violations of mathematical preconditions
(bad intervals, unverified majorization, out-of-range ratios, ...),
while parsing, validation, and quadrature problems get their own
branches because the command line maps them to distinct exit codes.
"""


class ShermanBoundsError(Exception):
    """Base class for every error raised by this package."""


class DomainError(ShermanBoundsError):
    """A mathematical precondition on the inputs does not hold."""


class EmptyPoints(DomainError):
    """An operation received an empty point list."""


class MissingDerivative(DomainError):
    """A derivative of higher order than the function spec provides was requested."""


class DegenerateInterval(DomainError):
    """The working interval has (numerically) zero width or is malformed."""


class PointOutOfInterval(DomainError):
    """A data point lies outside the declared working interval."""


class LengthMismatch(DomainError):
    """Two vectors that must have equal length do not."""


class DimensionMismatch(DomainError):
    """A matrix shape is incompatible with the vectors it should act on."""


class NotMajorized(DomainError):
    """A majorization relation required by the operation fails."""


class MajorizationNotVerified(DomainError):
    """A bound was requested on a pair whose majorization was not verified."""


class WeightsNotNormalized(DomainError):
    """Weights that must sum to one do not."""


class ModulusNotCertified(DomainError):
    """A strong-convexity modulus larger than anything certified was requested."""


class KernelConditionIndefinite(DomainError):
    """The Peano-kernel weight changes sign, so no one-sided bound follows."""


class RatioOutOfDomain(DomainError):
    """A likelihood ratio falls outside the generator's interval."""


class ZeroAggregateWeight(DomainError):
    """An aggregation row has zero total weight, so its ratio is undefined."""


class QuadratureFailure(ShermanBoundsError):
    """Numerical integration did not converge to the requested tolerance."""


class ParseError(ShermanBoundsError):
    """An input file could not be parsed."""


class ValidationError(ShermanBoundsError):
    """Parsed input violates a structural invariant."""
