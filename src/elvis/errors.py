"""Exception hierarchy for the elvis library."""


class ElvisError(Exception):
    """Base class for all errors raised by this library."""


class ValidationError(ElvisError):
    """A velocity set or problem description violates an invariant."""


class NonConvexError(ValidationError):
    """Polygon vertices are not in strictly convex counterclockwise order."""


class OriginNotInteriorError(ValidationError):
    """The origin does not lie strictly inside the velocity set."""


class DegenerateDimensionsError(ValidationError):
    """Non-positive or non-finite shape parameters, or fewer than 3 distinct polygon vertices."""


class ZeroVectorError(ElvisError):
    """An operation that needs a direction was given the zero vector."""


class NotIsotropicError(ElvisError):
    """Classical refraction angles are only defined for ball velocity sets."""


class BracketExpansionFailedError(ElvisError):
    """Bracket doubling never achieved the required residual sign condition, or the
    bracket's width or a bisection midpoint it reaches overflows the float range."""


class ProblemFormatError(ElvisError):
    """A problem or sweep file could not be parsed."""
