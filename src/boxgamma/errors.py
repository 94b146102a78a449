"""Domain errors shared across the package."""


class DomainError(Exception):
    """Base class for all errors raised by library operations."""


class DependentGenerators(DomainError):
    """Generators expected to be linearly independent are not."""


class DegenerateHeights(DomainError):
    """Height vector induces a non-simplicial lower facet."""


class NotFullDimensional(DomainError):
    """A maximal cone does not have full dimension."""


class UnboundedDegree(DomainError):
    """No degree functional with finite graded pieces is available."""


class DimensionOvershoot(DomainError):
    """Cumulative quotient dimension exceeded the normalized volume."""


class NoStabilizationWindow(DomainError):
    """Quotient ended, at its proven last degree, below the normalized volume."""


class ShadowNotSubmodule(DomainError):
    """Shadow direction selects points that are not closed under the ray action."""


class NoParticularSolution(DomainError):
    """Integer system has no solution; internal error when rays generate N."""


class NoBaseElement(DomainError):
    """Shadow quotient has no base element for a target box element."""


class NoConvergence(DomainError):
    """Jacobi sweeps for singular values did not converge within their cap."""


class SeriesOverflow(DomainError):
    """A series term, its power x^l or a reciprocal-Gamma jet exceeds the float range."""


class PhaseOverflow(DomainError):
    """A spectrum point's coordinate exp(2 pi i alpha) overflows or underflows."""


class ZeroCoordinate(DomainError):
    """Evaluation point has a zero coordinate."""


class InvalidFan(DomainError):
    """Fan data fails validation."""
