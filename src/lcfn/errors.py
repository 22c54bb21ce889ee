"""Exception hierarchy shared across the library."""


class LcfnError(Exception):
    """Base class for every error raised by this package."""


class GeneratorError(LcfnError):
    """The knot sequence does not describe a usable generator."""


class UnsortedKnots(GeneratorError):
    pass


class NotNormal(GeneratorError):
    """No knot reaches membership 1."""


class PlateauAtOne(GeneratorError):
    """The 1-level is an interval instead of a single point."""


class Symmetric(GeneratorError):
    """Left and right branches are mirror images, so coordinates
    would not be unique."""


class AlphaOutOfRange(LcfnError):
    pass


class GeneratorMismatch(LcfnError):
    """Operands were built over different generators."""


class ExprError(LcfnError):
    pass


class ExprSyntaxError(ExprError):
    """Malformed expression source; ``offset`` is the byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownFunction(ExprSyntaxError):
    pass


class EvalError(ExprError):
    """Expression evaluation left the real domain."""


class DivisionByZero(EvalError):
    pass


class EvalDomainError(EvalError):
    """log of a nonpositive value, sqrt of a negative value, and similar."""


class NonFiniteIntegrand(EvalError):
    """Quadrature met an inf or nan integrand value, as from an overflow
    in inline arithmetic."""


class OutsideDomain(LcfnError):
    pass


class QuadratureNonConvergent(LcfnError):
    """Tolerance not reached within the subinterval budget (for adaptive
    Simpson, its depth limit or integrand-evaluation budget)."""


class WindowOutsideDomain(LcfnError):
    pass


class CatalogBoundaryViolation(LcfnError):
    """A test function does not vanish at the interval endpoints."""
