"""Exception types shared across the package."""


class AlgebroidError(Exception):
    """Base class for every error raised by algebroidlab."""


class ExpressionSyntaxError(AlgebroidError):
    """Malformed polynomial expression text."""


class UnknownVariableError(AlgebroidError):
    """Expression names a variable that is not a chart coordinate."""


class DimensionMismatchError(AlgebroidError):
    """Point, chart, or component count does not match the expected dimension."""


class ExponentTooLargeError(AlgebroidError):
    """A monomial exponent exceeds the limit on every exponent, 32,767."""


class ShapeMismatchError(AlgebroidError):
    """Array of structure data has the wrong shape."""


class AntisymmetryViolationError(AlgebroidError):
    """Bracket tensor is not antisymmetric in its upper index pair."""


class AlgebroidMismatchError(AlgebroidError):
    """Operands belong to different algebroid instances."""


class JacobiViolationError(AlgebroidError):
    """Structure constants fail the Jacobi identity."""


class NotABivectorError(AlgebroidError):
    """Poisson input matrix is not antisymmetric."""


class NotClosedError(AlgebroidError):
    """Kernel at a point is not closed under the induced bracket."""


class BundleMismatchError(AlgebroidError):
    """Connection or tensor used on the wrong bundle."""


class NotInvertibleError(AlgebroidError):
    """Frame change has no polynomial inverse, or a weight vanishes."""


class NotTangentError(AlgebroidError):
    """Path violates the anchor-tangency condition."""


class NotALoopError(AlgebroidError):
    """Base path is not closed."""


class NotAFixedPointError(AlgebroidError):
    """Action fields do not vanish at the origin."""


class ToleranceNotMetError(AlgebroidError):
    """Integrator could not reach the requested error estimate."""


class BadOrderError(AlgebroidError):
    """Invalid order for an invariant polynomial or secondary class."""


class ClosednessFailureError(AlgebroidError):
    """A form that must be closed failed its closedness self-check."""
