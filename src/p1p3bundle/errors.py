"""Exception types shared across the package, and the int check that
raises one."""


class ArtifactError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(ArtifactError):
    """An argument violates a documented precondition."""


class RingMismatchError(ArtifactError):
    """Operands live in different intersection rings."""


class DegreeMismatchError(ArtifactError):
    """A cycle class has the wrong graded degree."""


class CapExceededError(ArtifactError):
    """Group closure did not terminate within the element cap."""


class RankTooHighError(ArtifactError):
    """Pencil has generic rank above the supported bound."""


class RankMismatchError(ArtifactError):
    """Pencil does not have the generic rank an operation requires."""


class InconsistentError(ArtifactError):
    """No feasible assignment exists (exact sequence or section data)."""


class SolverError(ArtifactError):
    """The double-structure solver found no solution or several."""


class UnknownClaimError(ArtifactError):
    """A claim id passed on the command line is not registered."""


class PencilParseError(ArtifactError):
    """Malformed pencil input file."""


def require_ints(x, y):
    """Raise InvalidParameterError unless x and y are both ints.  A bool, a
    Fraction or a float is refused: a float such as 0.1 is not the rational
    it shows."""
    if type(x) is not int or type(y) is not int:
        raise InvalidParameterError("expected ints, got %s" % ((x, y),))
