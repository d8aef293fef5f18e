"""Exception types shared across the package."""


class ConhochError(ValueError):
    """Base class for all domain errors raised by this package."""


class ModelMismatchError(ConhochError):
    """Two objects built over different flat models were combined."""


class NotWobsError(ConhochError):
    """Reduction was requested for an object outside the observable class."""


class NotCocycleError(ConhochError):
    """A decomposition was requested for a chain that is not closed."""


class NotConstraintError(ConhochError):
    """An operation required a constraint (observable-class) object."""


class NotClosedError(ConhochError):
    """A first-order cochain was expected to be a Hochschild cocycle."""


class SolveFailureError(ConhochError):
    """An exact linear solve that the degree-2 classification guarantees
    to succeed did not; this would be a counterexample and must never
    happen for valid input."""


class InvariantError(ConhochError):
    """An identity that the mathematics guarantees failed on a computed
    object; the message names the routine and the check.  Like
    SolveFailureError, this must never happen for valid input."""


class UnsupportedTagError(ConhochError):
    """A splitting subspace tag was used at an arity where it is undefined."""


class PreconditionError(ConhochError):
    """An operation's stated precondition does not hold."""
