"""Exception types shared across the package."""


class SolfreeError(Exception):
    """Base class for every package-specific error."""


class MalformedEquation(SolfreeError):
    """Equation text does not match the accepted grammar."""


class InvariantViolation(SolfreeError):
    """A domain invariant failed: gcd != 1, translation-invariant equation,
    nonpositive coefficient, empty input, or a precondition of the same
    flavour.  Also raised by the guards on states that cannot happen (a scan
    that finds nothing, a vanishing denominator, injection rules that diverge
    from their case analysis): those signal an implementation bug."""


class QDividesS(SolfreeError):
    """The residue construction needs a modulus q that does not divide s."""


class Infeasible(SolfreeError):
    """No interval sequence satisfies the recurrence for the requested k, xi,
    or k > 1 on a form with two positive coefficients."""


class AvoidanceCheckFailed(SolfreeError):
    """A construction produced a set that fails the avoidance checker.

    Raised by the gate on the output of ``constructions``, ``family2`` and
    the interval-compression stages of ``family1``.  This is a bug guard: it
    must never fire in release tests.
    """


class BudgetExceeded(SolfreeError):
    """A node or wall-time cap was hit before the search finished."""


class NotAvoiding(SolfreeError):
    """An input set was required to avoid the equation but does not."""


class IntervalOutOfRange(SolfreeError):
    """A solution window does not lie inside [1, n]."""
