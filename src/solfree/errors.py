"""Exception types shared across the package."""


class SolfreeError(Exception):
    """Base class for every package-specific error."""


class MalformedEquation(SolfreeError):
    """Equation text does not match the accepted grammar."""


class InvariantViolation(SolfreeError):
    """A domain invariant failed: gcd != 1, translation-invariant equation,
    nonpositive coefficient, or a precondition of the same flavour."""


class QDividesS(SolfreeError):
    """The residue construction needs a modulus q that does not divide s."""


class Infeasible(SolfreeError):
    """No interval sequence satisfies the recurrence for the requested k, xi."""


class AvoidanceCheckFailed(SolfreeError):
    """A construction produced a set that fails the avoidance checker.

    Raised by the gate on the output of ``constructions``, ``family2`` and
    the interval-compression stages of ``family1``.  This is a bug guard: it
    must never fire in release tests.
    """


class BudgetExceeded(SolfreeError):
    """A node or wall-time cap was hit before the search finished."""


class EmptyInput(SolfreeError):
    """An operation that needs a nonempty set received an empty one."""


class NotAvoiding(SolfreeError):
    """An input set was required to avoid the equation but does not."""


class ScanFailed(SolfreeError):
    """An upward scan did not find the element it was guaranteed to find."""


class IntervalOutOfRange(SolfreeError):
    """A solution window does not lie inside [1, n]."""


class CaseRuleUnmatched(SolfreeError):
    """The injection rules diverged from their case analysis.

    This signals an implementation bug, never a property of the inputs;
    it is kept as a distinct type so the tests can use it as an oracle.
    """


class DegenerateDenominator(SolfreeError):
    """A density formula was evaluated where its denominator vanishes."""
