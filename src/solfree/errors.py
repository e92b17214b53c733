"""Exception types shared across the package."""


class SolfreeError(Exception):
    """Base class for every package-specific error."""


class MalformedEquation(SolfreeError):
    """Equation text does not match the accepted grammar."""


class InvariantViolation(SolfreeError):
    """A precondition failed: gcd != 1, translation-invariant equation,
    nonpositive coefficient, empty input, a residue modulus q that divides
    s, a solution window that escapes [1, n], or one of the same flavour.
    Also raised by the guards on states that cannot happen (a scan that
    finds nothing, a vanishing denominator, a closed-form size that
    disagrees with the set built, injection rules that diverge from their
    case analysis): those signal an implementation bug."""


class Infeasible(SolfreeError):
    """No interval sequence satisfies the recurrence for the requested k, xi,
    or k > 1 on a form with two positive coefficients."""


class AvoidanceCheckFailed(SolfreeError):
    """A set that must avoid the equation contains a solution.

    Raised by the one gate, :func:`~solfree.equations.require_avoiding`,
    whatever the set: an input (``interval_compression``,
    ``solution_window_deficiency``, ``injection_certificate``), a
    construction, a compression stage, a search witness or a residue set of
    ``rho_m``.  The message names the set and the first solution in it.  On
    an input it is the caller's error; on anything the package built it is
    a bug, and it must never fire in release tests.
    """


class BudgetExceeded(SolfreeError):
    """A node or wall-time cap was hit before the search finished."""
