"""Exception hierarchy shared by the whole package.

The CLI maps these onto exit codes, so raising the right class matters:
ParseError -> 2, GuardExceeded -> 4, InvariantViolation -> 5.
"""

#: Default ceiling for whole-group enumeration and subgroup closure, kept
#: beside GuardExceeded so the CLI reads it without loading ``monomial``.
ENUMERATION_GUARD = 10**6


class BraidLiftError(Exception):
    """Base class for all errors raised by braidlift."""


class ParseError(BraidLiftError, ValueError):
    """A descriptor, element or hyperplane string could not be parsed."""


class MismatchError(BraidLiftError, ValueError):
    """Operands belong to different groups G(de, e, r)."""


class GuardExceeded(BraidLiftError):
    """A brute-force enumeration would exceed the configured size guard."""


class InvariantViolation(BraidLiftError):
    """An internal cross-check failed.

    These checks encode proved statements (two routes to the same answer must
    agree); reaching this error means a bug, not a bad input.
    """


class NoIntegralSolution(InvariantViolation):
    """An integral cocycle system turned out unsolvable.

    For a valid 1-cocycle into a permutation module this can never happen;
    hitting it on verified input would falsify the vanishing of H^1.
    """
