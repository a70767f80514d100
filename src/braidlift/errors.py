"""Exception hierarchy shared by the whole package.

The CLI maps these onto exit codes, so raising the right class matters:
ParseError -> 2, GuardExceeded -> 4, InvariantViolation -> 5.
"""

#: Ceiling for whole-group enumeration, subgroup closure and every Budget,
#: kept beside GuardExceeded so the CLI reads it without loading ``monomial``.
#: Every module reads it here when a guard runs, so one patch moves them all.
ENUMERATION_GUARD = 10**6


class BraidLiftError(Exception):
    """Base class for all errors raised by braidlift."""


class ParseError(BraidLiftError, ValueError):
    """A descriptor, element or hyperplane string could not be parsed."""


class MismatchError(BraidLiftError, ValueError):
    """Operands belong to different groups G(de, e, r)."""


class GuardExceeded(BraidLiftError):
    """A brute-force enumeration would exceed the configured size guard."""


class Budget:
    """Steps left under ENUMERATION_GUARD to work whose size is known up front.

    ``spend`` is called before the work it charges and raises GuardExceeded,
    without spending, once the steps would pass the guard.  The guard is read
    when the budget is made.
    """

    __slots__ = ("total", "left")

    def __init__(self) -> None:
        self.total = self.left = ENUMERATION_GUARD

    def spend(self, steps: int, what: str) -> None:
        if steps > self.left:
            raise GuardExceeded(f"{what} exceed the guard {self.total}")
        self.left -= steps


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
