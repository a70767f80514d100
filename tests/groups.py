"""Naive powers, inverses and conjugacy classes of monomial elements, for the tests.

The library multiplies elements and computes their orders; it has no power
or inverse.  These build both from products alone, as references: w^n is
n mod order(w) repeated products, and the inverse is w^(order(w) - 1).
"""

from braidlift import permutations as perms
from braidlift.monomial import identity


def power(w, n):
    """w^n for any integer n, as (n mod order(w)) repeated products."""
    result = identity(w.descriptor)
    for _ in range(n % w.order()):
        result = result * w
    return result


def inverse(w):
    return power(w, -1)


def cycle_class(w):
    """The multiset of (cycle length, cycle exponent sum) that names w's
    conjugacy class in G(de, 1, r), read off ``permutations.cycles``."""
    de = w.descriptor.de
    return tuple(sorted((len(c), sum(w.exponents[i] for i in c) % de)
                        for c in perms.cycles(w.sigma)))
