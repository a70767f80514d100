"""Classification predicates: torsion-free quotients, odd-order lifting,
free actions on the arrangement, Frobenius coset actions, Cayley embeddings.

The closed-form predicates (``is_bieberbach_series``, ``has_odd_lift_property``)
are tested against brute-force scans built only on the lifting oracle, so
the two routes stay independent.  ``has_free_cycle_type`` reads a cycle
type, and ``frobenius_coset_action`` returns the types it measured and
checked, so no element's cycles are computed twice.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence

from . import errors
from . import permutations as perms
from .arrangement import hyperplane_count, orbit_count
from .errors import Budget, GuardExceeded, InvariantViolation
from .lifting import oracle_verdicts
from .monomial import (
    GroupDescriptor,
    MonomialElement,
    Subgroup,
    class_representatives,
    closure,
    from_permutation,
)

#: Shephard-Todd names of the exceptional irreducible groups whose
#: quasi-abelianized braid group is torsion-free (Bieberbach).
EXCEPTIONAL_BIEBERBACH = frozenset(
    {"G_4", "G_5", "G_6", "G_7", "G_10", "G_11", "G_14", "G_15", "G_18", "G_19", "G_25", "G_26"}
)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


def is_bieberbach_series(descriptor: GroupDescriptor) -> bool:
    """Closed form: the quotient for G(de, e, r) is torsion-free iff
    r = 1, or r = 2 with d >= 2, or r = 2 with d = 1 and e a power of 2."""
    d, e, r = descriptor.d, descriptor.e, descriptor.r
    return r == 1 or (r == 2 and (d >= 2 or _is_power_of_two(e)))


def bieberbach_bruteforce(descriptor: GroupDescriptor, budget: Budget | None = None) -> bool:
    """Oracle route: torsion-free iff no nonidentity element lifts.

    Only elements of prime order are handed to the oracle.  The oracle's
    condition ("every power of w that lies in N_H also lies in C_H") passes
    to every power of w, since the powers of w^k are powers of w.  So if some
    w != 1 of order n lifts, then w^(n/p) lifts for each prime p | n, and
    w^(n/p) has order p; an element of prime order is never the identity.

    Only one element per G(de, 1, r)-conjugacy class is handed to the
    oracle (``class_representatives``).  G(de, 1, r) normalizes G(de, e, r)
    and, being monomial, permutes its arrangement: swap hyperplanes go to
    swap hyperplanes and coordinate hyperplanes (present iff d >= 2) to
    coordinate hyperplanes.  If u lies in N_H and acts on H^perp by the
    scalar s, then t u t^-1 lies in N_tH and acts on (tH)^perp by the same
    s.  So w lifts iff t w t^-1 lifts, and conjugates share their order.

    Each element's verdict walk (``oracle_verdicts``) charges ``budget``,
    when one is given, |A| steps for each power it scans, up to w's first
    violating power.  Raises
    GuardExceeded when |G| > ENUMERATION_GUARD, which also bounds the class
    walk: it builds at most 3|G| partial and whole multisets
    (``class_representatives``).
    """
    if descriptor.order_exceeds(errors.ENUMERATION_GUARD):
        raise GuardExceeded(f"{descriptor} has more than {errors.ENUMERATION_GUARD} elements")
    prime: dict[int, bool] = {}  # each distinct order is tested once
    for w in class_representatives(descriptor):
        if (n := w.order()) not in prime:
            prime[n] = _is_prime(n)
        if prime[n] and oracle_verdicts((w,), budget)[w]:
            return False
    return True


def has_odd_lift_property(descriptor: GroupDescriptor) -> bool:
    """Whether every odd-order element of G(de, e, r) has a finite-order lift.

    Holds exactly for: rank 1 with d a power of 2; d and e both powers of 2
    (any rank, which covers the symmetric groups d = e = 1); and the dihedral
    family G(e, e, 2) with e >= 3.
    """
    d, e, r = descriptor.d, descriptor.e, descriptor.r
    if r == 1:
        return _is_power_of_two(d)
    if _is_power_of_two(d) and _is_power_of_two(e):
        return True
    return r == 2 and d == 1 and e >= 3


def has_free_cycle_type(lengths: Sequence[int]) -> bool:
    """Whether a cycle type, fixed points included, forces free action on 2-subsets.

    True for the identity's type, and otherwise iff all nontrivial cycles share
    one odd length k and at most one point is fixed: k^{n/k}, or 1 plus k-cycles.
    """
    nontrivial = set(lengths) - {1}
    if not nontrivial:
        return True
    return len(nontrivial) == 1 and max(nontrivial) % 2 == 1 and lengths.count(1) <= 1


def has_free_monomial_type(w: MonomialElement) -> bool:
    """Whether w's shape forces trivial intersection with every N_H (d >= 2).

    True iff all cycles of sigma share one odd length k and every cycle
    exponent sum is 0 mod de.  The identity qualifies with k = 1.
    """
    cycles = w.cycles()
    k = cycles[0].length
    if k % 2 == 0:
        return False
    return all(c.length == k and c.product_exponent == 0 for c in cycles)


class PermutationGroup(Subgroup):
    """The subgroup of G(1, 1, degree) = S_degree generated by permutations.

    Each generator, a permutation of {0..degree-1}, enters as its
    zero-exponent image (``from_permutation``, which raises ValueError on
    anything else), and the images are closed as a ``Subgroup`` under the
    guard.  So the elements are ``MonomialElement``s, and a permutation
    group equals the ``Subgroup`` with the same elements.  Degree 0 raises
    ValueError, as G(1, 1, 0) does.
    """

    def __init__(self, degree: int, generators: Iterable[Sequence[int]]) -> None:
        desc = GroupDescriptor(1, 1, degree)
        super().__init__(desc, [from_permutation(desc, p) for p in generators])

    @property
    def degree(self) -> int:
        return self.descriptor.r


def free_action_symmetric(G: PermutationGroup) -> bool:
    """Whether no nonidentity element of G preserves any 2-subset {i, j}."""
    ident = perms.identity(G.degree)
    for g in G:
        if (sigma := g.sigma) == ident:
            continue
        for i in range(G.degree):
            for j in range(i + 1, G.degree):
                if (sigma[i] == i and sigma[j] == j) or (sigma[i] == j and sigma[j] == i):
                    return False
    return True


def free_action_general(G: Subgroup) -> bool:
    """Whether no nonidentity element of G stabilizes any hyperplane.

    The stabilizers along an orbit are conjugate, so it suffices that each
    orbit's stabilizer is trivial, that is (orbit-stabilizer) that every
    orbit has |G| hyperplanes.  No orbit has more and the orbits partition
    the arrangement, so that holds exactly when count x |G| = |A|.
    """
    return orbit_count(G) * len(G) == hyperplane_count(G.descriptor)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def _multiplicative_order(m: int, p: int) -> int:
    value, k = m % p, 1
    while value != 1:
        value = value * m % p
        k += 1
        if k > p:
            raise ValueError(f"{m} is not invertible mod {p}")
    return k


class FrobeniusSpec(namedtuple("FrobeniusSpec", "p q m")):
    """The affine Frobenius group Z/p x| Z/q with multiplier m of order q mod p."""

    __slots__ = ()

    def __new__(cls, p: int, q: int, m: int) -> FrobeniusSpec:
        cls._check_orders(p, q)
        if m % p == 0 or _multiplicative_order(m, p) != q:
            raise ValueError(f"m = {m} must have multiplicative order {q} mod {p}")
        return tuple.__new__(cls, (p, q, m))

    @staticmethod
    def _check_orders(p: int, q: int) -> None:
        # q first: it is O(1), while the primality test is O(sqrt p).
        if q % 2 == 0 or q <= 1 or (p - 1) % q:
            raise ValueError(f"q = {q} must be an odd divisor > 1 of p - 1 = {p - 1}")
        if not _is_prime(p) or p % 2 == 0:
            raise ValueError(f"p = {p} must be an odd prime")

    @classmethod
    def find(cls, p: int, q: int) -> "FrobeniusSpec":
        """The spec with the smallest admissible multiplier."""
        cls._check_orders(p, q)
        for m in range(2, p):
            if _multiplicative_order(m, p) == q:
                return tuple.__new__(cls, (p, q, m))  # checked above, so not again by __new__
        raise ValueError(f"no element of order {q} mod {p}")


def frobenius_coset_action(spec: FrobeniusSpec) -> tuple[Subgroup, frozenset[tuple[int, ...]]]:
    """The action of Z/p x| Z/q on the cosets of its complement, in G(1, 1, p).

    Realized as the closure of x -> x + 1 and x -> m x, the maps x -> c x + b
    on Z/p.  Construction checks the structure theory, with each element's
    order read off its multiplier c, not off the cycle type under test:
    translations (c = 1) have order p and form one p-cycle; the conjugates of
    the complement have order k = ord(c mod p), fix exactly one point and
    split the rest into (p-1)/k cycles of length k.  Returns the group and
    the set of cycle types measured on its nonidentity elements.
    """
    p, m = spec.p, spec.m
    desc = GroupDescriptor(1, 1, p)
    shift = from_permutation(desc, [(x + 1) % p for x in range(p)])
    scale = from_permutation(desc, [m * x % p for x in range(p)])
    group = closure(desc, [shift, scale])
    if len(group) != p * spec.q:
        raise InvariantViolation(f"affine action of order {p * spec.q} has {len(group)} elements")
    types = set()
    for g in group:
        sigma = g.sigma
        if (c := (sigma[1] - sigma[0]) % p) != 1:
            k = _multiplicative_order(c, p)
            expected = (k,) * ((p - 1) // k) + (1,)
        elif sigma[0]:
            expected = (p,)
        else:
            continue  # the identity
        ctype = perms.cycle_type(sigma)
        if ctype != expected:
            raise InvariantViolation(
                f"cycle type {ctype} of {sigma} contradicts the coset-action structure {expected}"
            )
        types.add(ctype)
    return group, frozenset(types)


def cayley_embedding(G: Subgroup) -> PermutationGroup:
    """The left-translation action of G on its own sorted element list.

    The group generated by the translations by ``G.generators``; it is
    faithful exactly when it has |G| elements, and InvariantViolation is
    raised otherwise.  Its |G|^2 products are charged to a ``Budget``
    before the first one.
    """
    n = len(G)
    Budget().spend(n * n, f"the {n} x {n} left translations of a Cayley embedding")
    elements = G.sorted_elements
    index = {g: k for k, g in enumerate(elements)}
    image = PermutationGroup(n, [[index[g * x] for x in elements] for g in G.generators])
    if len(image) != n:
        raise InvariantViolation("left translation action is not faithful")
    return image


def as_symmetric_subgroup(G: PermutationGroup) -> PermutationGroup:
    """G itself, a subgroup of G(1, 1, n) already.  No library code calls it;
    the name stays because ``bench/trace_child.py`` binds it."""
    return G
