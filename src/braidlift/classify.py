"""Classification predicates: torsion-free quotients, odd-order lifting,
free actions on the arrangement, Frobenius coset actions, Cayley embeddings.

The closed-form predicates (``is_bieberbach_series``,
``has_odd_lift_property``) are tested against brute-force scans built only
on the lifting oracle, so the two routes stay independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence, Union

from . import permutations as perms
from .arrangement import element_permutations
from .errors import GuardExceeded, InvariantViolation
from .lifting import element_lifts_oracle
from .monomial import (
    ENUMERATION_GUARD,
    GroupDescriptor,
    MonomialElement,
    Subgroup,
    enumerate_elements,
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


def bieberbach_bruteforce(descriptor: GroupDescriptor, guard: int = ENUMERATION_GUARD) -> bool:
    """Oracle route: torsion-free iff no nonidentity element lifts.

    Only elements of prime order are handed to the oracle.  The oracle's
    condition ("every power of w that lies in N_H also lies in C_H") passes
    to every power of w, since the powers of w^k are powers of w.  So if some
    w != 1 of order n lifts, then w^(n/p) lifts for each prime p | n, and
    w^(n/p) has order p; an element of prime order is never the identity.
    """
    for w in enumerate_elements(descriptor, guard):
        if _is_prime(w.order()) and element_lifts_oracle(w).lifts:
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


def has_free_cycle_type(perm: Sequence[int]) -> bool:
    """Whether a permutation's cycle type forces free action on 2-subsets.

    True iff all nontrivial cycles share one odd length k and at most one
    point is fixed (cycle type k^{n/k}, or one fixed point plus k-cycles).
    The identity qualifies with k = 1.
    """
    lengths = [len(c) for c in perms.cycles(perm)]
    nontrivial = [length for length in lengths if length > 1]
    if not nontrivial:
        return True
    k = nontrivial[0]
    if k % 2 == 0 or any(length != k for length in nontrivial):
        return False
    return lengths.count(1) <= 1


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


@dataclass(frozen=True)
class PermutationGroup:
    """A closed set of permutations of {0..degree-1}, verified on construction."""

    degree: int
    elements: frozenset[tuple[int, ...]]

    def __post_init__(self) -> None:
        els = frozenset(self.elements)
        object.__setattr__(self, "elements", els)
        for p in els:
            if len(p) != self.degree or not perms.is_permutation(p):
                raise ValueError(f"{p} is not a permutation of 0..{self.degree - 1}")
        perms.greedy_generators(self.sorted_elements, perms.identity(self.degree))

    @cached_property
    def sorted_elements(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.elements))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.sorted_elements)


def permutation_group(degree: int, generators: Sequence[Sequence[int]]) -> PermutationGroup:
    """The group generated by the given permutations."""
    gens = [tuple(g) for g in generators]
    return PermutationGroup(
        degree, perms.mulclose(gens, ENUMERATION_GUARD) | {perms.identity(degree)}
    )


def free_action_symmetric(G: PermutationGroup) -> bool:
    """Whether no nonidentity element of G preserves any 2-subset {i, j}."""
    ident = perms.identity(G.degree)
    for g in G:
        if g == ident:
            continue
        for i in range(G.degree):
            for j in range(i + 1, G.degree):
                if (g[i] == i and g[j] == j) or (g[i] == j and g[j] == i):
                    return False
    return True


def free_action_general(G: Subgroup) -> bool:
    """Whether no nonidentity element of G stabilizes any hyperplane (pi_g[k] == k)."""
    for g, pi in element_permutations(G).items():
        if not g.is_identity and any(k == j for k, j in enumerate(pi)):
            return False
    return True


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


@dataclass(frozen=True)
class FrobeniusSpec:
    """The affine Frobenius group Z/p x| Z/q with multiplier m of order q mod p."""

    p: int
    q: int
    m: int

    def __post_init__(self) -> None:
        self._check_orders(self.p, self.q)
        if self.m % self.p == 0 or _multiplicative_order(self.m, self.p) != self.q:
            raise ValueError(f"m = {self.m} must have multiplicative order {self.q} mod {self.p}")

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
                return cls(p, q, m)
        raise ValueError(f"no element of order {q} mod {p}")


def frobenius_coset_action(spec: FrobeniusSpec) -> PermutationGroup:
    """The action of Z/p x| Z/q on the cosets of its complement.

    Realized as the affine maps x -> m^j x + b on Z/p.  Construction checks
    the structure theory: kernel elements (pure translations) act without
    fixed points in p/k cycles of length k = their order; the conjugates of
    the complement fix exactly one point and split the rest into (p-1)/k
    cycles of length k.
    """
    p, q, m = spec.p, spec.q, spec.m
    elements: set[tuple[int, ...]] = set()
    c = 1
    for _ in range(q):
        for b in range(p):
            elements.add(tuple((c * x + b) % p for x in range(p)))
        c = c * m % p
    if len(elements) != p * q:
        raise InvariantViolation(f"affine action of order {p * q} is not faithful")
    group = PermutationGroup(p, frozenset(elements))
    ident = perms.identity(p)
    for g in group:
        if g == ident:
            continue
        k = perms.order(g)
        ctype = perms.cycle_type(g)
        multiplier = (g[1] - g[0]) % p
        if multiplier == 1:
            expected = (k,) * (p // k)
        else:
            expected = (k,) * ((p - 1) // k) + (1,)
        if ctype != expected:
            raise InvariantViolation(
                f"cycle type {ctype} of {g} contradicts the coset-action structure {expected}"
            )
    return group


def cayley_embedding(
    G: Union[PermutationGroup, Subgroup], max_degree: int = 10**4
) -> PermutationGroup:
    """The left-translation action of G on its own sorted element list."""
    elements = G.sorted_elements
    if len(elements) > max_degree:
        raise GuardExceeded(f"Cayley degree {len(elements)} exceeds the guard {max_degree}")
    index = {g: k for k, g in enumerate(elements)}
    if isinstance(G, PermutationGroup):
        mul = perms.compose
    else:
        def mul(a, b):
            return a * b
    images = frozenset(
        tuple(index[mul(g, x)] for x in elements) for g in elements
    )
    if len(images) != len(elements):
        raise InvariantViolation("left translation action is not faithful")
    return PermutationGroup(len(elements), images)


def as_symmetric_subgroup(G: PermutationGroup) -> Subgroup:
    """Realize a permutation group inside G(1, 1, n) with zero exponents."""
    desc = GroupDescriptor(1, 1, G.degree)
    return Subgroup(desc, frozenset(from_permutation(desc, g) for g in G))
