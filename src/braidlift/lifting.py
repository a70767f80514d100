"""Torsion-lifting criteria for elements and subgroups of G(de, e, r).

An element w (or a subgroup G) of the reflection group lifts to a
finite-order element (subgroup) of the quasi-abelianized braid group B/[P,P]
exactly when every power of w (every element of G) that stabilizes a
reflection hyperplane H already fixes the normal line H^perp pointwise.
This module implements that structural test as a brute-force oracle, for
elements and for whole subgroups, plus the fast combinatorial criterion
special to the monomial groups.

The oracle and the fast test are kept strictly independent: the oracle only
ever looks at stabilizers and normal scalars, the fast test only at cycle
data, the (length, exponent sum) pairs of ``permutations.cycle_sums``.
Their agreement on whole groups is part of the verification suite.
The oracle reads stabilizers off the permutation each power induces on the
hyperplane indices, decoded by arithmetic, and builds no arrangement tuple.
The normal-line scalar itself is not written here: both scans read it from
``arrangement`` (``_normal_scalar``, and ``_least_violation`` on a
permutation's fixed indices).
One power walk, w, w^2, ... up to the identity by products (``_powers``),
and one scan of those powers, the identity on purpose too (``_violations``),
which yields every violation and charges the powers it scans.  The scan
numbers pi_w by arithmetic and composes pi_{w^(l+1)} = pi_w o pi_{w^l} in
C, until a power scanned before breaks the chain.  No order is read.
``element_lifts_oracle`` walks and charges every power before it numbers
any, then scans them all to name a witness.  ``oracle_verdicts`` only
decides: it draws each walk lazily and stops at the first violation, so
only a "lifts" verdict rests on a scan of every pair, and it scans a power
its elements share once.
``subgroup_lifts`` scans G at one hyperplane per orbit, the roots of the
forest that ``arrangement.orbits`` keeps on G.
"""

import math
from itertools import compress, islice
from operator import eq

from .arrangement import (
    _hyperplane_at,
    _index_coordinates,
    _index_permutation,
    _least_violation,
    _normal_scalar,
    format_hyperplane,
    hyperplane_count,
    orbits,
)
from .errors import Budget, InvariantViolation
from .monomial import GroupDescriptor, MonomialElement, Subgroup, _record, format_element
from .permutations import compose, cycle_sums


class LiftWitness(_record("hyperplane power element", defaults=(None, None))):
    """A violation certificate: some power (or element) sits in N_H minus C_H.

    Fields: ``hyperplane``, and ``power`` (an int) or ``element``.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        data: dict = {"hyperplane": format_hyperplane(self.hyperplane)}
        if self.power is not None:
            data["power"] = self.power
        if self.element is not None:
            data["element"] = format_element(self.element)
        return data


class LiftReport(_record("subject lifts witness method kind", defaults=("element",))):
    """Verdict of a lifting test, with a verifiable witness when it fails."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            self.kind: self.subject,
            "lifts": self.lifts,
            "witness": self.witness.to_json() if self.witness else None,
            "method": self.method,
        }


def _powers(w: MonomialElement) -> "Iterator[MonomialElement]":
    """w, w^2, ... up to the identity, by products; w's order is never read."""
    u, unmoved = w, tuple(range(w.descriptor.r))
    while True:
        yield u
        if u.sigma == unmoved and not any(u.exponents):  # u.is_identity, without its tuple
            return
        u = u * w


def _violations(powers: "Iterable", seen: dict, budget: Budget | None = None) -> "Iterator":
    """(k, ell), k the least violating index, for each violating w^ell of ``powers``.

    ``powers`` runs w, w^2, ...; ``seen`` maps each power scanned so far to
    its least violating index, or None.  Any other power is charged |A| steps
    on ``budget``, when one is given, then scanned (``_least_violation``)
    against its permutation: compose(pi_w, pi_{w^l}) if this walk scanned w
    and w^l, else numbered (``_index_permutation``).
    """
    pi_w = pi = None  # w's permutation; the previous power's, if this walk scanned it
    for ell, u in enumerate(powers, 1):
        k = seen.get(u, -1)  # -1: not scanned yet; None: no violation
        if k == -1:
            desc = u.descriptor
            if budget is not None:
                budget.spend(hyperplane_count(desc), "the brute-force scans' oracle steps")
            pi = _index_permutation(u) if pi is None or pi_w is None else compose(pi_w, pi)
            pi_w = pi if ell == 1 else pi_w
            k = seen[u] = _least_violation(pi, u.sigma, u.exponents, desc.r, desc.de)
        else:
            pi = None
        if k is not None:
            yield k, ell


def element_lifts_oracle(w: MonomialElement) -> LiftReport:
    """Structural test: every power of w in any N_H must lie in C_H.

    Walks w's powers (``_powers``), at most one past what a fresh ``Budget``
    covers, and charges |A| steps per power walked before it numbers any,
    then scans those powers, every power x hyperplane pair (``_violations``).
    Only a witness is built as a Hyperplane: the least violating hyperplane
    in canonical order, then the least power violating there.
    """
    desc = w.descriptor
    width, budget = hyperplane_count(desc), Budget()
    # One power past what the budget covers is enough to refuse the walk.
    powers = list(islice(_powers(w), budget.left // max(width, 1) + 1))
    n = len(powers)
    budget.spend(n * width, f"{n} oracle powers x {width} hyperplanes = {n * width} steps")
    witness = None
    if (least := min(_violations(powers, {}), default=None)) is not None:
        witness = LiftWitness(_hyperplane_at(desc, least[0]), power=least[1])
    return LiftReport(format_element(w), witness is None, witness, "oracle")


def oracle_verdicts(
    elements: "Iterable[MonomialElement]", budget: Budget | None = None
) -> dict[MonomialElement, bool]:
    """``element_lifts_oracle(w).lifts`` for each w, without the witness.

    Each walk (``_violations`` on ``_powers(w)``, drawn lazily) stops at w's
    first violating power or after the identity.  The walks share one
    ``seen``, so a power that several elements share is scanned once per call,
    and only the powers scanned are charged to ``budget``, when one is given.
    """
    seen: dict[MonomialElement, int | None] = {}
    return {w: next(_violations(_powers(w), seen, budget), None) is None for w in elements}


def _root_order(exponent: int, de: int) -> int:
    return de // math.gcd(exponent, de)


def element_lifts_fast(w: MonomialElement) -> bool:
    """Combinatorial test, no hyperplane scan: ``_cycles_lift`` on w's cycle data."""
    return _cycles_lift(cycle_sums(w.sigma, w.exponents), w.descriptor)


def _cycles_lift(sums: "Iterable[tuple[int, int]]", desc: GroupDescriptor) -> bool:
    """Whether an element of desc with cycle data ``sums``, the (length L,
    exponent sum p) pairs of ``cycle_sums``, lifts.

    Even order never lifts: order(w) is the lcm of L * ord(zeta^p) over the
    cycles of sigma, so it is even exactly when one of those is.  Otherwise
    w lifts iff every cycle of length >= 2 has p = 0 mod de, so does every
    fixed point when d >= 2 (its coordinate hyperplane exists), and for any
    two fixed points i != j the order of zeta^{a_i - a_j} is a multiple of
    the orders of zeta^{a_i} and zeta^{a_j}.  In rank 1 only the identity
    lifts: its one fixed point needs p = 0 when d >= 2, and G(e, e, 1) is
    trivial.  Stops at the first failing pair.
    """
    d, de, fixed = desc.d, desc.de, []
    for length, p in sums:
        p %= de
        if length * _root_order(p, de) % 2 == 0 or (p and (length > 1 or d >= 2)):
            return False
        if length == 1:
            fixed.append(p)
    for i in range(len(fixed)):
        for j in range(i + 1, len(fixed)):
            m = _root_order(fixed[i] - fixed[j], de)
            if m % _root_order(fixed[i], de) or m % _root_order(fixed[j], de):
                return False
    return True


def subgroup_lifts(G: Subgroup) -> LiftReport:
    """Whole-subgroup test: N_H meet G inside C_H for every hyperplane H.

    The criterion is invariant under conjugation by G: t in G sends a
    violating pair (g, H) to (t g t^-1, t(H)), with the same scalar on the
    normal line.  So G is scanned once per orbit, at the orbit's least
    hyperplane, the k with root[k] == k in ``orbits``, and if no element
    violates there, G lifts.
    The first scan decides over ``G.elements`` in any order: the identity's
    scalar at every plane is trivial, so it needs no skip.  Only when it
    finds a violation does a second scan, in sorted order, name the witness:
    each element but the identity at the ascending fixed indices of its
    permutation, the forest's for a generator, else numbered
    (``_index_permutation``): the first violating pair.
    The first scan tests by ``_normal_scalar``, the second by
    ``_least_violation``; neither builds a Hyperplane but the witness.
    The two scans agreeing is a theorem; InvariantViolation if they do not.
    """
    desc = G.descriptor
    r, de = desc.r, desc.de
    subject = f"subgroup of {desc} with {len(G)} elements"
    forest = orbits(G)
    root = forest.root
    indices = range(len(root))
    representatives = compress(indices, map(eq, root, indices))
    # Representatives are decoded one at a time: a list would hold a tuple per orbit.
    if not any(
        _normal_scalar(g.sigma, g.exponents, de, i, j, t)
        for i, j, t in (_index_coordinates(k, r, de) for k in representatives)
        for g in G.elements
    ):
        return LiftReport(subject, True, None, "oracle", kind="subgroup")
    numbered = dict(zip(G.generators, forest.permutations))
    for g in G.sorted_elements[1:]:  # the identity sorts first
        pi = numbered.get(g) or _index_permutation(g)
        if (k := _least_violation(pi, g.sigma, g.exponents, r, de)) is not None:
            witness = LiftWitness(_hyperplane_at(desc, k), element=g)
            return LiftReport(subject, False, witness, "oracle", kind="subgroup")
    raise InvariantViolation(f"{subject}: a violation at an orbit representative, none in full")
