"""The permutation lattice on the arrangement and its split extensions.

Z[A] is the free abelian group on the hyperplanes of G(de, e, r), with the
group permuting coordinates; vectors are integer tuples in the canonical
hyperplane order.  For a subgroup G this module models the split extension
Z[A] x| G, detects torsion there, and solves 1-cocycle equations
c(g) = x - g.x over the integers.  Solvability of the latter for every
cocycle (the vanishing of the first cohomology of a permutation module) is
what makes complements unique up to lattice conjugation, and the solver
treats a failure as a falsified theorem, not as a data error.
"""

from __future__ import annotations

from collections import namedtuple
from operator import itemgetter, sub
from random import Random

from . import intlinalg
from .arrangement import (
    element_permutations, hyperplane_count, hyperplane_index, hyperplane_permutation, orbits
)
from .errors import InvariantViolation, MismatchError, NoIntegralSolution
from .monomial import MonomialElement, Subgroup, identity

LatticeVector = tuple[int, ...]
Cocycle = dict[MonomialElement, LatticeVector]


def zero_vector(descriptor) -> LatticeVector:
    return (0,) * hyperplane_count(descriptor)


def basis_vector(descriptor, H) -> LatticeVector:
    k = hyperplane_index(descriptor)[H]
    v = [0] * hyperplane_count(descriptor)
    v[k] = 1
    return tuple(v)


def permute_vector(g: MonomialElement, v: LatticeVector) -> LatticeVector:
    """g.v: the coefficient of v at H moves to g(H)."""
    return _permute(hyperplane_permutation(g), v)


def _permute(pi: tuple[int, ...], v: LatticeVector) -> LatticeVector:
    """v with the coefficient at index k moved to pi[k]."""
    out = [0] * len(v)
    for j, c in zip(pi, v, strict=True):
        out[j] = c
    return tuple(out)


def _add(u: LatticeVector, v: LatticeVector) -> LatticeVector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def _difference(pi: tuple[int, ...], x: LatticeVector) -> LatticeVector:
    """x - g.x, for the g that permutes hyperplane indices by pi."""
    out = list(x)
    for j, c in zip(pi, x, strict=True):
        out[j] -= c
    return tuple(out)


class SemidirectElement(namedtuple("SemidirectElement", "vector element")):
    """An element (v, g) of Z[A] x| G, composing as (v, g)(w, h) = (v + g.w, gh)."""

    __slots__ = ()


SplittingMap = dict[MonomialElement, SemidirectElement]


def semidirect_identity(descriptor) -> SemidirectElement:
    return SemidirectElement(zero_vector(descriptor), identity(descriptor))


def semidirect_compose(x: SemidirectElement, y: SemidirectElement) -> SemidirectElement:
    if x.element.descriptor != y.element.descriptor:
        raise MismatchError("semidirect elements over different groups")
    return SemidirectElement(
        _add(x.vector, permute_vector(x.element, y.vector)), x.element * y.element
    )


def semidirect_inverse(x: SemidirectElement) -> SemidirectElement:
    ginv = x.element.inverse()
    return SemidirectElement(
        tuple(-c for c in permute_vector(ginv, x.vector)), ginv
    )


def semidirect_order(x: SemidirectElement) -> int | None:
    """Order of (v, g), or None when infinite.

    (v, g)^n = (v + g.v + ... + g^{n-1}.v, g^n) with n = order(g); the
    element has finite order (then exactly n) iff that orbit sum vanishes,
    because the lattice itself is torsion free.
    """
    n = x.element.order()
    total = x.vector
    current = x.vector
    for _ in range(n - 1):
        current = permute_vector(x.element, current)
        total = _add(total, current)
    return n if not any(total) else None


def coboundary(x: LatticeVector, G: Subgroup) -> Cocycle:
    """The principal cocycle g -> x - g.x on all of G."""
    return {g: _difference(pi, x) for g, pi in element_permutations(G).items()}


def is_cocycle(c: Cocycle, G: Subgroup) -> bool:
    """Exhaustive check of c(gh) = c(g) + g.c(h) over G x G."""
    if c.keys() != G.elements:
        return False
    for g, pi in element_permutations(G).items():
        cg = c[g]
        for h in G:
            if c[g * h] != _add(cg, _permute(pi, c[h])):
                return False
    return True


def small_generating_set(G: Subgroup) -> tuple[MonomialElement, ...]:
    """The generators G was built from, in the order given."""
    return G.generators


def _solve_on_generators(
    edges: list[tuple[tuple[int, ...], LatticeVector]], width: int
) -> LatticeVector:
    """The x with x[pi_s(k)] = x[k] + c(s)[pi_s(k)] for each edge (pi_s, c(s)).

    A difference system on the Schreier graph of G acting on the hyperplanes:
    each orbit is solved by setting its first hyperplane to 0 and
    propagating along the generators' edges, in O(|orbit| * |generators|)
    steps.  Nothing is checked here; the callers verify the result on all of G.
    """
    x: list[int | None] = [None] * width
    for root in range(width):
        if x[root] is not None:
            continue
        x[root] = 0
        stack = [root]
        while stack:
            k = stack.pop()
            for pi, cs in edges:
                j = pi[k]
                if x[j] is None:
                    x[j] = x[k] + cs[j]
                    stack.append(j)
    return tuple(x)


def trivialize_cocycle(c: Cocycle, G: Subgroup) -> LatticeVector:
    """An integer vector x with c(g) = x - g.x for every g in G.

    For each generator s the equation reads x[pi_s(k)] = x[k] + c(s)[pi_s(k)],
    with pi_s the permutation of s on hyperplane indices, and
    _solve_on_generators solves that system.  The cocycle identity
    determines c on all of G from the generators, so the result is verified
    against every g in G.  Any solution differs from it by a constant on
    each orbit, which g.x preserves, so a failed check means no solution
    exists.

    Raises NoIntegralSolution if no integral x exists; on a genuine cocycle
    that would falsify the vanishing of H^1 and must fail the build.
    """
    missing = G.elements - c.keys()
    if missing:
        raise ValueError(f"cocycle is not defined on all of the subgroup: missing {min(missing)}")
    edges = [(hyperplane_permutation(s), c[s]) for s in small_generating_set(G)]
    result = _solve_on_generators(edges, hyperplane_count(G.descriptor))
    for g, pi in element_permutations(G).items():
        if _difference(pi, result) != c[g]:
            raise NoIntegralSolution(f"no integral solution: the coboundary equation fails at {g}")
    return result


def coboundary_roundtrips(G: Subgroup, trips: int, rng: Random) -> LatticeVector | None:
    """Solve ``trips`` random coboundaries of G; return the first solution.

    Each trip draws x0 with one entry in [-9, 9] per hyperplane, in
    canonical order: 5 random bits per entry, redrawn while they read 19 or
    more, which is the stream of ``rng.randint(-9, 9)`` bit for bit.  It
    solves c(g) = x - g.x for the coboundary
    c(g) = x0 - g.x0.  Only c's values on the k generators are computed,
    and _solve_on_generators solves from them in k * |A| steps, as
    trivialize_cocycle(coboundary(x0, G), G) would.  With y = x - x0,
    x - g.x = c(g) holds exactly when g.y = y, that is when
    y[pi_g[k]] == y[k] for every k.  Every trip is solved first, and each
    one refines a vector of small integer labels, one per hyperplane, so
    that two hyperplanes k, k' share a label exactly when y_i[k] == y_i[k']
    for every trip i.  g fixes every y_i exactly when it fixes the labels,
    so each g in G is then checked by one gather of the labels, for all the
    trips at once, and memory stays O(|A|).  A failed check raises
    NoIntegralSolution, so every trip that returns has succeeded.  None
    when ``trips`` is 0.
    """
    width = hyperplane_count(G.descriptor)
    # itemgetter needs an index and returns a bare value for one; with
    # fewer than two hyperplanes every pi_g is the identity and fixes any y.
    table = element_permutations(G) if trips and width > 1 else {}
    steps = [hyperplane_permutation(s) for s in small_generating_set(G)]
    first = None
    labels = (0,) * width
    getrandbits = rng.getrandbits
    for _ in range(trips):
        draws = []
        for _ in range(width):
            v = getrandbits(5)
            while v >= 19:
                v = getrandbits(5)
            draws.append(v - 9)
        x0 = tuple(draws)
        x = _solve_on_generators([(pi, _difference(pi, x0)) for pi in steps], width)
        # Two hyperplanes share a label exactly when they share (label, y[k]),
        # that is, their whole column of the trips so far.
        refined: dict[tuple[int, int], int] = {}
        labels = tuple([
            refined.setdefault(pair, len(refined)) for pair in zip(labels, map(sub, x, x0))
        ])
        if first is None:
            first = x
    for g, pi in table.items():
        if itemgetter(*pi)(labels) != labels:
            raise NoIntegralSolution(f"no integral solution: the coboundary equation fails at {g}")
    return first


def fixed_lattice_rank(G: Subgroup) -> int:
    """Rank of the sublattice {x : g.x = x for all g in G}.

    Computed two ways and cross-checked: as the number of orbits of G on
    the hyperplanes (the fixed lattice is free on the orbit sums), and as
    the corank of the stacked difference equations x_H - x_{gH} = 0 over a
    generating set.
    """
    n_planes = hyperplane_count(G.descriptor)
    orbit_count = len(orbits(G))
    rows = []
    for s in small_generating_set(G):
        pi = hyperplane_permutation(s)
        for k in range(n_planes):
            if pi[k] != k:
                rows.append({k: 1, pi[k]: -1})
    by_elimination = n_planes - intlinalg.rank(rows)
    if by_elimination != orbit_count:
        raise InvariantViolation(
            f"fixed-lattice rank {by_elimination} != orbit count {orbit_count} for {G.descriptor}"
        )
    return orbit_count


def canonical_splitting(G: Subgroup) -> SplittingMap:
    """The tautological section g -> (0, g)."""
    zero = zero_vector(G.descriptor)
    return {g: SemidirectElement(zero, g) for g in G}


def conjugate_splitting(s: SplittingMap, x: LatticeVector, G: Subgroup) -> SplittingMap:
    """Conjugate a section of G by the lattice element x: g -> (x + s(g) - g.x, g)."""
    return {g: SemidirectElement(_add(s[g].vector, d), g) for g, d in coboundary(x, G).items()}


def is_splitting(s: SplittingMap, G: Subgroup) -> bool:
    """Whether s is a homomorphic section of the projection to G.

    With s(g) = (c(g), g), s(g)s(h) = (c(g) + g.c(h), gh), so s is a
    homomorphism exactly when c is a cocycle.
    """
    if any(sg.element != g for g, sg in s.items()):
        return False
    return is_cocycle({g: sg.vector for g, sg in s.items()}, G)


def conjugate_complement(s1: SplittingMap, s2: SplittingMap, G: Subgroup) -> LatticeVector:
    """A lattice vector conjugating the section s1 onto s2.

    The difference g -> s2(g) - s1(g) of two sections is a cocycle; any
    trivializing vector conjugates one complement onto the other, and one
    always exists.  Inputs are checked to be homomorphic sections first.
    """
    if not is_splitting(s1, G) or not is_splitting(s2, G):
        raise ValueError("inputs are not homomorphic sections")
    difference = {g: tuple(a - b for a, b in zip(s2[g].vector, s1[g].vector)) for g in G}
    return trivialize_cocycle(difference, G)
