"""The permutation lattice on the arrangement.

Z[A] is the free abelian group on the hyperplanes of G(de, e, r), with the
group permuting coordinates; vectors are integer tuples in the canonical
hyperplane order.  For a subgroup G this module solves 1-cocycle equations
c(g) = x - g.x over the integers, as a difference system on the spanning
forest of ``arrangement.orbits``, and computes the rank of the fixed
lattice.  The round trips check each answer on all of G through its
generators; ``coboundary`` and ``trivialize_cocycle``, their reference,
read every element's permutation.  Every cocycle is a coboundary (the
vanishing of the first cohomology of a permutation module), so the solver
treats a failure as a falsified theorem, not as a data error.
"""

from operator import itemgetter, sub

from . import intlinalg
from .arrangement import (
    Orbits, element_permutations, hyperplane_count, hyperplane_permutation, orbit_count, orbits
)
from .errors import InvariantViolation, NoIntegralSolution
from .monomial import MonomialElement, Subgroup

LatticeVector = tuple[int, ...]
Cocycle = dict[MonomialElement, LatticeVector]


def permute_vector(g: MonomialElement, v: LatticeVector) -> LatticeVector:
    """g.v: the coefficient of v at H moves to g(H)."""
    out = [0] * len(v)
    for j, c in zip(hyperplane_permutation(g), v, strict=True):
        out[j] = c
    return tuple(out)


def _difference(pi: tuple[int, ...], x: LatticeVector) -> LatticeVector:
    """x - g.x, for the g that permutes hyperplane indices by pi."""
    out = list(x)
    for j, c in zip(pi, x, strict=True):
        out[j] -= c
    return tuple(out)


def coboundary(x: LatticeVector, G: Subgroup) -> Cocycle:
    """The principal cocycle g -> x - g.x on all of G."""
    return {g: _difference(pi, x) for g, pi in element_permutations(G).items()}


def small_generating_set(G: Subgroup) -> tuple[MonomialElement, ...]:
    """The generators G was built from, in the order given."""
    return G.generators


def _solve_on_generators(forest: Orbits, values: "Iterable[int]") -> LatticeVector:
    """The x with x = 0 on the roots and x[j] = x[k] + c(s)[j] on each edge.

    ``values`` holds c(s)[j] for each forest edge k -> j = pi_s(k), in the
    forest's order.  There c(s) = x - s.x reads x[j] = x[k] + c(s)[j]: a
    difference system on the Schreier graph, solved in one pass over the
    forest, one value per edge.  Nothing is checked here; the callers verify x.
    """
    x = [0] * len(forest.root)
    for j, k, c in zip(forest.target, forest.source, values):
        x[j] = x[k] + c
    return tuple(x)


def trivialize_cocycle(c: Cocycle, G: Subgroup) -> LatticeVector:
    """An integer vector x with c(g) = x - g.x for every g in G.

    _solve_on_generators solves the equations of the generators on the
    forest of ``orbits``.  The cocycle identity determines c on all of G
    from the generators, so the result is verified against every g in G.
    Any solution differs from it by a constant on each orbit, which g.x
    preserves, so a failed check means no solution exists.

    Raises NoIntegralSolution if no integral x exists; on a genuine cocycle
    that would falsify the vanishing of H^1 and must fail the build.
    """
    missing = G.elements - c.keys()
    if missing:
        raise ValueError(f"cocycle is not defined on all of the subgroup: missing {min(missing)}")
    forest, cs = orbits(G), [c[s] for s in small_generating_set(G)]
    result = _solve_on_generators(forest, [cs[i][j] for j, i in zip(forest.target, forest.step)])
    for g, pi in element_permutations(G).items():
        if _difference(pi, result) != c[g]:
            raise NoIntegralSolution(f"no integral solution: the coboundary equation fails at {g}")
    return result


#: The top byte of a 32-bit word -> its top 5 bits, and the bytes whose top
#: 5 bits read 19 or more, which ``randint(-9, 9)`` rejects.
_TOP_FIVE_BITS = bytes(b >> 3 for b in range(256))
_REJECTED = bytes(range(19 << 3, 256))


def _draws(rng: "_random.Random", width: int) -> bytes:
    """``width`` draws of rng.randint(-9, 9) plus 9, bit for bit, with the
    generator left in the same state.

    randint(-9, 9) is 9 less than the top 5 bits of a 32-bit output, redrawn
    while they read 19 or more.  Byte 4i + 3 of getrandbits(32 * m) is the
    top byte of the i-th of the next m outputs: one translate keeps the
    accepted ones in order, and as many outputs as it rejected are redrawn.
    """
    kept = b""
    while missing := width - len(kept):
        words = rng.getrandbits(32 * missing).to_bytes(4 * missing, "little")
        kept += words[3::4].translate(_TOP_FIVE_BITS, _REJECTED)
    return kept


def coboundary_roundtrips(G: Subgroup, trips: int, rng: "_random.Random") -> LatticeVector | None:
    """Solve ``trips`` random coboundaries of G; return the first solution.

    Each trip draws x0, one entry per hyperplane from the stream of
    ``rng.randint(-9, 9)`` (as u = x0 + 9, see _draws), gathers u at the
    targets and at the sources of the forest's edges k -> j, reads c(s)[j] =
    u[j] - u[k] (the shift cancels), and solves as trivialize_cocycle would.
    One draw per call, same stream: the trips slice one _draws of trips x
    |A| entries, and as _draws reads the shortest run of outputs that holds
    the entries, the entries and the generator's final state are those of
    one _draws per trip.

    Every answer is checked on all of G through its generators: what each
    generator fixes, the group they generate fixes.  With y = x - x0,
    x - g.x = c(g) exactly when y[pi_g[k]] == y[k] for every k.  Once per
    call, the labelling of each hyperplane by its root is checked against
    each generator's permutation on the forest; a moved label raises
    InvariantViolation.  Then G fixes y exactly when y[root[k]] == y[k], one
    gather per trip.  A failed trip raises NoIntegralSolution naming the
    first generator that moves y, or InvariantViolation if none does: the
    labels join orbits.  G's elements are never read.
    None when ``trips`` is 0.
    """
    if not trips:
        return None
    forest = orbits(G)
    # itemgetter needs an index and returns a bare value for one; with fewer
    # than two hyperplanes there are no edges and every pi_g fixes any y.
    # The edge gathers take two indices more, which the solve's zip drops.
    gathers = len(forest.root) > 1
    if gathers:
        steps = [(s, itemgetter(*pi)) for s, pi in zip(G.generators, forest.permutations)]
        for s, gather in steps:
            if gather(forest.root) != forest.root:
                raise InvariantViolation(f"the orbit labels of {G.descriptor} are moved by {s}")
        at_root = itemgetter(*forest.root)
        at_target, at_source = itemgetter(*forest.target, 0, 0), itemgetter(*forest.source, 0, 0)
    first, width = None, len(forest.root)
    draws = _draws(rng, trips * width)
    for k in range(trips):
        u = draws[k * width:(k + 1) * width]
        x = _solve_on_generators(forest, map(sub, at_target(u), at_source(u)) if gathers else ())
        # z = u - x = 9 - y is fixed by the same g as y, with entries in
        # [0, 18] when x is right: small ints that Python does not allocate.
        if gathers and at_root(z := tuple(map(sub, u, x))) != z:
            s = next((s for s, gather in steps if gather(z) != z), None)
            if s is None:
                raise InvariantViolation(f"the orbit labels of {G.descriptor} join orbits")
            raise NoIntegralSolution(f"no integral solution: the coboundary equation fails at {s}")
        if first is None:
            first = x
    return first


def fixed_lattice_rank(G: Subgroup) -> int:
    """Rank of the sublattice {x : g.x = x for all g in G}.

    Computed two ways and cross-checked: as the number of orbits of G on
    the hyperplanes (the fixed lattice is free on the orbit sums), and as
    the corank of the stacked difference equations x_H - x_{gH} = 0 over a
    generating set.
    """
    n_planes = hyperplane_count(G.descriptor)
    count = orbit_count(G)
    rows = []
    for s in small_generating_set(G):
        pi = hyperplane_permutation(s)
        for k in range(n_planes):
            if pi[k] != k:
                rows.append({k: 1, pi[k]: -1})
    by_elimination = n_planes - intlinalg.rank(rows)
    if by_elimination != count:
        raise InvariantViolation(
            f"fixed-lattice rank {by_elimination} != orbit count {count} for {G.descriptor}"
        )
    return count

