"""The reflection arrangement of G(de, e, r) and the group action on it.

The arrangement has two kinds of hyperplanes:

* ``Swap(i, j, t)``: the plane z_i = zeta^t z_j (i < j, t mod de), present
  for every t; there are de * r(r-1)/2 of them.
* ``Coord(i)``: the plane z_i = 0, present exactly when d >= 2 (only then
  does the group contain a reflection fixing it).

The canonical ordering lists all Swap planes lexicographically by (i, j, t)
and then the Coord planes by i.  Lattice vectors, JSON reports and witnesses
all use this ordering, so results are reproducible bit for bit.

For w stabilizing H the scalar by which w acts on the normal line H^perp
lives in the group of 2de-th roots of unity, and ``scalar_on_normal`` returns
it as a plain exponent x mod 2de of zeta_{2de}^x: the line for
``Swap(i, j, t)`` is spanned by e_i - zeta^{-t} e_j, and when w exchanges i
and j the scalar picks up a sign, which is x = de.

``hyperplane_permutation`` turns the action of one element into a
permutation of canonical indices, numbered by arithmetic on the canonical
order (``_index_permutation``, with each row's offset cached per (r, de)),
so it builds neither the arrangement nor an index dict; the tests check it
against ``act``.  ``_index_coordinates`` inverts that numbering at one
index, by a square root, and ``_normal_scalar`` tests an element against the
plane at those coordinates.  It is the one index-level copy of the
normal-line rule, beside the reference ``scalar_on_normal`` on Hyperplane
objects: ``_least_violation`` reads it at the fixed indices of a
permutation, which ascend, so it decodes them in one forward walk over the
rows of pairs, with no square root and no table; both lifting scans of
``lifting`` rest on it and build no
Hyperplane either; ``acts_faithfully_on_arrangement`` tests no plane at all,
only whether an element is central.  ``orbits`` is the one search
along the generators' permutations: a spanning forest with each index
labelled by its orbit's least index, kept on the subgroup with those
permutations, which the lifting scans, the orbit counts and the cocycle
solver of ``lattice`` all read.  ``element_permutations``, the table
g -> pi_g of every element's permutation, is a reference that no command
builds, for the coboundaries of ``lattice`` and the tests.  ``hyperplanes``
builds the arrangement for the tests and caches nothing.

Witnesses name a hyperplane as "H[i,j;t]" for Swap and "H[i]" for Coord (1-based).
"""

import math
from functools import lru_cache
from itertools import compress
from operator import eq

from .errors import Budget, MismatchError
from .monomial import GroupDescriptor, MonomialElement, Subgroup, _record, center_order

#: Entries kept by the element-keyed ``hyperplane_permutation`` cache.  Commands
#: call it on generators only: ``verify`` fills 129 entries, so it does not
#: evict, while a long session stays bounded.
HYPERPLANE_CACHE_SIZE = 4096


class Swap(_record("i j t")):
    """The hyperplane z_i = zeta_de^t z_j, normalized so i < j."""

    __slots__ = ()


class Coord(_record("i")):
    """The coordinate hyperplane z_i = 0."""

    __slots__ = ()


Hyperplane = Swap | Coord


def hyperplanes(descriptor: GroupDescriptor) -> tuple[Hyperplane, ...]:
    """All reflection hyperplanes of G(de, e, r), in canonical order."""
    r, de = descriptor.r, descriptor.de
    planes: list[Hyperplane] = [
        Swap(i, j, t) for i in range(r) for j in range(i + 1, r) for t in range(de)
    ]
    if descriptor.d >= 2:
        planes.extend(Coord(i) for i in range(r))
    return tuple(planes)


def hyperplane_count(descriptor: GroupDescriptor) -> int:
    """len(hyperplanes(descriptor)) in closed form, without building them."""
    r, de = descriptor.r, descriptor.de
    return de * r * (r - 1) // 2 + (r if descriptor.d >= 2 else 0)


def act(w: MonomialElement, H: Hyperplane) -> Hyperplane:
    """The image hyperplane w(H), normalized.

    This is a left action: act(u * v, H) == act(u, act(v, H)).
    """
    desc = w.descriptor
    if isinstance(H, Coord):
        if desc.d < 2:
            raise MismatchError(f"{desc} has no coordinate hyperplanes (d = 1)")
        return Coord(w.sigma[H.i])
    i, j, t = w.sigma[H.i], w.sigma[H.j], H.t + w.exponents[H.i] - w.exponents[H.j]
    return Swap(i, j, t % desc.de) if i < j else Swap(j, i, -t % desc.de)


def _index_permutation(g: MonomialElement) -> tuple[int, ...]:
    """The permutation k -> index(g(H_k)), numbered by arithmetic, uncached.

    Swap(i, j, t) sits at de * (pairs before (i, j)) + t, pairs in
    lexicographic order, and Coord(i) at de * r(r-1)/2 + i.  g sends the de
    planes of the pair (i, j) to those of the pair {sigma(i), sigma(j)},
    shifting t by s = a_i - a_j; when sigma reverses the pair, the image is
    normalized to t' = -(t + s), so the block runs backwards.  With de = 1
    each block is one plane, read off in one comprehension over the pairs;
    otherwise each block is two ranges.  No Hyperplane object or index dict
    is built.  ``act`` stays the reference the tests compare this with.
    """
    desc = g.descriptor
    r, de = desc.r, desc.de
    sigma, a = g.sigma, g.exponents
    row = _row_offsets(r, de)
    if de == 1:
        # No Coord planes (d = 1); a generator, so no list is held beside the tuple.
        return tuple(row[si] + sj if si < sj else row[sj] + si
                     for i, si in enumerate(sigma) for sj in sigma[i + 1:])
    out: list[int] = []
    extend = out.extend
    for i in range(r):
        si, ai = sigma[i], a[i]
        for j in range(i + 1, r):
            sj = sigma[j]
            s = (ai - a[j]) % de
            if si < sj:
                start = row[si] + de * sj
                extend(range(start + s, start + de))
                extend(range(start, start + s))
            else:
                start = row[sj] + de * si
                m = -s % de
                extend(range(start + m, start - 1, -1))
                extend(range(start + de - 1, start + m, -1))
    if desc.d >= 2:
        base = de * r * (r - 1) // 2
        extend([base + k for k in sigma])
    return tuple(out)


@lru_cache(maxsize=64)  # one entry per (r, de): verify uses 17
def _row_offsets(r: int, de: int) -> tuple[int, ...]:
    """row[i] + de * j + t is the canonical index of Swap(i, j, t)."""
    return tuple([de * (i * (2 * r - i - 1) // 2 - i - 1) for i in range(r)])


def _index_coordinates(k: int, r: int, de: int) -> tuple[int, int | None, int | None]:
    """(i, j, t) of the plane at canonical index k: Swap(i, j, t), or Coord(i)
    as (i, None, None).  The inverse of the numbering in ``_index_permutation``,
    by arithmetic: counted from the last, rows r-2, r-3, ... of the pairs hold
    1, 2, ... pairs, so a square root finds the row."""
    pairs = r * (r - 1) // 2
    if k >= de * pairs:
        return k - de * pairs, None, None
    p, t = divmod(k, de)
    i = r - 2 - (math.isqrt(8 * (pairs - 1 - p) + 1) - 1) // 2
    return i, p - i * (2 * r - i - 1) // 2 + i + 1, t


def _normal_scalar(sigma, a, de: int, i: int, j: int | None, t: int | None) -> int | None:
    """The exponent mod 2de of the scalar_on_normal of (sigma, a) at the plane
    (i, j, t) of ``_index_coordinates``, or None when it moves the plane.

    It stabilizes Coord(i) when sigma fixes i, and Swap(i, j, t) when sigma
    fixes i and j with a_i = a_j (exponents are reduced), or exchanges them
    with 2t + a_i - a_j = 0 mod de, by ``act``."""
    if sigma[i] == i:  # Coord(i), or Swap(i, j, t) if j is fixed too
        return 2 * a[i] if j is None or sigma[j] == j and a[i] == a[j] else None
    if j is not None and sigma[i] == j and sigma[j] == i and (2 * t + a[i] - a[j]) % de == 0:
        return (de + 2 * (t + a[i])) % (2 * de)
    return None


def _least_violation(pi, sigma, a, r: int, de: int) -> int | None:
    """The least index k fixed by pi, the permutation of (sigma, a) on the
    hyperplane indices, where ``_normal_scalar`` is nontrivial; or None.

    The fixed indices ascend, so one forward walk decodes them: row i of the
    pairs ends at pair ``end``, and pair p < end of it is (i, r + p - end)."""
    indices = range(len(pi))
    swaps, i, end = de * r * (r - 1) // 2, 0, r - 1
    for k in compress(indices, map(eq, pi, indices)):
        if k >= swaps:
            if _normal_scalar(sigma, a, de, k - swaps, None, None):
                return k
            continue
        p, t = divmod(k, de)
        while p >= end:
            i += 1
            end += r - 1 - i
        if _normal_scalar(sigma, a, de, i, r + p - end, t):
            return k
    return None


def _hyperplane_at(descriptor: GroupDescriptor, k: int) -> Hyperplane:
    """hyperplanes(descriptor)[k], without building the arrangement."""
    i, j, t = _index_coordinates(k, descriptor.r, descriptor.de)
    return Coord(i) if j is None else Swap(i, j, t)


@lru_cache(maxsize=HYPERPLANE_CACHE_SIZE)
def hyperplane_permutation(g: MonomialElement) -> tuple[int, ...]:
    """The permutation k -> index(g(H_k)) induced on canonical indices."""
    return _index_permutation(g)


def element_permutations(G: Subgroup) -> dict[MonomialElement, tuple[int, ...]]:
    """The table g -> pi_g of G's permutations of hyperplane indices.

    A reference for ``lattice.coboundary``, ``lattice.trivialize_cocycle``
    and the tests; no command builds it.  Each pi_g is numbered directly
    (``_index_permutation``), in sorted order, so the table does not rest
    on the generators whose checks it is compared with.  Charges
    |G| * |A| to a ``Budget`` first.
    """
    width = hyperplane_count(G.descriptor)
    Budget().spend(len(G) * width, f"{len(G)} elements x {width} hyperplanes")
    return {g: _index_permutation(g) for g in G.sorted_elements}


def stabilizes(w: MonomialElement, H: Hyperplane) -> bool:
    """Whether w lies in the stabilizer N_H = {w : w(H) = H}."""
    return act(w, H) == H


def scalar_on_normal(w: MonomialElement, H: Hyperplane) -> int:
    """The eigenvalue of w on the line H^perp, for w stabilizing H, as the
    exponent x mod 2de of zeta_{2de}^x: 0 is the trivial scalar, de the sign.

    Coord(i): the diagonal entry zeta^{a_i}.  Swap(i, j, t) with i, j fixed:
    stabilization forces a_i = a_j and the scalar is zeta^{a_i}.  Swap with
    i, j exchanged: on e_i - zeta^{-t} e_j the matrix acts by -zeta^{t + a_i}.
    Raises ValueError when w does not stabilize H.
    """
    if not stabilizes(w, H):
        raise ValueError(f"{w} does not stabilize {format_hyperplane(H)}")
    de, a_i = w.descriptor.de, w.exponents[H.i]
    if isinstance(H, Coord) or w.sigma[H.i] == H.i:
        return 2 * a_i
    return (de + 2 * (H.t + a_i)) % (2 * de)


class Orbits(_record("root target source step permutations")):
    """G's orbits on the hyperplanes, as a spanning forest of its search.

    root[k] is the least index of k's orbit.  Edge e, in flat lists, joins
    source[e] to target[e] = pi_s(source[e]) for s the generator numbered
    step[e]; parents come first, and each index but the roots is a target
    once.  So the representatives are the k with root[k] == k, and there are
    len(root) - len(target) orbits.  permutations[i] is pi_s for the
    generator numbered i, read by the lifting and cocycle scans.
    """

    __slots__ = ()


def orbits(G: Subgroup) -> Orbits:
    """The breadth-first search along G's generators' permutations.

    From each index not yet reached, in ascending order: O(|A| * k) steps for
    k generators.  In a finite group every inverse is a power, so these
    edges reach the whole orbit.  Kept on G, like ``sorted_elements``, so G
    is searched once; no tuple per orbit is built.
    """
    if (forest := vars(G).get("_orbits")) is not None:
        return forest
    steps = [hyperplane_permutation(s) for s in G.generators]
    root: list[int | None] = [None] * hyperplane_count(G.descriptor)
    target, source, step = [], [], []
    # A generator's images are 0, ..., |A| - 1 once each: sorted, they number
    # the roots with int objects that exist already, not |A| new ones.
    for r in sorted(steps[0]) if steps else range(len(root)):
        if root[r] is not None:
            continue
        root[r] = r
        orbit = [r]
        for k in orbit:
            for i, pi in enumerate(steps):
                if root[j := pi[k]] is None:
                    root[j] = r
                    orbit.append(j)
                    target.append(j)
                    source.append(k)
                    step.append(i)
    vars(G)["_orbits"] = forest = Orbits(tuple(root), target, source, step, steps)
    return forest


def orbit_count(G: Subgroup) -> int:
    """The number of G's orbits on the hyperplanes, off ``orbits``."""
    forest = orbits(G)
    return len(forest.root) - len(forest.target)


def acts_faithfully_on_arrangement(G: Subgroup) -> bool:
    """Whether only the identity of G fixes every hyperplane.

    The kernel of the ambient group's action on it is the centre (Lehrer-Taylor,
    ch. 2), so no g != 1 in G may be central: a scalar, sigma = id with equal
    exponents, or any element when the ambient group is abelian, its centre
    as large as itself (``center_order``).  O(r) per element.
    """
    desc = G.descriptor
    if not hyperplane_count(desc):
        raise ValueError(f"{desc} has an empty arrangement")
    if not desc.order_exceeds(center_order(desc)):
        return len(G) == 1
    unmoved = tuple(range(desc.r))
    return not any(g.sigma == unmoved and (a := g.exponents)[0] and a.count(a[0]) == desc.r
                   for g in G.elements)


def format_hyperplane(H: Hyperplane) -> str:
    if isinstance(H, Coord):
        return f"H[{H.i + 1}]"
    return f"H[{H.i + 1},{H.j + 1};{H.t}]"
