"""Property tests on random elements and subgroups of small G(de, e, r).

Subgroups are drawn as closures of one or two random elements; a closure
above SUBGROUP_CAP elements falls back to the cyclic group of the first
element, which keeps the all-pairs reference check below cheap.
"""

import _random
import itertools
import math
import operator
import re
from functools import lru_cache
from random import Random
from unittest import mock

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from braidlift import permutations as perms
from braidlift.acceptance import GRID, _cayley_images, _choice, _distinct_subgroups
from braidlift.arrangement import (
    Swap,
    _hyperplane_at,
    _index_coordinates,
    _index_permutation,
    _normal_scalar,
    act,
    acts_faithfully_on_arrangement,
    element_permutations,
    hyperplane_count,
    hyperplane_permutation,
    hyperplanes,
    orbit_count,
    orbits,
    scalar_on_normal,
    stabilizes,
)
from braidlift.classify import (
    FrobeniusSpec,
    PermutationGroup,
    bieberbach_bruteforce,
    cayley_embedding,
    free_action_general,
    frobenius_coset_action,
)
from braidlift.cli import parse_grid
from braidlift.errors import Budget, GuardExceeded, NoIntegralSolution, ParseError
from braidlift.intlinalg import rank
from braidlift.lattice import (
    _difference,
    _draws,
    coboundary,
    coboundary_roundtrips,
    trivialize_cocycle,
)
from braidlift.lifting import (
    LiftReport,
    LiftWitness,
    _least_violation,
    _powers,
    _violations,
    element_lifts_fast,
    element_lifts_oracle,
    oracle_verdicts,
    subgroup_lifts,
)
from braidlift.monomial import (
    GroupDescriptor,
    MonomialElement,
    Subgroup,
    class_representatives,
    closure,
    enumerate_elements,
    format_element,
    from_permutation,
    identity,
    parse_element,
)

from groups import cycle_class, inverse, power

SUBGROUP_CAP = 60
#: Largest group whose every element the enumeration property rebuilds.
ENUMERATION_CAP = 1500
PROPERTY_SETTINGS = settings(max_examples=100, deadline=None)
#: The element properties are cheap to check, but drawing an example costs
#: Hypothesis ~5 ms, so they take fewer examples to keep the suite quick.
ELEMENT_SETTINGS = settings(max_examples=50, deadline=None)


@st.composite
def descriptors(draw, max_r=4, max_de=6):
    r = draw(st.integers(1, max_r))
    de = draw(st.integers(1, max_de))
    e = draw(st.sampled_from([k for k in range(1, de + 1) if de % k == 0]))
    return GroupDescriptor.from_deer(de, e, r)


def elements(draw, desc):
    sigma = draw(st.permutations(range(desc.r)))
    exps = draw(st.lists(st.integers(0, desc.de - 1), min_size=desc.r, max_size=desc.r))
    exps[-1] -= sum(exps) % desc.e  # land in G(de, e, r)
    return MonomialElement(desc, tuple(sigma), tuple(exps))


@st.composite
def subgroups(draw):
    desc = draw(descriptors())
    gens = [elements(draw, desc) for _ in range(draw(st.integers(1, 2)))]
    try:
        return closure(desc, gens, max_size=SUBGROUP_CAP)
    except GuardExceeded:
        return closure(desc, gens[:1])


@PROPERTY_SETTINGS
@given(st.sampled_from(GRID), st.data())
def test_distinct_subgroups_equal_every_span_closed_in_full(desc, data):
    # Spans over a few elements, their powers and products, so that most
    # spans land in a group found before, as verify's do.
    a, b = elements(data.draw, desc), elements(data.draw, desc)
    pool = [a, b, a * a, a * b, a * a * a, identity(desc)]
    spans = data.draw(st.lists(st.lists(st.sampled_from(pool), min_size=1, max_size=3),
                               min_size=1, max_size=8))
    reference = dict.fromkeys(closure(desc, gens) for gens in spans)
    got = _distinct_subgroups(desc, spans)
    assert [(G.generators, G.elements) for G in got] == [
        (G.generators, G.elements) for G in reference]


def closed_by_all_pairs(els) -> bool:
    """Reference check: a non-empty finite set closed under products is a group."""
    return bool(els) and all(u * v in els for u in els for v in els)


@PROPERTY_SETTINGS
@given(st.data())
def test_subgroup_accepts_exactly_the_closed_sets(data):
    # closing a set gives the set back exactly when it is a group; a closure
    # past len(els) elements is refused by the guard, and differs from els
    G = data.draw(subgroups())
    els = set(G.elements)
    if data.draw(st.booleans()):
        els.discard(data.draw(st.sampled_from(G.sorted_elements)))
    else:
        els.add(elements(data.draw, G.descriptor))
    try:
        kept = closure(G.descriptor, els, max_size=len(els)).elements == els
    except GuardExceeded:
        kept = False
    assert kept == closed_by_all_pairs(els)


def reference_mulclose(gens, max_size=None, mul=operator.mul):
    """Breadth-first closure: every element times every generator, |G| k products."""
    gens = list(gens)
    els = set(gens)
    if max_size is not None and len(els) > max_size:
        raise GuardExceeded(f"closure exceeds {max_size} elements")
    frontier = list(els)
    while frontier:
        new = []
        for a in gens:
            for b in frontier:
                c = mul(a, b)
                if c not in els:
                    els.add(c)
                    new.append(c)
                    if max_size is not None and len(els) > max_size:
                        raise GuardExceeded(f"closure exceeds {max_size} elements")
        frontier = new
    return frozenset(els)


@st.composite
def generator_lists(draw, min_gens=1, max_degree=7):
    """(gens, identity): ``min_gens`` to 4 generators, duplicates and the
    identity allowed, either zero-exponent permutations of degree 1 to
    ``max_degree`` or elements of a G(de, e, r) of at most 1500 elements."""
    if draw(st.booleans()):
        desc = GroupDescriptor(1, 1, draw(st.integers(1, max_degree)))
        pool = st.permutations(range(desc.r)).map(lambda p: from_permutation(desc, p))
    else:
        desc = draw(descriptors().filter(lambda desc: desc.order() <= ENUMERATION_CAP))
        pool = st.composite(elements)(desc)
    one = identity(desc)
    gens = draw(st.lists(pool, min_size=min_gens, max_size=4))
    repeats = draw(st.lists(st.sampled_from([*gens, one]), max_size=4 - len(gens)))
    return draw(st.permutations(gens + repeats)), one


@PROPERTY_SETTINGS
@given(generator_lists(), st.data())
def test_mulclose_equals_the_breadth_first_reference(case, data):
    gens, _ = case
    group = reference_mulclose(gens)
    assert perms.mulclose(gens) == group
    n = len(group)
    cap = data.draw(st.one_of(st.integers(0, 2 * n), st.integers(max(n - 2, 0), n + 2)))
    if n > cap:
        with pytest.raises(GuardExceeded, match=f"^closure exceeds {cap} elements$"):
            perms.mulclose(gens, cap)
    else:
        assert perms.mulclose(gens, cap) == group


@PROPERTY_SETTINGS
@given(generator_lists())
def test_mulclose_extends_the_powers_of_a_generator_of_greatest_order(case):
    # H_1, the group the cosets extend, is the powers of the first distinct
    # generator of greatest order, although mulclose never reads an order.
    gens, _ = case
    first = max(dict.fromkeys(gens), key=lambda g: g.order())
    group, extended = reference_mulclose(gens), []
    extend = perms._extend

    def recording(span, used, s, max_size):
        if not extended:
            extended.append((frozenset(span), used[0]))
        extend(span, used, s, max_size)

    def no_order(w):
        raise AssertionError(f"mulclose read the order of {w}")

    with mock.patch.object(perms, "_extend", recording), \
            mock.patch.object(MonomialElement, "order", no_order):
        assert perms.mulclose(gens) == group
    h1 = frozenset(reference_powers(first))
    if extended:
        assert extended[0] == (h1, first)
    else:  # no coset was added: H_1 is the whole group
        assert group == h1


@PROPERTY_SETTINGS
@given(generator_lists(min_gens=0, max_degree=6))
def test_groups_are_the_closures_of_their_generators(case):
    gens, one = case
    G = closure(one.descriptor, gens)
    assert G.elements == reference_mulclose(gens) | {one}
    assert G.generators == tuple(g for k, g in enumerate(gens) if g not in gens[:k])
    if one.descriptor.de == 1:  # G(1,1,n): the same group from the permutations
        P = PermutationGroup(one.descriptor.r, [g.sigma for g in gens])
        assert P == G and P.generators == G.generators


@PROPERTY_SETTINGS
@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.permutations(range(n)).map(tuple), max_size=4))))
def test_permutation_groups_are_closures_in_the_symmetric_group(case):
    # the permutation route of closing tuples by ``compose`` is the reference
    n, ps = case
    desc = GroupDescriptor(1, 1, n)
    P = PermutationGroup(n, ps)
    assert P == closure(desc, [from_permutation(desc, p) for p in ps])
    assert P.degree == n
    assert {g.sigma for g in P} == reference_mulclose(ps, None, perms.compose) | {perms.identity(n)}


def reference_cayley_image(G):
    """The left translations by all |G| elements of G, on its sorted elements."""
    elements = G.sorted_elements
    index = {g: k for k, g in enumerate(elements)}
    return frozenset(tuple(index[g * x] for x in elements) for g in elements)


#: The groups criterion 9 embeds: Z/5, Z/7, Z/3 x Z/3 and Z/7 : Z/3.
CAYLEY_INPUTS = (
    PermutationGroup(5, [perms.from_cycle(5, tuple(range(5)))]),
    PermutationGroup(7, [perms.from_cycle(7, tuple(range(7)))]),
    PermutationGroup(6, [perms.from_cycle(6, (0, 1, 2)), perms.from_cycle(6, (3, 4, 5))]),
    frobenius_coset_action(FrobeniusSpec.find(7, 3))[0],
)


@PROPERTY_SETTINGS
@given(st.one_of(subgroups(), st.sampled_from(CAYLEY_INPUTS)))
def test_cayley_embedding_equals_the_all_translations_image(G):
    image = cayley_embedding(G)
    assert image.degree == len(G)
    assert {g.sigma for g in image} == reference_cayley_image(G)


@PROPERTY_SETTINGS
@given(subgroups(), st.data())
def test_trivialize_cocycle_roundtrips_coboundaries(G, data):
    width = len(hyperplanes(G.descriptor))
    x0 = tuple(data.draw(st.lists(st.integers(-9, 9), min_size=width, max_size=width)))
    c = coboundary(x0, G)
    assert coboundary(trivialize_cocycle(c, G), G) == c


@PROPERTY_SETTINGS
@given(subgroups(), st.integers(0, 2**32))
def test_roundtrip_solution_equals_the_trivialize_cocycle_route(G, seed):
    # The round trip solves from the generators' values alone; the reference
    # builds the coboundary on all of G and trivializes it, for the same x0.
    rng = Random(seed)
    x0 = tuple(rng.randint(-9, 9) for _ in range(len(hyperplanes(G.descriptor))))
    expected = trivialize_cocycle(coboundary(x0, G), G)
    assert coboundary_roundtrips(G, 1, Random(seed)) == expected


@PROPERTY_SETTINGS
@given(subgroups(), st.integers(1, 5), st.integers(0, 2**32))
def test_roundtrips_equal_single_trips_in_sequence(G, trips, seed):
    rng, singles = Random(seed), Random(seed)
    first = coboundary_roundtrips(G, trips, rng)
    solutions = [coboundary_roundtrips(G, 1, singles) for _ in range(trips)]
    assert first == solutions[0]
    assert rng.getstate() == singles.getstate()


@PROPERTY_SETTINGS
@given(subgroups(), st.data())
def test_a_labelling_fixed_by_the_generators_is_fixed_by_all_of_g(G, data):
    # The round trips check labels and solutions on the generators alone.
    # Orbit labels merged at random stay fixed by G; a hyperplane split off
    # its orbit's label is moved, unless its orbit is that one hyperplane.
    root = orbits(G).root
    width = len(root)
    merged = data.draw(st.lists(st.integers(0, 2), min_size=width, max_size=width))
    split = data.draw(st.lists(st.booleans(), min_size=width, max_size=width))
    labels = tuple((merged[r], k if cut else -1) for k, (r, cut) in enumerate(zip(root, split)))

    def fixes(pi):
        return tuple(labels[j] for j in pi) == labels

    by_generators = all(fixes(hyperplane_permutation(s)) for s in G.generators)
    assert by_generators == all(map(fixes, element_permutations(G).values()))
    assert by_generators or any(split)


def reference_solve(edges, width):
    """x with x[pi_s(k)] = x[k] + c(s)[pi_s(k)] per edge (pi_s, c(s)), by depth-first search."""
    x = [None] * width
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


def reference_roundtrips(G, trips, rng):
    """Round trips with a 5-bit draw per entry, a depth-first solve per trip and
    a column label per hyperplane, refined by every trip and gathered per g."""
    width = len(hyperplanes(G.descriptor))
    table = element_permutations(G) if trips and width > 1 else {}
    steps = [hyperplane_permutation(s) for s in G.generators]
    first = None
    labels = (0,) * width
    for _ in range(trips):
        draws = []
        for _ in range(width):
            v = rng.getrandbits(5)
            while v >= 19:
                v = rng.getrandbits(5)
            draws.append(v - 9)
        x0 = tuple(draws)
        x = reference_solve([(pi, _difference(pi, x0)) for pi in steps], width)
        refined = {}
        labels = tuple(
            refined.setdefault((label, a - b), len(refined)) for label, a, b in zip(labels, x, x0)
        )
        if first is None:
            first = x
    for g, pi in table.items():
        if tuple(labels[k] for k in pi) != labels:
            raise NoIntegralSolution(f"no integral solution: the coboundary equation fails at {g}")
    return first


def affine_z31():
    """Z/31 : Z/5 in S(31), |A| = 465, unclosed: x -> x + 1 and x -> 2x."""
    desc = GroupDescriptor.from_deer(1, 1, 31)
    return Subgroup(desc, [from_permutation(desc, [(x + 1) % 31 for x in range(31)]),
                           from_permutation(desc, [2 * x % 31 for x in range(31)])])


@PROPERTY_SETTINGS
@given(subgroups(), st.integers(0, 4), st.integers(0, 2**32))
@example(_cayley_images()[3][1], 4, 0xC0C1)  # verify's Cayley Z/7 : Z/3 in S(21), |A| = 210
@example(affine_z31(), 4, 5)
@example(affine_z31(), 3, 123456789012345678901234567890)
def test_roundtrips_equal_the_per_trip_reference(G, trips, seed):
    rng, reference = Random(seed), Random(seed)
    assert coboundary_roundtrips(G, trips, rng) == reference_roundtrips(G, trips, reference)
    assert rng.getstate() == reference.getstate()


def cyclic_symmetric(n):
    desc = GroupDescriptor.from_deer(1, 1, n)
    return closure(desc, [from_permutation(desc, perms.from_cycle(n, tuple(range(n))))])


@pytest.mark.parametrize("G", [
    cyclic_symmetric(1),  # 0 hyperplanes
    cyclic_symmetric(2),  # 1
    closure(D222 := GroupDescriptor.from_deer(2, 2, 2), [from_permutation(D222, (1, 0))]),  # 2
    cyclic_symmetric(5),  # 10
    cyclic_symmetric(35),  # 595
], ids=lambda G: f"width-{len(hyperplanes(G.descriptor))}")
def test_roundtrips_consume_the_randint_stream(G):
    width = len(hyperplanes(G.descriptor))
    for seed in range(5):
        rng, reference = Random(seed), Random(seed)
        coboundary_roundtrips(G, 3, rng)
        for _ in range(3 * width):
            reference.randint(-9, 9)
        assert rng.getstate() == reference.getstate()


@PROPERTY_SETTINGS
@given(st.integers(0, 600), st.integers(-2**100, 2**100), st.integers(1, 2**62))
@example(20, -7, 20)
@example(20, 2**64 + 1, 3)
@example(20, 10**29 + 7, 2**40)
def test_bulk_draws_equal_randint(width, seed, n):
    # cocycle and verify draw from _random.Random, the C generator that
    # random.Random subclasses: the same stream from the same integer seed.
    rng, reference = _random.Random(seed), Random(seed)
    assert [v - 9 for v in _draws(rng, width)] == [reference.randint(-9, 9) for _ in range(width)]
    assert rng.getstate() == reference.getstate()[1]
    # criterion 6's choice helper
    assert _choice(rng, range(n)) == reference.choice(range(n))
    assert rng.getstate() == reference.getstate()[1]


@PROPERTY_SETTINGS
@given(st.integers(0, 40).flatmap(lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))))
def test_compose_equals_the_list_reference(pq):
    p, q = pq
    assert perms.compose(p, q) == tuple([p[i] for i in q])
    assert perms.compose(list(p), list(q)) == tuple([p[i] for i in q])


def reference_rank(rows):
    """Fraction-free echelon that rebuilds the reduced row as a new dict at each step."""
    basis = {}
    rk = 0
    for raw in rows:
        if isinstance(raw, dict):
            row = {k: v for k, v in raw.items() if v}
        else:
            row = {k: v for k, v in enumerate(raw) if v}
        while row:
            lead = min(row)
            if lead not in basis:
                basis[lead] = row
                rk += 1
                break
            other = basis[lead]
            a, b = row[lead], other[lead]
            g = math.gcd(a, b)
            ma, mb = a // g, b // g
            row = {
                k: v
                for k in row.keys() | other.keys()
                if (v := row.get(k, 0) * mb - other.get(k, 0) * ma)
            }
    return rk


@st.composite
def integer_matrices(draw):
    ncols = draw(st.integers(0, 7))
    entry = st.integers(-6, 6) if draw(st.booleans()) else st.sampled_from([0, 0, 0, 0, 2, -3, 4])
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=8))
    if draw(st.booleans()):  # sparse form
        return [{k: v for k, v in enumerate(row) if v} for row in rows]
    return rows


@PROPERTY_SETTINGS
@given(integer_matrices())
def test_rank_equals_the_rebuilding_reference(rows):
    sparse = [row if isinstance(row, dict) else dict(enumerate(row)) for row in rows]
    before = repr(sparse)
    assert rank(sparse) == reference_rank(rows)
    assert repr(sparse) == before  # the rows reduced in place are copies


def rebuilt(w):
    """w through the validating public constructor."""
    return MonomialElement(w.descriptor, w.sigma, w.exponents)


@ELEMENT_SETTINGS
@given(st.data())
def test_trusted_products_pass_the_public_constructor(data):
    desc = data.draw(descriptors(max_r=8, max_de=12))
    u, v = elements(data.draw, desc), elements(data.draw, desc)
    for w in (u * v, inverse(u), inverse(u * v) * u):
        assert rebuilt(w) == w


@ELEMENT_SETTINGS
@given(descriptors().filter(lambda desc: desc.order() <= ENUMERATION_CAP))
def test_enumerated_elements_pass_the_public_constructor(desc):
    for w in enumerate_elements(desc):
        assert rebuilt(w) == w


@ELEMENT_SETTINGS
@given(descriptors(max_de=12).filter(lambda desc: desc.order() <= ENUMERATION_CAP))
def test_prime_order_bieberbach_scan_equals_full_scan(desc):
    full_scan = not any(
        element_lifts_oracle(w).lifts for w in enumerate_elements(desc) if not w.is_identity
    )
    assert bieberbach_bruteforce(desc) == full_scan


@ELEMENT_SETTINGS
@given(descriptors(max_de=12).filter(lambda desc: desc.order() <= ENUMERATION_CAP))
def test_class_representatives_meet_every_class_once(desc):
    reps = list(class_representatives(desc))
    classes = [cycle_class(w) for w in reps]
    assert len(set(classes)) == len(classes)
    assert set(classes) == {cycle_class(w) for w in enumerate_elements(desc)}
    for w in reps:
        assert rebuilt(w) == w


@ELEMENT_SETTINGS
@given(descriptors(max_de=12).filter(lambda desc: desc.order() <= ENUMERATION_CAP), st.data())
def test_oracle_verdict_is_invariant_under_full_monomial_conjugation(desc, data):
    # G(de, 1, r) normalizes G(de, e, r), so the conjugate is computed there
    # and read back as an element of G(de, e, r).
    full = GroupDescriptor(desc.de, 1, desc.r)
    w, t = elements(data.draw, desc), elements(data.draw, full)
    n = w.order()
    # w itself mostly has even order; its odd part can lift and so tests both verdicts
    for u in (w, power(w, n & -n)):
        c = t * MonomialElement(full, u.sigma, u.exponents) * inverse(t)
        conjugate = MonomialElement(desc, c.sigma, c.exponents)
        assert element_lifts_oracle(u).lifts == element_lifts_oracle(conjugate).lifts


@st.composite
def conjugated_subgroups(draw):
    """A subgroup G of a group past the grid (de <= 60, r <= 12), of at most
    SUBGROUP_CAP elements, and an element t of G(de, 1, r).

    G is generated by one or two random elements, or, when those close past
    the cap, by the first one, its odd part or a power of prime order.
    """
    desc = draw(descriptors(max_r=12, max_de=60).filter(lambda desc: desc not in GRID))
    gens = [elements(draw, desc) for _ in range(draw(st.integers(1, 2)))]
    w, n = gens[0], gens[0].order()
    prime = next(p for p in range(2, n + 1) if n % p == 0) if n > 1 else 1
    for choice in (gens, [w], [power(w, n & -n)], [power(w, n // prime)]):
        try:
            G = closure(desc, choice, max_size=SUBGROUP_CAP)
            break
        except GuardExceeded:
            continue
    return G, elements(draw, GroupDescriptor(desc.de, 1, desc.r))


@PROPERTY_SETTINGS
@given(conjugated_subgroups())
def test_subgroup_verdict_is_invariant_under_full_monomial_conjugation(case):
    # t sends a violating pair (g, H) of G to (t g t^-1, t(H)), a violating
    # pair of t G t^-1 with the same scalar on the normal line.
    G, t = case
    desc, t_inv = G.descriptor, inverse(t)

    def conjugate(g):
        c = t * MonomialElement(t.descriptor, g.sigma, g.exponents) * t_inv
        return MonomialElement(desc, c.sigma, c.exponents)

    image = closure(desc, map(conjugate, G.generators), max_size=SUBGROUP_CAP)
    report = subgroup_lifts(G)
    assert subgroup_lifts(image).lifts == report.lifts
    if not report.lifts:
        g, H = report.witness.element, report.witness.hyperplane
        u, tH = conjugate(g), act(t, H)
        assert u in image.elements and act(u, tH) == tH
        assert scalar_on_normal(u, tH) == scalar_on_normal(g, H) != 0


@st.composite
def galois_pairs(draw):
    """A group past the grid (de <= 60, r <= 12), a random element w of it
    with w's odd part, and a unit k mod de, k != 1 when de > 2."""
    desc = draw(descriptors(max_r=12, max_de=60).filter(lambda desc: desc not in GRID))
    w = elements(draw, desc)
    n = w.order()
    units = [k for k in range(2, desc.de) if math.gcd(k, desc.de) == 1] or [1]
    return [w, power(w, n & -n)], draw(st.sampled_from(units))


@PROPERTY_SETTINGS
@given(galois_pairs())
def test_galois_conjugation_keeps_order_and_verdicts(pair):
    # Scaling every exponent by a unit k mod de is an automorphism of
    # G(de, e, r): it keeps e | sum(a).  It keeps orders and both verdicts.
    ws, k = pair
    desc = ws[0].descriptor
    scaled = [MonomialElement(desc, w.sigma, [k * a for a in w.exponents]) for w in ws]
    assert [w.order() for w in ws] == [w.order() for w in scaled]
    assert [element_lifts_fast(w) for w in ws] == [element_lifts_fast(w) for w in scaled]
    try:
        verdicts = oracle_verdicts(ws, Budget()), oracle_verdicts(scaled, Budget())
    except GuardExceeded:
        reject()
    assert list(verdicts[0].values()) == list(verdicts[1].values())


def galois_index(k, x, width, de):
    """The index of psi_k(H_x): Swap(i, j, t) at x < width goes to
    Swap(i, j, k t), in the same block of de, and Coord(i) stays."""
    return x if x >= width else x - x % de + k * x % de


@ELEMENT_SETTINGS
@given(galois_pairs())
def test_galois_conjugation_permutes_the_hyperplane_indices(pair):
    # psi_k(w) sends psi_k(H) to psi_k(w(H)), so its index permutation is
    # w's, relabelled by the index map of psi_k.
    ws, k = pair
    desc = ws[0].descriptor
    r, de = desc.r, desc.de
    width = de * r * (r - 1) // 2
    for w in ws:
        scaled = MonomialElement(desc, w.sigma, [k * a for a in w.exponents])
        pi, pi_scaled = _index_permutation(w), _index_permutation(scaled)
        assert all(pi_scaled[galois_index(k, x, width, de)] == galois_index(k, y, width, de)
                   for x, y in enumerate(pi))
    for x in range(hyperplane_count(desc)):
        i, j, t = _index_coordinates(x, r, de)
        y = galois_index(k, x, width, de)
        assert _index_coordinates(y, r, de) == (i, j, None if t is None else k * t % de)


def reference_element_lifts(w):
    """The scan that calls act on every hyperplane x power pair, hyperplanes outer."""
    n = w.order()
    powers = [w]
    for _ in range(n - 1):
        powers.append(powers[-1] * w)
    for H in hyperplanes(w.descriptor):
        for ell, u in enumerate(powers, start=1):
            if act(u, H) == H and scalar_on_normal(u, H) != 0:
                witness = LiftWitness(H, power=ell)
                return LiftReport(format_element(w), False, witness, "oracle")
    return LiftReport(format_element(w), True, None, "oracle")


def reference_power_walk(w):
    """The oracle's walk with w's permutation from act and the powers counted
    up to order(w): the same scan as element_lifts_oracle, by other routes."""
    desc = w.descriptor
    planes = hyperplanes(desc)
    index = {H: k for k, H in enumerate(planes)}
    pi_w = tuple([index[act(w, H)] for H in planes])
    n = w.order()
    witness, limit = None, len(planes)
    u, pi = w, pi_w
    for ell in range(1, n + 1):
        for k in range(limit):
            if pi[k] == k and scalar_on_normal(u, planes[k]) != 0:
                witness, limit = LiftWitness(planes[k], power=ell), k
                break
        u, pi = u * w, perms.compose(pi_w, pi)
    return LiftReport(format_element(w), witness is None, witness, "oracle")


def test_oracle_equals_the_power_walk_reference_on_the_grid():
    for desc in GRID:
        for w in enumerate_elements(desc):
            assert element_lifts_oracle(w) == reference_power_walk(w), w


@st.composite
def long_cycles(draw):
    """An element of S(n), n <= 41, that is one cycle of length at least n/2."""
    n = draw(st.integers(2, 41))
    points = draw(st.permutations(range(n)))
    cycle = points[: draw(st.integers((n + 1) // 2, n))]
    return from_permutation(GroupDescriptor(1, 1, n), perms.from_cycle(n, cycle))


@st.composite
def group_elements(draw):
    """An element of a random G(de, e, r); d >= 2, and so Coord planes, for most de > 1."""
    return elements(draw, draw(descriptors(max_r=5, max_de=8)))


@PROPERTY_SETTINGS
@given(st.one_of(group_elements(), long_cycles()))
def test_oracle_equals_the_per_pair_reference(w):
    n = w.order()
    # w itself mostly has even order; its odd part can lift and so tests both verdicts
    for u in (w, power(w, n & -n)):
        assert element_lifts_oracle(u) == reference_element_lifts(u) == reference_power_walk(u)


@st.composite
def power_lists(draw):
    """Elements of one random G(de, e, r): powers of a few drawn elements, with
    repeats, so some are powers of others and the identity may appear."""
    desc = draw(descriptors(max_r=4, max_de=6))
    bases = [elements(draw, desc) for _ in range(draw(st.integers(1, 3)))]
    picks = st.tuples(st.sampled_from(bases), st.integers(1, 12))
    return [power(w, k) for w, k in draw(st.lists(picks, min_size=1, max_size=10))]


@PROPERTY_SETTINGS
@given(power_lists())
def test_verdict_walk_equals_the_per_pair_reference(ws):
    verdicts = oracle_verdicts(ws)
    assert set(verdicts) == set(ws)
    for w in ws:
        assert verdicts[w] == reference_element_lifts(w).lifts, w


def reference_violations(powers, seen):
    """``_violations``' walk with every power numbered by ``_index_permutation``."""
    for ell, u in enumerate(powers, 1):
        if u not in seen:
            desc = u.descriptor
            seen[u] = _least_violation(_index_permutation(u), u.sigma, u.exponents,
                                       desc.r, desc.de)
        if seen[u] is not None:
            yield seen[u], ell


def reference_powers(w):
    """w, w^2, ..., w^order(w) = 1, by products."""
    return list(itertools.accumulate(itertools.repeat(w, w.order()), operator.mul))


#: An element w of order 6 in G(3,1,3) whose first power violates.  Listed as
#: [w^6, w, w], the second walk stops at w, so the third starts at a power
#: already scanned: it must number w^2, and w^3 must not be composed from it.
_SEEN_BASE = MonomialElement(GroupDescriptor(3, 1, 3), (0, 2, 1), (0, 0, 1))


@PROPERTY_SETTINGS
@given(st.one_of(power_lists(), long_cycles().map(lambda w: [w])))
@example([power(_SEEN_BASE, 6), _SEEN_BASE, _SEEN_BASE])
def test_composed_walk_yields_the_pairs_of_the_numbered_walk(ws):
    # One seen per side, shared over the list.  Every other walk stops at its
    # first violation, as oracle_verdicts' do, so later walks meet powers
    # already scanned before, after and in place of their own w.
    seen, reference_seen = {}, {}
    for i, w in enumerate(ws):
        walk = _violations(_powers(w), seen)
        reference = reference_violations(reference_powers(w), reference_seen)
        if i % 2:
            assert next(walk, None) == next(reference, None), w
        else:
            assert list(walk) == list(reference), w
        assert seen == reference_seen


@ELEMENT_SETTINGS
@given(st.one_of(group_elements(), long_cycles()))
def test_cycle_passes_equal_their_cycles_definitions(w):
    de, sigma, a = w.descriptor.de, w.sigma, w.exponents
    cycles = perms.cycles(sigma)
    assert perms.cycle_type(sigma) == tuple(sorted(map(len, cycles), reverse=True))
    assert perms.order(sigma) == math.lcm(*map(len, cycles))
    assert w.order() == math.lcm(*(len(c) * (de // math.gcd(sum(a[i] for i in c), de))
                                   for c in cycles))
    assert perms.cycle_sums(sigma, a) == [(len(c), sum(a[i] for i in c)) for c in cycles]


@PROPERTY_SETTINGS
@given(power_lists())
def test_verdict_walk_charges_the_distinct_powers_it_scans(ws):
    # Reference: each walk runs to w's first violating power, or to the identity.
    planes = hyperplanes(ws[0].descriptor)
    scanned = set()
    for w in ws:
        u = w
        while True:
            scanned.add(u)
            if u.is_identity or any(
                act(u, H) == H and scalar_on_normal(u, H) != 0 for H in planes
            ):
                break
            u = u * w
    budget = Budget()
    oracle_verdicts(ws, budget)
    assert budget.total - budget.left == len(planes) * len(scanned)


@st.composite
def arrangement_groups(draw, d_is_one):
    """G(de, e, r) with de <= 12 and r <= 6: d = 1 (no Coord planes) or d >= 2."""
    de = draw(st.integers(1, 12) if d_is_one else st.integers(2, 12))
    divisors = [e for e in range(1, de) if de % e == 0]
    e = de if d_is_one else draw(st.sampled_from(divisors))
    return GroupDescriptor.from_deer(de, e, draw(st.integers(1, 6)))


@pytest.mark.parametrize("d_is_one", [True, False])
@ELEMENT_SETTINGS
@given(st.data())
def test_index_permutation_equals_the_act_reference(d_is_one, data):
    desc = data.draw(arrangement_groups(d_is_one))
    g = elements(data.draw, desc)
    planes = hyperplanes(desc)
    index = {H: k for k, H in enumerate(planes)}
    assert _index_permutation(g) == tuple(index[act(g, H)] for H in planes)


@ELEMENT_SETTINGS
@given(st.data())
def test_index_decoding_equals_the_built_arrangement(data):
    de = data.draw(st.integers(1, 12))
    e = data.draw(st.sampled_from([k for k in range(1, de + 1) if de % k == 0]))
    desc = GroupDescriptor.from_deer(de, e, data.draw(st.integers(1, 40)))
    decoded = [_hyperplane_at(desc, k) for k in range(len(hyperplanes(desc)))]
    # Swap and Coord compare as plain tuples, so their types are compared too.
    assert [(type(H), H) for H in decoded] == [(type(H), H) for H in hyperplanes(desc)]


@pytest.mark.parametrize("d_is_one", [True, False])
@ELEMENT_SETTINGS
@given(st.data())
def test_index_normal_scalar_equals_the_hyperplane_reference(d_is_one, data):
    """``_normal_scalar``, which both lifting scans read, against
    ``scalar_on_normal`` and ``stabilizes`` on the built Hyperplane."""
    desc = data.draw(arrangement_groups(d_is_one))
    w = elements(data.draw, desc)
    n = w.order()
    # w itself mostly moves its planes; its odd part, often the identity, fixes more
    for u in (w, power(w, n & -n)):
        for k in range(len(hyperplanes(desc))):
            H = _hyperplane_at(desc, k)
            scalar = _normal_scalar(u.sigma, u.exponents, desc.de,
                                    *_index_coordinates(k, desc.r, desc.de))
            assert scalar == (scalar_on_normal(u, H) if stabilizes(u, H) else None)


def reference_least_violation(w):
    """The least canonical k with w in N_{H_k} and a nontrivial scalar on
    H_k's normal line, over the built arrangement; or None."""
    return next((k for k, H in enumerate(hyperplanes(w.descriptor))
                 if stabilizes(w, H) and scalar_on_normal(w, H)), None)


def assert_least_violation_decodes(w):
    desc = w.descriptor
    got = _least_violation(_index_permutation(w), w.sigma, w.exponents, desc.r, desc.de)
    assert got == reference_least_violation(w), w


@ELEMENT_SETTINGS
@given(st.data())
def test_least_violation_equals_the_hyperplane_reference(data):
    """The ascending decode of the fixed indices, on random elements and
    their first powers, the identity and a full cycle."""
    de = data.draw(st.integers(1, 12))
    e = data.draw(st.sampled_from([k for k in range(1, de + 1) if de % k == 0]))
    desc = GroupDescriptor.from_deer(de, e, data.draw(st.integers(1, 9)))
    w = elements(data.draw, desc)
    full_cycle = from_permutation(desc, perms.from_cycle(desc.r, tuple(range(desc.r))))
    for u in (*(power(w, m) for m in range(1, 7)), identity(desc), full_cycle):
        assert_least_violation_decodes(u)


@pytest.mark.parametrize("desc", [GroupDescriptor.from_deer(*deer) for deer in (
    (1, 1, 1), (3, 1, 1), (1, 1, 2), (4, 1, 2), (6, 6, 2),
    (1, 1, 4), (2, 1, 3), (3, 3, 3), (4, 2, 3))], ids=str)
def test_least_violation_equals_the_hyperplane_reference_on_every_element(desc):
    """The same decode on every element of small groups: rank 1 and 2, d = 1 and de = 1."""
    for w in enumerate_elements(desc):
        assert_least_violation_decodes(w)


def reference_element_lifts_fast(w):
    """The fast criterion's case analysis on the cycles of ``perms.cycles``,
    not on the walk ``cycle_sums`` that it reads."""
    desc = w.descriptor
    if desc.r == 1:
        return w.is_identity

    def root_order(exponent):
        return desc.de // math.gcd(exponent, desc.de)

    cycles = [(len(c), sum(w.exponents[i] for i in c) % desc.de) for c in perms.cycles(w.sigma)]
    if any(L * root_order(p) % 2 == 0 for L, p in cycles):
        return False
    if any(p for L, p in cycles if L > 1 or desc.d >= 2):
        return False
    a = [p for L, p in cycles if L == 1]
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            m = root_order(a[i] - a[j])
            if m % root_order(a[i]) or m % root_order(a[j]):
                return False
    return True


@PROPERTY_SETTINGS
@given(st.data())
def test_fast_criterion_equals_the_cycle_data_reference(data):
    desc = data.draw(descriptors(max_r=8, max_de=12))
    w = elements(data.draw, desc)
    n = w.order()
    # w itself mostly has even order; its odd part can lift and so tests both verdicts
    for u in (w, power(w, n & -n)):
        assert element_lifts_fast(u) == reference_element_lifts_fast(u)


@ELEMENT_SETTINGS
@given(st.data())
def test_oracle_agrees_with_fast_criterion(data):
    desc = data.draw(descriptors(max_r=8, max_de=12))
    w = elements(data.draw, desc)
    n = w.order()
    # w itself mostly has even order; its odd part can lift and so tests both verdicts
    for u in (w, power(w, n & -n)):
        assert element_lifts_oracle(u).lifts == element_lifts_fast(u)


@ELEMENT_SETTINGS
@given(st.data())
def test_order_formula_equals_iteration(data):
    desc = data.draw(descriptors(max_r=8, max_de=12))
    w = elements(data.draw, desc)
    n, power = 1, w
    while not power.is_identity:
        power, n = power * w, n + 1
    assert w.order() == n


@ELEMENT_SETTINGS
@given(st.data())
def test_act_is_a_left_action(data):
    desc = data.draw(descriptors(max_r=8, max_de=12).filter(hyperplanes))
    u, v = elements(data.draw, desc), elements(data.draw, desc)
    H = data.draw(st.sampled_from(hyperplanes(desc)))
    assert act(u * v, H) == act(u, act(v, H))


def validated(G):
    """G rebuilt from all its elements as generators: the same group, with
    other generators and so another orbit forest."""
    return Subgroup(G.descriptor, G.sorted_elements)


@PROPERTY_SETTINGS
@given(subgroups())
def test_walk_yields_each_element_once_with_its_permutation(G):
    # Each entry is held to the definition, k -> index(act(g, H_k)), read
    # through an index dict on hyperplanes(), not to the arithmetic numbering.
    planes = hyperplanes(G.descriptor)
    index = {P: k for k, P in enumerate(planes)}
    for H in (G, validated(G)):
        table = element_permutations(H)
        assert table.keys() == H.elements
        for g, pi in table.items():
            assert pi == tuple(index[act(g, P)] for P in planes)


def reference_subgroup_lifts(G):
    """The scan that calls act on every element x hyperplane pair, in sorted order."""
    subject = f"subgroup of {G.descriptor} with {len(G)} elements"
    for g in G:
        for H in hyperplanes(G.descriptor):
            if act(g, H) == H and scalar_on_normal(g, H) != 0:
                witness = LiftWitness(H, element=g)
                return LiftReport(subject, False, witness, "oracle", kind="subgroup")
    return LiftReport(subject, True, None, "oracle", kind="subgroup")


def _s(r, *perms):
    desc = GroupDescriptor(1, 1, r)
    return closure(desc, [from_permutation(desc, p) for p in perms])


#: Subgroups with several orbits on the hyperplanes.  Z/31 : Z/5 in S(31),
#: generated by x -> x + 1 and x -> 2x, lifts with 3 orbits.  In S(4), the
#: group of the transposition (3 4) violates only in its last orbit, at
#: H[3,4;0], and the witness of the group of the 4-cycle (1 2 3 4) is at
#: H[1,3;0], the least end of its orbit {H[1,3;0], H[2,4;0]}.
MULTI_ORBIT = (
    _s(31, [(x + 1) % 31 for x in range(31)], [2 * x % 31 for x in range(31)]),
    _s(4, (0, 1, 3, 2)),
    _s(4, (1, 2, 3, 0)),
)


@lru_cache(maxsize=None)
def cached_reference_subgroup_lifts(G):
    return reference_subgroup_lifts(G).to_json()


@PROPERTY_SETTINGS
@given(st.one_of(subgroups(), st.sampled_from(MULTI_ORBIT)))
def test_subgroup_scan_equals_the_per_pair_reference(G):
    expected = cached_reference_subgroup_lifts(G)
    for H in (G, validated(G)):
        assert subgroup_lifts(H).to_json() == expected


# References for the whole-subgroup loops that read the permutation table:
# each calls act on every element x hyperplane pair.


def reference_orbits(G):
    """The orbit labels by act: each index labelled by its orbit's least index."""
    planes = hyperplanes(G.descriptor)
    index = {H: k for k, H in enumerate(planes)}
    root = [None] * len(planes)
    for k, H in enumerate(planes):
        if root[k] is None:
            for g in G:
                root[index[act(g, H)]] = k
    return tuple(root)


def reference_acts_faithfully(G):
    """The faithfulness test by ``act``: no element but the identity fixes
    every hyperplane, each element stopping at its first moved one."""
    planes = hyperplanes(G.descriptor)
    if not planes:
        raise ValueError(f"{G.descriptor} has an empty arrangement")
    return not any(
        all(act(g, H) == H for H in planes) for g in G.elements if not g.is_identity
    )


def reference_free_action(G):
    planes = hyperplanes(G.descriptor)
    return not any(act(g, H) == H for g in G if not g.is_identity for H in planes)


def reference_coboundary(x, G):
    planes = hyperplanes(G.descriptor)
    index = {H: k for k, H in enumerate(planes)}
    cocycle = {}
    for g in G:
        gx = [0] * len(x)
        for k, H in enumerate(planes):
            gx[index[act(g, H)]] = x[k]
        cocycle[g] = tuple(a - b for a, b in zip(x, gx))
    return cocycle


@PROPERTY_SETTINGS
@given(subgroups(), st.data())
def test_table_loops_equal_the_per_element_references(G, data):
    width = len(hyperplanes(G.descriptor))
    x = tuple(data.draw(st.lists(st.integers(-9, 9), min_size=width, max_size=width)))
    for H in (G, validated(G)):
        assert orbits(H).root == reference_orbits(G)
        assert free_action_general(H) == reference_free_action(G)
        assert coboundary(x, H) == reference_coboundary(x, G)
        if width:
            assert acts_faithfully_on_arrangement(H) == reference_acts_faithfully(G)
        else:
            with pytest.raises(ValueError):
                acts_faithfully_on_arrangement(H)


@PROPERTY_SETTINGS
@given(subgroups())
def test_orbit_forest_labels_each_orbit_by_its_least_index(G):
    root = reference_orbits(G)
    for H in (G, validated(G)):
        forest = orbits(H)
        assert forest.root == root
        assert orbit_count(H) == len(set(root))
        steps = [hyperplane_permutation(s) for s in H.generators]
        # each index but the roots is reached once, from one reached before it
        reached = {k for k, r in enumerate(root) if k == r}
        for j, k, i in zip(forest.target, forest.source, forest.step, strict=True):
            assert k in reached and j not in reached and steps[i][k] == j
            reached.add(j)
        assert len(reached) == len(root)


@PROPERTY_SETTINGS
@given(st.one_of(subgroups(), st.sampled_from(MULTI_ORBIT)))
def test_faithfulness_equals_the_act_reference(G):
    try:
        expected = reference_acts_faithfully(G)
    except ValueError:
        with pytest.raises(ValueError):
            acts_faithfully_on_arrangement(G)
        return
    for H in (G, validated(G)):
        assert acts_faithfully_on_arrangement(H) == expected


def element_key(w):
    desc = w.descriptor
    return ((desc.d, desc.e, desc.r), w.sigma, w.exponents)


def hyperplane_key(H):
    return (H.i, H.j, H.t) if isinstance(H, Swap) else (H.i,)


@ELEMENT_SETTINGS
@given(st.data())
def test_value_types_compare_and_hash_as_their_key(data):
    desc = data.draw(descriptors())
    other = data.draw(st.sampled_from([desc, data.draw(descriptors())]))
    u, v = elements(data.draw, desc), elements(data.draw, other)
    pairs = [(u, v, element_key)]
    if hyperplanes(desc):
        planes = st.sampled_from(hyperplanes(desc))
        pairs.append((data.draw(planes), data.draw(planes), hyperplane_key))
    for a, b, key in pairs:
        assert (a == b) == (key(a) == key(b))
        assert (a < b) == (key(a) < key(b))
        assert hash(a) == hash(key(a))
        with pytest.raises(AttributeError):
            a.i = 0
    with pytest.raises(AttributeError):
        u.sigma = v.sigma
    with pytest.raises(AttributeError):
        desc.r = 1


@ELEMENT_SETTINGS
@given(st.data())
def test_public_constructors_still_validate(data):
    G = data.draw(subgroups())
    desc = G.descriptor
    w = data.draw(st.sampled_from(G.sorted_elements))
    assert Subgroup(desc, G.elements) == G
    assert MonomialElement(desc, list(w.sigma), [a + desc.de for a in w.exponents]) == w
    with pytest.raises(ValueError):
        MonomialElement(desc, w.sigma + (desc.r,), w.exponents + (0,))
    with pytest.raises(ValueError):
        MonomialElement(desc, (0,) * desc.r if desc.r > 1 else (1,), w.exponents)
    if desc.e > 1:
        with pytest.raises(ValueError):
            MonomialElement(desc, w.sigma, (w.exponents[0] + 1,) + w.exponents[1:])
    with pytest.raises(ValueError):
        GroupDescriptor(desc.d, 0, desc.r)


#: The regular expressions the text parsers were written from, kept here as
#: their specification.
DESCRIPTOR_RE = re.compile(r"^\s*G\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)\s*$")
SYMMETRIC_RE = re.compile(r"^\s*S\(\s*(\d+)\s*\)\s*$")
ELEMENT_RE = re.compile(r"^\s*perm=\[([0-9,\s]*)\]\s*;\s*exp=\[([0-9,\s+-]*)\]\s*$")
GRID_RE = re.compile(
    r"^\s*d\s*(?:<=|≤)\s*(\d+)\s*,\s*e\s*(?:<=|≤)\s*(\d+)\s*,\s*r\s*(?:<=|≤)\s*(\d+)\s*$"
)


def reference_parse_descriptor(text):
    try:
        if m := SYMMETRIC_RE.match(text):
            return GroupDescriptor(1, 1, int(m.group(1)))
        if m := DESCRIPTOR_RE.match(text):
            return GroupDescriptor.from_deer(*map(int, m.groups()))
    except ValueError as exc:
        raise ParseError(f"{text!r}: {exc}") from exc
    raise ParseError(f"cannot parse group descriptor {text!r}")


def reference_parse_element(desc, text):
    m = ELEMENT_RE.match(text)
    if not m:
        raise ParseError(f"cannot parse element {text!r}")
    try:
        images = [int(x) for x in m.group(1).split(",")] if m.group(1).strip() else []
        exps = [int(x) for x in m.group(2).split(",")] if m.group(2).strip() else []
    except ValueError as exc:
        raise ParseError(f"bad integer in element {text!r}") from exc
    try:
        return MonomialElement(desc, tuple(i - 1 for i in images), tuple(exps))
    except ValueError as exc:
        raise ParseError(f"{text!r} is not an element of {desc}: {exc}") from exc


def reference_parse_grid(text):
    if m := GRID_RE.match(text):
        return tuple(map(int, m.groups()))
    raise ParseError(f"cannot parse grid bounds {text!r}; expected 'd<=D,e<=E,r<=R'")


#: Pieces of parser input: ASCII and other decimals ("٣" is decimal, "²" is a
#: digit but not decimal), Unicode whitespace, the formats' punctuation and
#: their literal heads.
PIECES = (
    "0", "1", "2", "3", "٣", "²", " ", "\x1c", "\n", "+", "-", "_", ",", ";", "(", ")",
    "[", "]", "=", "≤", "<=", "G(", "S(", "perm=[", "exp=[", "d", "e", "r",
)
_NUMBER = st.sampled_from(
    ("0", "1", "2", "3", "10", "٣", "1٣", "²", "-1", "+2", "1_0", "--1", "")
)
_SPACE = st.lists(st.sampled_from((" ", "\x1c", "\n")), max_size=2).map("".join)
#: What stands for each slot of a shape: a number, whitespace, a comma-joined
#: list of numbers, or either spelling of "<=".
SLOTS = {
    "N": _NUMBER,
    "W": _SPACE,
    "L": st.lists(st.tuples(_SPACE, _NUMBER, _SPACE).map("".join), max_size=2).map(",".join),
    "<=": st.sampled_from(("<=", "≤")),
}
#: Each text format as literal pieces and slots.
SHAPES = (
    "W G( W N W , W N W , W N W ) W",
    "W S( W N W ) W",
    "W perm=[ L ] W ; W exp=[ L ] W",
    "W d W <= W N W , W e W <= W N W , W r W <= W N W",
)


@st.composite
def parser_inputs(draw):
    """A format's shape, or none, with up to two pieces inserted, deleted or replaced."""
    shape = draw(st.sampled_from(SHAPES) | st.none())
    if shape is None:
        pieces = draw(st.lists(st.sampled_from(PIECES), max_size=12))
    else:
        pieces = [draw(SLOTS.get(piece, st.just(piece))) for piece in shape.split()]
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(pieces)))
        pieces[k:k + draw(st.integers(0, 1))] = draw(st.lists(st.sampled_from(PIECES), max_size=1))
    return "".join(pieces)


def outcome(parse, *args):
    """The type and value parse returns, or the text of its ParseError."""
    try:
        value = parse(*args)
    except ParseError as exc:
        return "ParseError", str(exc)
    return type(value), value


#: Element inputs are read in G(2,1,1) and G(2,1,2).
ELEMENT_GROUPS = (GroupDescriptor(2, 1, 1), GroupDescriptor(2, 1, 2))


@settings(max_examples=400, deadline=None)
@given(parser_inputs())
@example(" G(4,2,٣)\n")
@example("G(²,1,1)")
@example("\x1cS( 3 )\x1c")
@example("perm=[2,1];exp=[1,1]")
@example("perm=[ 2 ,1 ] ; exp=[+1, -1]\n")
@example("perm=[٣,1];exp=[0,0]")
@example("perm=[2,1];exp=[٣,0]")
@example("perm=[\x1c2,1];exp=[0,0]")  # int() does not strip "\x1c"
@example("d≤1, e<=2 ,r ≤٣")
@example("d<=²,e<=1,r<=1")
def test_parsers_accept_exactly_what_their_patterns_accepted(text):
    assert outcome(GroupDescriptor.parse, text) == outcome(reference_parse_descriptor, text)
    assert outcome(parse_grid, text) == outcome(reference_parse_grid, text)
    for desc in ELEMENT_GROUPS:
        assert outcome(parse_element, desc, text) == outcome(reference_parse_element, desc, text)
