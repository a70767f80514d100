"""Group arithmetic in G(de, e, r), cross-checked against direct matrix action.

The independent oracle used throughout: an element is a monomial matrix, so
its action on a basis vector e_i is the pair (exponent, image index).  Words
of elements are applied letter by letter, which never uses the composition
formula under test.
"""

import copy
import math
import pickle
import random

import pytest

import braidlift.monomial as monomial

from braidlift import errors
from braidlift import permutations as perms
from braidlift.acceptance import GRID, CriterionResult
from braidlift.arrangement import Coord, Swap, orbit_count, orbits
from braidlift.classify import FrobeniusSpec
from braidlift.errors import GuardExceeded, MismatchError, ParseError
from braidlift.lattice import coboundary_roundtrips
from braidlift.lifting import LiftReport, LiftWitness
from braidlift.monomial import (
    GroupDescriptor,
    MonomialElement,
    Subgroup,
    center,
    center_order,
    class_representatives,
    closure,
    diagonal,
    enumerate_elements,
    from_permutation,
    identity,
    pad,
    parse_element,
    standard_generators,
)

from groups import inverse, power

D = GroupDescriptor.from_deer


def apply_word(word, i, de):
    """Apply a word of elements to e_i (rightmost first), tracking the scalar."""
    exponent = 0
    for w in reversed(word):
        exponent += w.exponents[i]
        i = w.sigma[i]
    return exponent % de, i


def iterative_order(w):
    n, power = 1, w
    while not power.is_identity:
        power = power * w
        n += 1
    return n


def random_element(rng, desc):
    pool = list(enumerate_elements(desc))
    return rng.choice(pool)


# --- descriptors ------------------------------------------------------------

def test_descriptor_parse_and_order():
    d = GroupDescriptor.parse("G(6,3,2)")
    assert (d.d, d.e, d.r, d.de) == (2, 3, 2, 6)
    assert str(d) == "G(6,3,2)"
    assert GroupDescriptor.parse("S(4)") == D(1, 1, 4)
    assert D(3, 3, 2).order() == 6
    assert D(2, 1, 2).order() == 8
    assert D(4, 4, 2).order() == 8


def test_descriptor_rejects_bad_input():
    with pytest.raises(ParseError):
        GroupDescriptor.parse("G(4,3,2)")  # e does not divide de
    with pytest.raises(ParseError):
        GroupDescriptor.parse("H(1,1,2)")
    with pytest.raises(ParseError):
        GroupDescriptor.parse("S(0)")
    with pytest.raises(ValueError):
        GroupDescriptor(0, 1, 1)


# --- identity, composition, inverse ----------------------------------------

def test_identity_element():
    e = identity(D(3, 3, 2))
    assert e.sigma == (0, 1) and e.exponents == (0, 0)
    assert e.is_identity
    assert identity(D(6, 3, 3)).order() == 1


def test_identity_is_neutral_everywhere():
    desc = D(2, 1, 2)
    e = identity(desc)
    for w in enumerate_elements(desc):
        assert e * w == w
        assert w * e == w


def test_compose_matches_matrix_action():
    # u = diag(z, z^2), v = the plain swap in G(3,3,2): (u.v)(e_1) = z^2 e_2
    desc = D(3, 3, 2)
    u = diagonal(desc, (1, 2))
    v = from_permutation(desc, (1, 0))
    w = u * v
    assert apply_word([u, v], 0, desc.de) == (2, 1)
    assert (w.exponents[0], w.sigma[0]) == (2, 1)


def test_compose_matches_matrix_action_randomized():
    rng = random.Random(7)
    for desc in (D(6, 3, 3), D(2, 2, 4), D(5, 5, 2)):
        for _ in range(60):
            u, v = random_element(rng, desc), random_element(rng, desc)
            w = u * v
            for i in range(desc.r):
                assert (w.exponents[i] % desc.de, w.sigma[i]) == apply_word([u, v], i, desc.de)


def test_associativity_on_random_triples():
    rng = random.Random(11)
    pool = list(enumerate_elements(D(6, 3, 3)))
    for _ in range(1000):
        u, v, w = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        assert (u * v) * w == u * (v * w)


def test_compose_descriptor_mismatch():
    with pytest.raises(MismatchError):
        identity(D(3, 3, 2)) * identity(D(2, 1, 2))


def test_inverse_negates_exponents():
    desc = D(3, 3, 2)
    assert inverse(diagonal(desc, (1, 2))) == diagonal(desc, (2, 1))


def test_inverse_and_power_laws():
    # power reduces n mod order(), so these hold only if order() is the
    # least n >= 1 with w^n = id
    for desc in (D(4, 2, 2), D(2, 2, 3)):
        e = identity(desc)
        for w in enumerate_elements(desc):
            assert w * inverse(w) == inverse(w) * w == e
            assert power(w, 5) == w * w * w * w * w
            assert e not in [power(w, k) for k in range(1, w.order())]


# --- cycles and order -------------------------------------------------------

def cycle_pairs(w):
    """(length, exponent sum mod de) of each cycle of w, off ``perms.cycles``."""
    return [(len(c), sum(w.exponents[i] for i in c) % w.descriptor.de)
            for c in perms.cycles(w.sigma)]


def test_cycles_of_diagonal():
    w = diagonal(D(3, 3, 3), (1, 2, 0))
    assert perms.cycles(w.sigma) == [(0,), (1,), (2,)]
    assert cycle_pairs(w) == [(1, 1), (1, 2), (1, 0)]
    assert perms.cycle_sums(w.sigma, w.exponents) == [(1, 1), (1, 2), (1, 0)]


def test_cycles_identity_and_three_cycle():
    assert cycle_pairs(identity(D(1, 1, 4))) == [(1, 0)] * 4
    w = from_permutation(D(1, 1, 3), (1, 2, 0))
    assert perms.cycles(w.sigma) == [(0, 1, 2)]
    assert perms.cycle_sums(w.sigma, w.exponents) == [(3, 0)]


def test_cycles_partition_and_reconstruct():
    rng = random.Random(3)
    for desc in (D(6, 3, 3), D(2, 2, 4)):
        for _ in range(40):
            w = random_element(rng, desc)
            cys = perms.cycles(w.sigma)
            assert sorted(i for c in cys for i in c) == list(range(desc.r))
            sums = perms.cycle_sums(w.sigma, w.exponents)
            assert [(L, p % desc.de) for L, p in sums] == cycle_pairs(w)
            for c in cys:
                for pos, i in enumerate(c):
                    assert w.sigma[i] == c[(pos + 1) % len(c)]


def test_order_examples():
    assert diagonal(D(3, 3, 2), (1, 2)).order() == 3
    assert identity(D(3, 3, 2)).order() == 1
    assert from_permutation(D(1, 1, 2), (1, 0)).order() == 2


def test_order_formula_equals_iteration_on_grid():
    for desc in GRID:
        for w in enumerate_elements(desc):
            assert w.order() == iterative_order(w)


# --- enumeration, closure, center -------------------------------------------

def test_enumeration_counts():
    assert len(list(enumerate_elements(D(1, 1, 3)))) == 6
    assert len(list(enumerate_elements(D(2, 1, 2)))) == 8
    assert len(list(enumerate_elements(D(4, 4, 2)))) == 8


def test_enumeration_is_duplicate_free_and_valid():
    for desc in GRID:
        elements = list(enumerate_elements(desc))
        assert len(set(elements)) == len(elements) == desc.order()
        for w in elements:
            assert sum(w.exponents) % desc.e == 0


def test_enumeration_guard():
    with pytest.raises(GuardExceeded):
        next(enumerate_elements(D(2, 1, 12)))
    # (10^8)! is never computed: the bounded product passes the guard at 10.
    with pytest.raises(GuardExceeded):
        next(enumerate_elements(GroupDescriptor(1, 1, 10**8)))
    # The class walk refuses S(10) by its 3,628,800 elements, not its 42 classes.
    with pytest.raises(GuardExceeded):
        next(class_representatives(D(1, 1, 10)))


def test_class_walk_is_bounded_by_the_group_order(monkeypatch):
    # Multisets are built with the residue mod e already met, so large e
    # costs no more than |G|: G(m,m,1) has one class, G(m,m,2) about m/2.
    built = []
    inner = monomial._cycle_multisets

    def counted(*args):
        built.append(args)
        return inner(*args)

    monkeypatch.setattr(monomial, "_cycle_multisets", counted)
    descs = [D(de, e, r) for de in range(1, 13) for e in range(1, de + 1) if de % e == 0
             for r in range(1, 7) if not D(de, e, r).order_exceeds(20000)]
    descs += [D(10**9, 10**9, 1), D(10**9, 10**8, 1), D(5000, 5000, 2), D(60, 60, 3)]
    for desc in descs:
        built.clear()
        classes = sum(1 for _ in class_representatives(desc))
        assert classes <= desc.order()
        assert len(built) + classes <= 3 * desc.order()


def test_order_exceeds_equals_the_order_comparison():
    for d in range(1, 5):
        for e in range(1, 5):
            for r in range(1, 6):
                desc = GroupDescriptor(d, e, r)
                n = desc.order()
                for bound in (0, 1, n - 1, n, n + 1, 10**6):
                    assert desc.order_exceeds(bound) == (n > bound)
    assert GroupDescriptor(99999999999, 1, 99999999).order_exceeds(10**6)


def test_closure_of_standard_generators_matches_order_formula():
    for desc in GRID:
        assert len(closure(desc, standard_generators(desc))) == desc.order()


def test_closure_small_cases():
    desc = D(3, 3, 2)
    assert len(closure(desc, standard_generators(desc))) == 6
    assert len(closure(desc, [identity(desc)])) == 1
    s3 = D(1, 1, 3)
    assert len(closure(s3, [from_permutation(s3, (1, 2, 0))])) == 3


def test_closure_output_is_a_valid_subgroup():
    # closing all of G's elements as generators gives G back
    desc = D(6, 3, 3)
    t, c = from_permutation(desc, (1, 0, 2)), diagonal(desc, (1, 2, 0))
    G = closure(desc, [t, c, t, identity(desc), c])
    assert G.generators == (t, c, identity(desc))  # deduplicated, in input order
    assert Subgroup(desc, G.elements) == G
    assert len(closure(desc, G.generators)) == len(G)


def test_closure_guard_and_empty_generators():
    desc = D(1, 1, 4)
    gens = standard_generators(desc)
    with pytest.raises(GuardExceeded):
        closure(desc, gens, max_size=5)
    assert closure(desc, []).elements == {identity(desc)}
    assert closure(desc, []).generators == ()
    with pytest.raises(GuardExceeded):  # the trivial group counts its identity
        closure(desc, [], max_size=0)
    with pytest.raises(MismatchError):
        closure(desc, [*gens, identity(D(1, 1, 3))])


def test_subgroup_closes_on_first_read_under_the_cap_of_its_construction(monkeypatch):
    desc = D(1, 1, 4)
    gens = standard_generators(desc)
    G = Subgroup(desc, gens, max_size=5)  # S_4 has 24 elements
    assert "elements" not in vars(G)
    with pytest.raises(GuardExceeded):
        len(G)
    # The default cap is the guard at construction, not at the first read.
    monkeypatch.setattr(errors, "ENUMERATION_GUARD", 5)
    capped = Subgroup(desc, gens)
    monkeypatch.setattr(errors, "ENUMERATION_GUARD", 10**6)
    with pytest.raises(GuardExceeded):
        len(capped)
    assert len(Subgroup(desc, gens)) == 24


def test_generator_routes_run_on_an_unclosed_subgroup(monkeypatch):
    # The Sylow 3-subgroup of S_27, generated by (1 2 3), (1 4 7)(2 5 8)(3 6 9)
    # and (1 10 19)(2 11 20)...(9 18 27), has 3^13 elements, past the guard.
    # The orbit forest and the cocycle round trips read only the generators.
    products = counted_products(monkeypatch)
    desc = D(1, 1, 27)
    G = Subgroup(desc, [
        from_permutation(desc, [(x + 3**k) % 3**(k + 1) if x < 3**(k + 1) else x
                                for x in range(27)])
        for k in range(3)
    ])
    assert orbit_count(G) == 3
    assert coboundary_roundtrips(G, 5, random.Random(0)) is not None
    assert products[0] == 0
    assert "elements" not in vars(G)


def _subgroup_scan_closures():
    """The generators the subgroup-scan benchmark closes: check-subgroup on
    S(6), G(6,3,3) and the affine Z/31 : Z/5 in S(31), and frobenius 61 5."""
    s6, g633, s31, s61 = D(1, 1, 6), D(6, 3, 3), D(1, 1, 31), D(1, 1, 61)

    def affine(desc, m, b):
        return from_permutation(desc, [(m * x + b) % desc.r for x in range(desc.r)])

    return [
        (s6, [from_permutation(s6, (1, 2, 3, 4, 5, 0)), from_permutation(s6, (1, 0, 2, 3, 4, 5))]),
        (g633, [from_permutation(g633, (1, 0, 2)), from_permutation(g633, (0, 2, 1)),
                MonomialElement(g633, (1, 0, 2), (5, 1, 0)), diagonal(g633, (3, 0, 0))]),
        (s31, [affine(s31, 1, 1), affine(s31, 2, 0)]),
        (s61, [affine(s61, 1, 1), affine(s61, FrobeniusSpec.find(61, 5).m, 0)]),
    ]


def counted_products(monkeypatch) -> list[int]:
    """A one-entry list that counts every ``MonomialElement`` product from here on."""
    count, mul = [0], MonomialElement.__mul__

    def counting(u, v):
        count[0] += 1
        return mul(u, v)

    monkeypatch.setattr(MonomialElement, "__mul__", counting)
    return count


@pytest.mark.parametrize("case, cap", zip(_subgroup_scan_closures(), (1000, 600, 200, 350)),
                         ids=("S(6)", "G(6,3,3)", "S(31) affine", "frobenius 61 5"))
def test_closure_costs_about_one_product_per_element(case, cap, monkeypatch):
    # breadth-first products cost |G| k: 1,440 / 1,728 / 310 / 610 here
    desc, gens = case
    expected = closure(desc, gens).elements
    products = counted_products(monkeypatch)
    elements = perms.mulclose(gens)
    assert elements == expected
    orders = [g.order() for g in dict.fromkeys(gens)]
    n = len(elements)
    assert products[0] <= cap
    # only H_1, the powers of the generator of greatest order, is built whole
    assert products[0] <= max(orders) + n + len(orders) * n // max(orders)


def test_closing_every_element_costs_at_most_two_products_per_element(monkeypatch):
    # G(2000,1,1) is cyclic: H_1 is the whole group, and no other generator's
    # powers are built (their orders alone would sum to about 2.2 million)
    desc = D(2000, 1, 1)
    every = list(enumerate_elements(desc))
    products = counted_products(monkeypatch)
    G = closure(desc, every)
    assert len(G) == 2000 and len(G.generators) == 2000
    assert products[0] <= 2 * len(G)


def test_center_examples():
    assert len(center(D(1, 1, 3))) == 1
    assert diagonal(D(2, 1, 2), (1, 1)) in center(D(2, 1, 2)).elements
    assert len(center(D(3, 3, 3))) == 3


def test_center_closes_a_few_generators_not_every_element(monkeypatch):
    # G(1000,1,1) is all central: closing each of its 1,000 elements as a
    # generator would cost the sum of their orders, about 560,000 products
    desc = D(1000, 1, 1)
    products = counted_products(monkeypatch)
    Z = center(desc)
    assert len(Z) == 1000 and len(Z.generators) == 1
    assert products[0] <= 5 * len(Z)


def test_center_size_formula_on_grid():
    # |Z| = d * gcd(e, r) holds whenever the reflection action is irreducible;
    # S_2 (and likewise G(2,2,2), not on the grid) is the degenerate exception.
    for desc in GRID:
        if desc == D(1, 1, 2):
            continue
        assert len(center(desc)) == desc.d * math.gcd(desc.e, desc.r)
    assert len(center(D(2, 2, 2))) == 4  # reducible: the whole Klein group is central


def test_center_order_equals_enumeration():
    # closed form (center_order) vs enumeration (center) on every
    # G(de, e, r) with d, e <= 8, r <= 6 and at most 5,000 elements
    checked = 0
    for d in range(1, 9):
        for e in range(1, 9):
            for r in range(1, 7):
                desc = GroupDescriptor(d, e, r)
                if desc.order() <= 5000:
                    assert center_order(desc) == len(center(desc)), desc
                    checked += 1
    assert checked == 169


def test_is_central_agrees_with_center():
    # central: w commutes with the standard generators, tested per element
    for desc in (D(3, 3, 3), D(2, 1, 2)):
        Z = center(desc)
        gens = standard_generators(desc)
        for w in enumerate_elements(desc):
            assert all(w * g == g * w for g in gens) == (w in Z.elements)


# --- element construction and text format ------------------------------------

def test_membership_validation():
    with pytest.raises(ValueError):
        MonomialElement(D(3, 3, 2), (0, 1), (1, 1))  # sum 2 not 0 mod 3
    with pytest.raises(ValueError):
        MonomialElement(D(3, 3, 2), (0, 0), (0, 0))  # not a permutation
    with pytest.raises(ValueError):
        MonomialElement(D(3, 3, 2), (0, 1, 2), (0, 0, 0))  # wrong rank


def test_exponents_normalized_mod_de():
    w = MonomialElement(D(3, 3, 2), (0, 1), (-1, 4))
    assert w.exponents == (2, 1)


def test_element_text_roundtrip():
    desc = D(3, 3, 2)
    w = MonomialElement(desc, (1, 0), (1, 2))
    assert str(w) == "perm=[2,1];exp=[1,2]"
    assert parse_element(desc, str(w)) == w
    for v in enumerate_elements(desc):
        assert parse_element(desc, str(v)) == v


def test_value_types_are_tuples_that_copy_and_pickle():
    desc = D(3, 3, 2)
    w = MonomialElement(desc, (1, 0), (1, 2))
    values = [
        desc, w, Swap(0, 1, 2), Coord(1), LiftWitness(Coord(0), power=2),
        LiftReport("w", False, LiftWitness(Swap(0, 1, 0), element=w), "oracle", kind="subgroup"),
        FrobeniusSpec(7, 3, 2), CriterionResult(1, "title", True, "detail"),
        orbits(closure(desc, [w])),
    ]
    for v in values:
        assert isinstance(v, tuple) and v == tuple(v)
        for back in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert back == v and type(back) is type(v)
    assert repr(Swap(0, 1, 2)) == "Swap(i=0, j=1, t=2)"
    assert LiftReport("w", True, None, "fast") == ("w", True, None, "fast", "element")
    assert Swap(0, 1, 2)._replace(t=0) == Swap(i=0, j=1, t=0) < Swap(0, 1, 2)
    for bad in (lambda: Swap(0, 1), lambda: Swap(0, 1, 2, 3), lambda: Coord(i=0, j=1),
                lambda: LiftWitness(power=1), lambda: Swap(0, 1, 2)._replace(k=0)):
        with pytest.raises(TypeError):
            bad()


def test_element_parse_errors():
    desc = D(3, 3, 2)
    with pytest.raises(ParseError):
        parse_element(desc, "perm=[2,1]")
    with pytest.raises(ParseError):
        parse_element(desc, "perm=[2,2];exp=[0,0]")
    with pytest.raises(ParseError):
        parse_element(desc, "perm=[1,2];exp=[1,1]")  # sum not 0 mod e


def test_pad_fixes_new_strands():
    w = from_permutation(D(1, 1, 3), (1, 2, 0))
    padded = pad(w, 5)
    assert padded.descriptor == D(1, 1, 5)
    assert padded.sigma == (1, 2, 0, 3, 4)
    assert padded.order() == w.order()
    with pytest.raises(ValueError):
        pad(w, 2)


def test_subgroup_closes_unclosed_sets():
    desc = D(1, 1, 3)
    t = from_permutation(desc, (1, 0, 2))
    G = Subgroup(desc, [identity(desc), t, from_permutation(desc, (1, 2, 0))])
    assert G.elements == frozenset(enumerate_elements(desc))
    assert Subgroup(desc, [t]).elements == {identity(desc), t}  # identity added
