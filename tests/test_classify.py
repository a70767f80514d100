"""Classification predicates against their brute-force counterparts."""

import math
from functools import lru_cache

import pytest

from braidlift import classify, errors
from braidlift import permutations as perms
from braidlift.acceptance import (
    GRID,
    _cayley_images,
    _oracle_lifts,
    _s5_sample_subgroups,
)
from braidlift.classify import (
    EXCEPTIONAL_BIEBERBACH,
    FrobeniusSpec,
    PermutationGroup,
    as_symmetric_subgroup,
    bieberbach_bruteforce,
    cayley_embedding,
    free_action_general,
    frobenius_coset_action,
    has_free_cycle_type,
    has_free_monomial_type,
    has_odd_lift_property,
    is_bieberbach_series,
)
from braidlift.errors import GuardExceeded, InvariantViolation
from braidlift.lifting import element_lifts_oracle, oracle_verdicts, subgroup_lifts
from braidlift.monomial import (
    GroupDescriptor,
    MonomialElement,
    class_representatives,
    closure,
    diagonal,
    enumerate_elements,
    from_permutation,
    identity,
    prime_order_classes,
)

from groups import cycle_class, power

D = GroupDescriptor.from_deer


def test_bieberbach_formula_examples():
    assert is_bieberbach_series(D(4, 2, 2))
    assert not is_bieberbach_series(D(3, 3, 2))
    assert is_bieberbach_series(D(4, 4, 2))  # e = 2^2
    assert is_bieberbach_series(D(5, 1, 1))  # rank 1
    assert not is_bieberbach_series(D(1, 1, 4))


def test_bieberbach_bruteforce_examples():
    assert not bieberbach_bruteforce(D(3, 3, 2))
    assert bieberbach_bruteforce(D(1, 1, 2))
    assert not bieberbach_bruteforce(D(2, 1, 3))
    # |G| = 3,628,800 is past the guard, but its first class, three 3-cycles, lifts.
    assert not bieberbach_bruteforce(D(1, 1, 10))
    # Its first class, 33,333,333 3-cycles, would be charged past the budget.
    with pytest.raises(GuardExceeded):
        bieberbach_bruteforce(D(99999999999, 1, 99999999))


class RecordingBudget(errors.Budget):
    """A budget that logs each charge and its message."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def spend(self, steps, what):
        self.log.append((steps, what))
        super().spend(steps, what)


def test_bieberbach_walk_charges_before_each_step(monkeypatch):
    # G(707,1,2), 707 = 7 x 101, |A| = 709.  The trial divisions: 3, 5 and
    # 7 into 707, 7 into the 101 left, and 9 into 101, 11^2 > 101 ending the
    # walk.  The tuples of fixed-point colours j in Z/p: (0,0), (0,1) and
    # (1,j) for p = 7 and 101, 8 + 102 built; the transposition for p = 2.
    # Kept: (0,1) and the (1,j) with j <= 1/j mod p, 5 + 52, and one for 2.
    log = []
    inner = classify.prime_order_classes

    def logged(desc, budget):
        for w in inner(desc, budget):
            log.append(w)
            yield w

    monkeypatch.setattr(classify, "prime_order_classes", logged)
    assert bieberbach_bruteforce(D(707, 1, 2), RecordingBudget(log))
    charges = [entry for entry in log if type(entry) is tuple]
    assert {what for _, what in charges} == {"the brute-force scans' oracle steps"}
    classes = [k for k, entry in enumerate(log) if type(entry) is not tuple]
    # every class is charged r = 2 just before it is yielded, then scanned
    assert len(classes) == 58
    assert all(log[k - 1] == (2, charges[0][1]) for k in classes)
    steps = [n for n, _ in charges]
    assert steps.count(1) == 5 + 8 + 102 + 1
    # each class of prime order p violates at its first power, one scan of |A|
    assert steps.count(709) == 58 and steps.count(2) == 58 and len(steps) == 116 + 116


def test_bieberbach_formula_equals_bruteforce_on_grid():
    for desc in GRID:
        assert is_bieberbach_series(desc) == bieberbach_bruteforce(desc), desc


#: Every G(de, e, r) inside the guard with de <= 30 and r <= 6: 430 groups.
GALOIS_GROUPS = [
    desc for de in range(1, 31) for e in range(1, de + 1) if de % e == 0 for r in range(1, 7)
    if not (desc := D(de, e, r)).order_exceeds(errors.ENUMERATION_GUARD)
]


def is_prime(n):
    return n > 1 and all(n % f for f in range(2, math.isqrt(n) + 1))


@lru_cache(maxsize=None)
def prime_order_representatives(desc):
    """The prime-order elements among ``class_representatives``."""
    return [w for w in class_representatives(desc) if is_prime(w.order())]


def test_prime_order_classes_are_the_least_of_each_galois_orbit():
    # Scaling every exponent by a unit k mod de maps classes to classes;
    # the generator yields each orbit's least class, once.
    for desc in GALOIS_GROUPS:
        de = desc.de
        units = [k for k in range(1, de + 1) if math.gcd(k, de) == 1]
        classes = map(cycle_class, prime_order_representatives(desc))
        least = {min(tuple(sorted((L, k * c % de) for L, c in cls)) for k in units)
                 for cls in classes}
        generated = [cycle_class(w) for w in prime_order_classes(desc, errors.Budget())]
        assert len(generated) == len(set(generated)) and set(generated) == least, desc


def test_bruteforce_column_equals_the_formula_and_the_order_filtered_walk():
    for desc in GALOIS_GROUPS:
        # the walk before the Galois reduction: every class, filtered by its order
        walk = not any(oracle_verdicts((w,))[w] for w in prime_order_representatives(desc))
        assert bieberbach_bruteforce(desc) == is_bieberbach_series(desc) == walk, desc


def test_powers_of_lifting_elements_lift_on_grid():
    # The lemma behind bieberbach_bruteforce's prime-order filter.
    for desc in GRID:
        lifts = _oracle_lifts(desc)
        for w in (w for w, ok in lifts.items() if ok):
            for k in range(2, w.order()):
                assert lifts[power(w, k)], (desc, w, k)


def test_exceptional_list():
    assert "G_5" in EXCEPTIONAL_BIEBERBACH
    assert "G_8" not in EXCEPTIONAL_BIEBERBACH
    assert len(EXCEPTIONAL_BIEBERBACH) == 12


def test_odd_lift_property_examples():
    assert has_odd_lift_property(D(1, 1, 5))
    assert has_odd_lift_property(D(3, 3, 2))  # dihedral family, e >= 3
    assert not has_odd_lift_property(D(3, 1, 2))
    assert has_odd_lift_property(D(4, 1, 1))
    assert not has_odd_lift_property(D(3, 1, 1))


def test_odd_lift_property_equals_bruteforce_on_grid():
    for desc in GRID:
        brute = all(
            element_lifts_oracle(w).lifts
            for w in enumerate_elements(desc)
            if w.order() % 2 == 1
        )
        assert has_odd_lift_property(desc) == brute, desc


def free_type(perm):
    return has_free_cycle_type(perms.cycle_type(perm))


def test_free_cycle_type_examples():
    assert not free_type(perms.from_cycle(6, (0, 1, 2)))  # three fixed points
    two_threes = perms.compose(perms.from_cycle(6, (0, 1, 2)), perms.from_cycle(6, (3, 4, 5)))
    assert free_type(two_threes)
    assert free_type(perms.from_cycle(4, (0, 1, 2)))
    assert not free_type(perms.compose(perms.from_cycle(4, (0, 1)), perms.from_cycle(4, (2, 3))))
    assert free_type(perms.identity(5))
    assert not free_type(perms.from_cycle(5, (0, 1, 2)))  # two fixed points


def test_free_action_symmetric_examples():
    # In S_5 the hyperplanes are the 2-subsets, so free_action_general decides
    # free action on them.
    five = PermutationGroup(5, [perms.from_cycle(5, tuple(range(5)))])
    assert free_action_general(five)
    assert not free_action_general(PermutationGroup(5, [perms.from_cycle(5, (0, 1))]))
    assert free_action_general(PermutationGroup(5, []))


def test_free_monomial_type_examples():
    w = from_permutation(D(6, 3, 3), (1, 2, 0))
    twisted = type(w)(w.descriptor, w.sigma, (1, 1, 1))
    assert not has_free_monomial_type(twisted)  # cycle product z^3 != 1
    plain = from_permutation(D(2, 1, 3), (1, 2, 0))
    assert has_free_monomial_type(plain)
    assert free_action_general(closure(plain.descriptor, [plain]))
    assert has_free_monomial_type(identity(D(6, 3, 3)))
    assert not has_free_monomial_type(diagonal(D(6, 3, 3), (2, 2, 2)))


def test_free_action_implies_subgroup_lifts():
    for desc in (D(2, 1, 3), D(4, 2, 2)):
        for w in enumerate_elements(desc):
            G = closure(desc, [w])
            if free_action_general(G):
                assert subgroup_lifts(G).lifts


def test_frobenius_examples():
    group, _ = frobenius_coset_action(FrobeniusSpec(7, 3, 2))
    ident = perms.identity(7)
    for g in group:
        if g.sigma == ident:
            continue
        lengths = sorted(len(c) for c in perms.cycles(g.sigma))
        if perms.order(g.sigma) == 7:
            assert lengths == [7]  # 7/7 = 1 cycle, no fixed point
        else:
            assert perms.order(g.sigma) == 3
            assert lengths == [1, 3, 3]  # one fixed coset, (7-1)/3 cycles
    assert len(group) == 21


def reference_affine_action(spec):
    """The maps x -> c x + b on Z/p, c a power of m, as permutation tuples."""
    p, q, m = spec
    elements, c = set(), 1
    for _ in range(q):
        for b in range(p):
            elements.add(tuple((c * x + b) % p for x in range(p)))
        c = c * m % p
    return elements


@pytest.mark.parametrize("p, q", [(7, 3), (13, 3), (31, 5), (61, 5)])
def test_frobenius_closure_equals_the_affine_maps(p, q):
    spec = FrobeniusSpec.find(p, q)
    group, _ = frobenius_coset_action(spec)
    assert group.descriptor == GroupDescriptor(1, 1, p)
    assert {g.sigma for g in group} == reference_affine_action(spec)
    assert all(not any(g.exponents) for g in group)


def test_frobenius_structure_holds_for_larger_parameters():
    # construction self-checks fixed points and cycle shapes; it must not raise
    for p, q in ((7, 3), (13, 3), (31, 5)):
        group, _ = frobenius_coset_action(FrobeniusSpec.find(p, q))
        assert len(group) == p * q


@pytest.mark.parametrize("p, q", [(7, 3), (13, 3), (61, 5)])
def test_frobenius_construction_returns_the_measured_cycle_types(p, q):
    group, types = frobenius_coset_action(FrobeniusSpec.find(p, q))
    ident = perms.identity(p)
    assert types == {perms.cycle_type(g.sigma) for g in group if g.sigma != ident}
    assert all(map(has_free_cycle_type, types))


def test_frobenius_construction_rejects_a_wrong_cycle_type(monkeypatch):
    monkeypatch.setattr(perms, "cycle_type", lambda g: (1,) * len(g))
    with pytest.raises(InvariantViolation):
        frobenius_coset_action(FrobeniusSpec(7, 3, 2))


def test_free_action_equivalence_on_s4_cyclic_subgroups():
    for g in perms.all_permutations(4):
        P = PermutationGroup(4, [g])
        assert free_action_general(P) == all(free_type(h.sigma) for h in P)


def test_frobenius_spec_validation():
    with pytest.raises(ValueError):
        FrobeniusSpec.find(9, 3)  # p not prime
    with pytest.raises(ValueError):
        FrobeniusSpec.find(7, 4)  # q even
    with pytest.raises(ValueError):
        FrobeniusSpec.find(7, 5)  # q does not divide p - 1
    # ord(3 mod 7) = 6, not 3: the construction counts the elements
    with pytest.raises(InvariantViolation, match="affine action of order 21 has 42 elements"):
        frobenius_coset_action(FrobeniusSpec(7, 3, 3))
    assert FrobeniusSpec.find(13, 3).m == 3


def test_cayley_embedding_cyclic():
    z3 = PermutationGroup(3, [perms.from_cycle(3, (0, 1, 2))])
    image = cayley_embedding(z3)
    assert image.degree == 3 and len(image) == 3
    assert any(perms.cycle_type(g.sigma) == (3,) for g in image)
    assert subgroup_lifts(image).lifts


def test_cayley_embedding_refuses_an_unfaithful_image():
    # translations by too few generators close to a smaller group than G: a
    # stand-in with Z/3's elements and no generators, leaving Z/3 itself intact
    z3 = PermutationGroup(3, [perms.from_cycle(3, (0, 1, 2))])

    class NoGenerators:
        sorted_elements = z3.sorted_elements
        generators = ()

        def __len__(self):
            return len(z3)

    with pytest.raises(InvariantViolation, match="not faithful"):
        cayley_embedding(NoGenerators())


def test_cayley_embedding_trivial_and_monomial_input():
    trivial = PermutationGroup(1, [])
    assert cayley_embedding(trivial).degree == 1
    desc = D(3, 3, 2)
    G = closure(desc, [diagonal(desc, (1, 2))])
    image = cayley_embedding(G)
    assert image.degree == 3 and len(image) == 3


def test_cayley_embedding_charges_its_translations_first(monkeypatch):
    # 1009 x 1009 left translations exceed the guard: refused before any product.
    desc = D(1009, 1, 1)
    G = closure(desc, [diagonal(desc, (1,))])
    monkeypatch.setattr(MonomialElement, "__mul__", None)
    with pytest.raises(GuardExceeded, match="1009 x 1009 left translations"):
        cayley_embedding(G)
    monkeypatch.undo()
    # |G|^2 is charged exactly: 3 x 3 translations need a guard of 9.
    desc = D(3, 3, 2)
    G = closure(desc, [diagonal(desc, (1, 2))])
    monkeypatch.setattr(errors, "ENUMERATION_GUARD", 8)
    with pytest.raises(GuardExceeded, match="guard 8"):
        cayley_embedding(G)
    monkeypatch.setattr(errors, "ENUMERATION_GUARD", 9)
    assert cayley_embedding(G).degree == 3


def test_cayley_embedding_frobenius():
    image = cayley_embedding(frobenius_coset_action(FrobeniusSpec(7, 3, 2))[0])
    assert image.degree == 21 and len(image) == 21
    assert all(free_type(g.sigma) for g in image)


def test_permutation_group_validation():
    with pytest.raises(ValueError):
        PermutationGroup(3, [perms.identity(3), (0, 0, 1)])  # not a permutation
    with pytest.raises(ValueError):
        PermutationGroup(3, [perms.identity(4)])  # wrong degree
    with pytest.raises(ValueError):
        PermutationGroup(0, [])  # G(1,1,0) does not exist
    # an unclosed set of generators is closed: {(1 2), (1 2 3)} gives S_3
    desc = GroupDescriptor(1, 1, 3)
    P = PermutationGroup(3, [perms.from_cycle(3, (0, 1)), perms.from_cycle(3, (0, 1, 2))])
    assert P.elements == {from_permutation(desc, g) for g in perms.all_permutations(3)}
    assert PermutationGroup(3, []).elements == {identity(desc)}


def test_symmetric_image_keeps_the_generators_of_its_group():
    # On every permutation group verify builds: the group is its own image in
    # G(1,1,n), the closure of all its elements, all with zero exponents.
    groups = list(_s5_sample_subgroups())
    groups += [image for _, image in _cayley_images()]
    for P in groups:
        desc = GroupDescriptor(1, 1, P.descriptor.r)
        assert as_symmetric_subgroup(P) is P
        assert P == closure(desc, list(P))
        assert all(g.descriptor == desc and not any(g.exponents) for g in P)
