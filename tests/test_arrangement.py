"""The arrangement, the action on it, stabilizers and normal scalars."""

import random
from itertools import islice
from types import SimpleNamespace

import pytest

from braidlift import arrangement, errors, lattice
from braidlift.acceptance import GRID
from braidlift.arrangement import (
    Coord,
    Swap,
    _hyperplane_at,
    act,
    acts_faithfully_on_arrangement,
    element_permutations,
    format_hyperplane,
    hyperplane_count,
    hyperplane_permutation,
    hyperplanes,
    orbit_count,
    orbits,
    scalar_on_normal,
    stabilizes,
)
from braidlift.errors import GuardExceeded, MismatchError
from braidlift.lattice import coboundary, coboundary_roundtrips
from braidlift.lifting import subgroup_lifts
from braidlift.monomial import (
    GroupDescriptor,
    center,
    closure,
    diagonal,
    enumerate_elements,
    from_permutation,
    identity,
)

from groups import power

D = GroupDescriptor.from_deer


def test_hyperplane_counts():
    assert len(hyperplanes(D(1, 1, 3))) == 3
    assert len(hyperplanes(D(2, 1, 2))) == 4
    planes = hyperplanes(D(3, 3, 2))
    assert len(planes) == 3 and not any(isinstance(H, Coord) for H in planes)
    for desc in GRID:
        expected = desc.de * desc.r * (desc.r - 1) // 2 + (desc.r if desc.d >= 2 else 0)
        assert len(hyperplanes(desc)) == hyperplane_count(desc) == expected


def test_canonical_order_swaps_then_coords():
    planes = hyperplanes(D(2, 1, 2))
    assert planes == (Swap(0, 1, 0), Swap(0, 1, 1), Coord(0), Coord(1))


def test_act_examples():
    s3 = D(1, 1, 3)
    w = from_permutation(s3, (1, 0, 2))
    assert act(w, Swap(0, 2, 0)) == Swap(1, 2, 0)
    desc = D(6, 3, 2)
    for H in hyperplanes(desc):
        assert act(identity(desc), H) == H
    g = diagonal(D(3, 3, 2), (1, 2))
    assert act(g, Swap(0, 1, 0)) == Swap(0, 1, 2)  # t' = 0 + 1 - 2 mod 3


def test_act_is_left_action():
    rng = random.Random(23)
    for desc in (D(6, 3, 2), D(2, 2, 4), D(2, 1, 3)):
        pool = list(enumerate_elements(desc))
        planes = hyperplanes(desc)
        for _ in range(100):
            u, v = rng.choice(pool), rng.choice(pool)
            H = rng.choice(planes)
            assert act(u * v, H) == act(u, act(v, H))


def test_act_rejects_coord_when_d_is_1():
    with pytest.raises(MismatchError):
        act(identity(D(3, 3, 2)), Coord(0))


def test_stabilizes_examples():
    s3 = D(1, 1, 3)
    assert stabilizes(from_permutation(s3, (1, 0, 2)), Swap(0, 1, 0))
    assert not stabilizes(from_permutation(s3, (1, 2, 0)), Swap(0, 1, 0))
    for desc in (D(6, 3, 2),):
        for H in hyperplanes(desc):
            assert stabilizes(identity(desc), H)


def test_scalar_examples():
    minus_id = diagonal(D(2, 1, 2), (1, 1))
    assert scalar_on_normal(minus_id, Coord(0)) == 2  # -1 in U_4, de = 2

    assert scalar_on_normal(identity(D(6, 3, 2)), Swap(0, 1, 0)) == 0

    refl = from_permutation(D(1, 1, 2), (1, 0))
    assert scalar_on_normal(refl, Swap(0, 1, 0)) == 1  # the sign -1, de = 1


def test_scalar_requires_stabilizer():
    w = from_permutation(D(1, 1, 3), (1, 2, 0))
    with pytest.raises(ValueError):
        scalar_on_normal(w, Swap(0, 1, 0))


def test_scalar_is_multiplicative_along_powers():
    rng = random.Random(31)
    for desc in (D(6, 3, 2), D(2, 2, 3)):
        pool = list(enumerate_elements(desc))
        planes = hyperplanes(desc)
        for _ in range(200):
            w, H, n = rng.choice(pool), rng.choice(planes), rng.randrange(6)
            if stabilizes(w, H) and stabilizes(power(w, n), H):
                s = scalar_on_normal(w, H)
                assert scalar_on_normal(power(w, n), H) == n * s % (2 * desc.de)


def test_in_parabolic_examples():
    # w lies in C_H, the pointwise fixer of H^perp, when it stabilizes H with
    # scalar 1 on the normal line; scalar_on_normal raises off N_H.
    s3 = D(1, 1, 3)
    t = from_permutation(s3, (1, 0, 2))
    assert stabilizes(t, Swap(0, 1, 0)) and scalar_on_normal(t, Swap(0, 1, 0)) != 0
    for H in hyperplanes(s3):
        assert scalar_on_normal(identity(s3), H) == 0
    s5 = D(1, 1, 5)
    w = from_permutation(s5, (0, 1, 3, 4, 2))  # 3-cycle on {3,4,5}
    assert scalar_on_normal(w, Swap(0, 1, 0)) == 0


def test_orbits_examples():
    s3 = D(1, 1, 3)
    G = closure(s3, [from_permutation(s3, (1, 2, 0))])
    # pi = (2, 0, 1): the search from 0 reaches 2, then 1 from 2
    assert orbits(G) == ((0, 0, 0), [2, 1], [0, 2], [0, 0], [(2, 0, 1)])
    trivial = closure(s3, [identity(s3)])
    assert orbits(trivial) == ((0, 1, 2), [], [], [], [(0, 1, 2)])
    assert (orbit_count(G), orbit_count(trivial)) == (1, 3)
    d332 = D(3, 3, 2)
    G = closure(d332, [diagonal(d332, (1, 2))])
    assert orbits(G).root == (0, 0, 0)  # the swaps t = 0, 1, 2 form one orbit


def test_orbits_partition_everything():
    for desc in (D(6, 3, 2), D(2, 2, 3)):
        G = closure(desc, [next(iter(enumerate_elements(desc)))])
        root = orbits(G).root
        assert len(root) == len(hyperplanes(desc))
        # every label is a root, labelled by itself, and one orbit per root
        assert all(root[k] == k <= j for j, k in enumerate(root))
        assert orbit_count(G) == len(set(root))


def test_faithfulness_examples():
    d212 = D(2, 1, 2)
    assert not acts_faithfully_on_arrangement(closure(d212, [diagonal(d212, (1, 1))]))
    s3 = D(1, 1, 3)
    assert acts_faithfully_on_arrangement(closure(s3, [identity(s3)]))
    assert acts_faithfully_on_arrangement(closure(s3, [from_permutation(s3, (1, 2, 0))]))


def test_faithfulness_equals_trivial_center_intersection():
    # G(1,1,2) and G(2,2,2) are abelian, G(2,1,1) and G(4,2,1) of rank 1:
    # every element is central there.
    for desc in (D(2, 1, 2), D(3, 3, 3), D(6, 6, 2), D(1, 1, 2), D(2, 2, 2), D(2, 1, 1),
                 D(4, 2, 1)):
        Z = center(desc)
        for w in enumerate_elements(desc):
            G = closure(desc, [w])
            expected = all(g.is_identity for g in G.elements & Z.elements)
            assert acts_faithfully_on_arrangement(G) == expected


def test_faithfulness_needs_nonempty_arrangement():
    desc = D(1, 1, 1)
    with pytest.raises(ValueError):
        acts_faithfully_on_arrangement(closure(desc, [identity(desc)]))


def test_permutation_table_checks_its_guard_first(monkeypatch):
    s4 = D(1, 1, 4)  # 24 elements x 6 hyperplanes = 144 table entries
    gens = [from_permutation(s4, (1, 2, 3, 0)), from_permutation(s4, (1, 0, 2, 3))]
    monkeypatch.setattr(errors, "ENUMERATION_GUARD", 143)
    G = closure(s4, gens)
    with pytest.raises(GuardExceeded, match="24 elements x 6 hyperplanes exceed"):
        element_permutations(G)
    with pytest.raises(GuardExceeded):
        coboundary((0,) * 6, G)
    monkeypatch.setattr(errors, "ENUMERATION_GUARD", 144)
    assert len(element_permutations(G)) == 24


def affine_closure(p, m):
    """Z/p : Z/q in S(p), generated by x -> x + 1 and x -> m*x."""
    desc = D(1, 1, p)
    return closure(desc, [from_permutation(desc, [(x + 1) % p for x in range(p)]),
                          from_permutation(desc, [m * x % p for x in range(p)])])


def test_whole_subgroup_tests_build_no_permutation_table(monkeypatch):
    def no_table(G):
        raise AssertionError("built the table of every element's permutation")

    monkeypatch.setattr(arrangement, "element_permutations", no_table)
    monkeypatch.setattr(lattice, "element_permutations", no_table)
    # Z/31 : Z/5 has 155 elements and 3 orbits on 465 hyperplanes, Z/7 : Z/3
    # 21 elements and one orbit on 21; both lift and act freely.
    for p, m, n_orbits in ((31, 2, 3), (7, 2, 1)):
        G = affine_closure(p, m)
        assert orbit_count(G) == n_orbits
        assert subgroup_lifts(G).lifts
        assert acts_faithfully_on_arrangement(G)
        # The round trips read the generators and their forest only: a
        # stand-in with neither elements nor a length gets the same answer.
        generators_only = SimpleNamespace(descriptor=G.descriptor, generators=G.generators)
        solution = coboundary_roundtrips(G, 5, random.Random(0))
        assert coboundary_roundtrips(generators_only, 5, random.Random(0)) == solution


def test_hyperplane_text_roundtrip():
    desc = D(6, 3, 2)
    assert format_hyperplane(Swap(0, 1, 4)) == "H[1,2;4]"
    assert format_hyperplane(Coord(1)) == "H[2]"
    # each hyperplane has its own text, so a witness's text names one plane
    texts = {format_hyperplane(H): H for H in hyperplanes(desc)}
    assert list(texts.values()) == list(hyperplanes(desc))


def test_hyperplane_index_is_canonical():
    # The one index is the arithmetic numbering: identity images and decoding.
    for desc in GRID:
        planes = hyperplanes(desc)
        assert hyperplane_permutation(identity(desc)) == tuple(range(len(planes)))
        for k, H in enumerate(planes):
            assert _hyperplane_at(desc, k) == H and type(_hyperplane_at(desc, k)) is type(H)


def test_arrangement_caches_are_bounded():
    # The one arrangement cache is hyperplane_permutation's, keyed by element.
    bound = arrangement.HYPERPLANE_CACHE_SIZE
    elements = list(islice(enumerate_elements(D(1, 1, 7)), bound + 6))
    for g in elements:
        hyperplane_permutation(g)
    assert hyperplane_permutation.cache_info().currsize == bound
    # evicted or not, every permutation still equals a fresh numbering
    for g in elements:
        assert hyperplane_permutation(g) == hyperplane_permutation.__wrapped__(g)
