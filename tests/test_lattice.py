"""The permutation lattice, cocycle solving and fixed-lattice ranks."""

import random

import pytest

from braidlift import intlinalg
from braidlift.arrangement import Swap, hyperplanes, orbits
from braidlift.errors import InvariantViolation, NoIntegralSolution
from braidlift.lattice import (
    coboundary,
    coboundary_roundtrips,
    fixed_lattice_rank,
    hyperplane_permutation,
    permute_vector,
    small_generating_set,
    trivialize_cocycle,
)
from braidlift.monomial import (
    GroupDescriptor,
    closure,
    diagonal,
    enumerate_elements,
    from_permutation,
    identity,
)

from groups import inverse

D = GroupDescriptor.from_deer
S3 = D(1, 1, 3)
S5 = D(1, 1, 5)


def three_cycle_group():
    return closure(S3, [from_permutation(S3, (1, 2, 0))])


def basis_vector(desc, H):
    """The unit vector of Z[A] at the hyperplane H."""
    index = {P: k for k, P in enumerate(hyperplanes(desc))}
    v = [0] * len(index)
    v[index[H]] = 1
    return tuple(v)


def random_vector(rng, desc):
    return tuple(rng.randint(-9, 9) for _ in hyperplanes(desc))


def test_permute_vector_examples():
    v = basis_vector(S3, Swap(0, 2, 0))
    g = from_permutation(S3, (1, 0, 2))
    assert permute_vector(g, v) == basis_vector(S3, Swap(1, 2, 0))
    assert permute_vector(identity(S3), v) == v


def test_permute_vector_is_linear_action():
    rng = random.Random(5)
    pool = list(enumerate_elements(D(6, 3, 2)))
    for _ in range(80):
        g, h = rng.choice(pool), rng.choice(pool)
        v = random_vector(rng, D(6, 3, 2))
        w = random_vector(rng, D(6, 3, 2))
        vw = tuple(a + b for a, b in zip(v, w))
        assert permute_vector(g, vw) == tuple(
            a + b for a, b in zip(permute_vector(g, v), permute_vector(g, w))
        )
        assert permute_vector(g * h, v) == permute_vector(g, permute_vector(h, v))


def test_hyperplane_permutation_consistency():
    g = diagonal(D(3, 3, 2), (1, 2))
    assert hyperplane_permutation(g) == (2, 0, 1)  # t -> t + 2 mod 3 on Swap(0,1,t)


def test_cocycle_checks():
    # c(gh) = c(g) + g.c(h) on every pair; a map nonzero at the identity fails it.
    G = three_cycle_group()
    v = basis_vector(S3, Swap(0, 1, 0))

    def satisfies_cocycle_identity(c):
        return all(
            c[g * h] == tuple(a + b for a, b in zip(c[g], permute_vector(g, c[h])))
            for g in G
            for h in G
        )

    c = coboundary(v, G)
    assert any(any(cg) for cg in c.values())
    assert satisfies_cocycle_identity(c)
    bad = dict(c)
    bad[identity(S3)] = v
    assert not satisfies_cocycle_identity(bad)


def test_trivialize_zero_cocycle_gives_zero():
    G = three_cycle_group()
    zero = {g: (0, 0, 0) for g in G}
    assert trivialize_cocycle(zero, G) == (0, 0, 0)


def test_trivialize_coboundary_roundtrip():
    G = three_cycle_group()
    c = coboundary(basis_vector(S3, Swap(0, 1, 0)), G)
    x = trivialize_cocycle(c, G)
    assert coboundary(x, G) == c


def test_trivialize_random_combinations_of_coboundaries():
    rng = random.Random(29)
    G = closure(S5, [from_permutation(S5, (1, 2, 3, 4, 0))])
    for _ in range(100):
        c = coboundary(random_vector(rng, S5), G)
        x = trivialize_cocycle(c, G)
        assert coboundary(x, G) == c


def test_trivialize_agrees_with_dense_global_solver():
    # one route: propagation along the generators' Schreier graph
    # (trivialize_cocycle); other route: one dense system stacked over every
    # group element, solved by integer elimination (intlinalg.solve).
    rng = random.Random(31)
    for G in (three_cycle_group(), closure(S3, [from_permutation(S3, (1, 0, 2))])):
        n = len(hyperplanes(S3))
        for _ in range(20):
            c = coboundary(random_vector(rng, S3), G)
            x = trivialize_cocycle(c, G)
            rows, rhs = [], []
            for g in G:
                pi_inv = hyperplane_permutation(inverse(g))
                for h in range(n):
                    row = [0] * n
                    row[h] += 1
                    row[pi_inv[h]] -= 1
                    rows.append(row)
                    rhs.append(c[g][h])
            dense = intlinalg.solve(rows, rhs)
            assert dense is not None
            assert coboundary(tuple(dense), G) == c == coboundary(x, G)


def test_trivialize_rejects_non_cocycles():
    G = three_cycle_group()
    garbage = {g: basis_vector(S3, Swap(0, 1, 0)) for g in G}
    with pytest.raises((NoIntegralSolution, ValueError)):
        trivialize_cocycle(garbage, G)
    with pytest.raises(ValueError):
        trivialize_cocycle({identity(S3): (0, 0, 0)}, G)


def test_small_generating_set():
    G = closure(S5, [from_permutation(S5, (1, 2, 3, 4, 0))])
    gens = small_generating_set(G)
    assert len(gens) == 1
    assert len(closure(S5, gens)) == len(G)


def test_fixed_lattice_rank_examples():
    trivial = closure(S3, [identity(S3)])
    assert fixed_lattice_rank(trivial) == 3
    assert fixed_lattice_rank(three_cycle_group()) == 1
    d332 = D(3, 3, 2)
    G = closure(d332, [diagonal(d332, (1, 2))])
    assert fixed_lattice_rank(G) == 1


def test_fixed_lattice_rank_equals_orbit_count():
    for desc in (D(6, 3, 2), D(2, 2, 3)):
        for w in enumerate_elements(desc):
            G = closure(desc, [w])
            assert fixed_lattice_rank(G) == len(set(orbits(G).root))


def test_fixed_lattice_rank_rejects_a_wrong_elimination(monkeypatch):
    rank = intlinalg.rank
    monkeypatch.setattr(intlinalg, "rank", lambda rows: rank(rows) + 1)
    with pytest.raises(InvariantViolation):
        fixed_lattice_rank(three_cycle_group())


def test_roundtrips_check_a_late_trip_on_every_element(monkeypatch):
    from braidlift import lattice

    solve = lattice._solve_on_generators
    calls = []

    def third_call_off_by_one(forest, values):
        calls.append(None)
        x = list(solve(forest, values))
        if len(calls) == 3:
            x[1] += 1
        return tuple(x)

    monkeypatch.setattr(lattice, "_solve_on_generators", third_call_off_by_one)
    # <(1,2,3)> moves hyperplane 1 within a single orbit of all three.
    with pytest.raises(NoIntegralSolution, match="the coboundary equation fails at"):
        coboundary_roundtrips(three_cycle_group(), 5, random.Random(3))


def test_roundtrips_without_a_gather(monkeypatch):
    from braidlift import lattice

    def no_gather(*indices):
        raise AssertionError("gathered")

    monkeypatch.setattr(lattice, "itemgetter", no_gather)
    assert coboundary_roundtrips(three_cycle_group(), 0, random.Random(0)) is None
    # Arrangements of at most one hyperplane: every pi_g is the identity.
    for G, solution in (
        (closure(D(1, 1, 1), [identity(D(1, 1, 1))]), ()),
        (closure(D(1, 1, 2), [from_permutation(D(1, 1, 2), (1, 0))]), (0,)),
        (closure(D(2, 1, 1), [diagonal(D(2, 1, 1), (1,))]), (0,)),
    ):
        assert len(hyperplanes(G.descriptor)) <= 1
        assert coboundary_roundtrips(G, 3, random.Random(0)) == solution
