import pytest

from braidlift import permutations as perms
from braidlift.errors import GuardExceeded
from braidlift.monomial import GroupDescriptor, from_permutation, identity


def test_identity_and_compose():
    assert perms.identity(3) == (0, 1, 2)
    p = (1, 2, 0)
    q = (1, 0, 2)
    # left action: compose(p, q) applies q first
    assert perms.compose(p, q) == tuple(p[q[i]] for i in range(3))
    assert perms.compose(p, perms.invert(p)) == perms.identity(3)


def test_cycles_and_order():
    p = perms.from_cycle(5, (0, 1, 2))
    assert perms.cycles(p) == [(0, 1, 2), (3,), (4,)]
    assert perms.cycle_type(p) == (3, 1, 1)
    assert perms.order(p) == 3
    assert perms.order(perms.identity(4)) == 1
    # the empty permutation: no cycles, and order 1
    assert perms.cycles(()) == [] and perms.cycle_type(()) == () and perms.order(()) == 1


def test_from_cycle_roundtrip():
    p = perms.from_cycle(4, (1, 3))
    assert p == (0, 3, 2, 1)


def test_mulclose_symmetric_group():
    # mulclose closes elements with * and order(): S(4) as monomial elements
    desc = GroupDescriptor(1, 1, 4)
    gens = [from_permutation(desc, perms.from_cycle(4, c)) for c in ((0, 1), (0, 1, 2, 3))]
    assert len(perms.mulclose(gens)) == 24
    with pytest.raises(GuardExceeded):
        perms.mulclose(gens, max_size=10)
    with pytest.raises(GuardExceeded):  # the generators themselves count
        perms.mulclose([identity(desc)], max_size=0)

