"""Property tests on random subgroups of small G(de, e, r).

Subgroups are drawn as closures of one or two random elements; a closure
above SUBGROUP_CAP elements falls back to the cyclic group of the first
element, which keeps the all-pairs reference check below cheap.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from braidlift.arrangement import hyperplanes
from braidlift.errors import GuardExceeded
from braidlift.lattice import coboundary, trivialize_cocycle
from braidlift.monomial import GroupDescriptor, MonomialElement, Subgroup, closure

SUBGROUP_CAP = 60
PROPERTY_SETTINGS = settings(max_examples=100, deadline=None)


@st.composite
def descriptors(draw):
    r = draw(st.integers(1, 4))
    de = draw(st.integers(1, 6))
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


def closed_by_all_pairs(els) -> bool:
    """Reference check: a non-empty finite set closed under products is a group."""
    return bool(els) and all(u * v in els for u in els for v in els)


@PROPERTY_SETTINGS
@given(st.data())
def test_subgroup_accepts_exactly_the_closed_sets(data):
    G = data.draw(subgroups())
    els = set(G.elements)
    if data.draw(st.booleans()):
        els.discard(data.draw(st.sampled_from(G.sorted_elements)))
    else:
        els.add(elements(data.draw, G.descriptor))
    try:
        Subgroup(G.descriptor, frozenset(els))
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == closed_by_all_pairs(els)


@PROPERTY_SETTINGS
@given(subgroups(), st.data())
def test_trivialize_cocycle_roundtrips_coboundaries(G, data):
    width = len(hyperplanes(G.descriptor))
    x0 = tuple(data.draw(st.lists(st.integers(-9, 9), min_size=width, max_size=width)))
    c = coboundary(x0, G)
    assert coboundary(trivialize_cocycle(c, G), G) == c
