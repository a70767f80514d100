"""Run every verification criterion at its stated tolerance (all exact).

Each test prints the one-line verdict for its criterion, so a verbose run
reads as the full scorecard.
"""

from _random import Random

import pytest

from braidlift import acceptance
from braidlift import permutations as perms
from braidlift.acceptance import (
    GRID,
    _choice,
    _cyclic_subgroups,
    _distinct_subgroups,
    _s5_sample_subgroups,
)
from braidlift.monomial import GroupDescriptor, closure, enumerate_elements, from_permutation

TITLES = {
    1: "oracle/fast equivalence",
    2: "headline diagonal examples",
    3: "even order never lifts",
    4: "Bieberbach classification",
    5: "symmetric groups: lift iff odd order",
    6: "free action equivalence in S_5",
    7: "free action equivalence, monomial",
    8: "Frobenius coset actions",
    9: "Cayley embeddings lift",
    10: "constructive H^1 vanishing",
    11: "normalizer lattice rank",
    12: "stability under padding",
}


@pytest.mark.parametrize("number", sorted(TITLES))
def test_criterion(number):
    result = acceptance._CRITERIA[number - 1]()
    print(result.line())
    assert result.title == TITLES[number]
    assert result.passed, result.detail


def test_run_all_covers_every_criterion():
    results = acceptance.run_all()
    assert [r.number for r in results] == list(range(1, 13))
    assert all(r.passed for r in results)


def full_closures(desc, spans):
    """The reference: every span closed in full, each group kept as its first span."""
    return [(G.generators, G.elements) for G in dict.fromkeys(closure(desc, gens) for gens in spans)]


def kept(groups):
    return [(G.generators, G.elements) for G in groups]


def test_s5_sample_subgroups_equal_the_full_closure_reference():
    desc = GroupDescriptor(1, 1, 5)
    rng = Random(0x5EED)
    elements = [from_permutation(desc, p) for p in perms.all_permutations(5)]
    three_cycles = [w for w in elements if perms.order(w.sigma) == 3]
    spans = [[w] for w in elements]
    spans += [[_choice(rng, three_cycles), _choice(rng, three_cycles)] for _ in range(50)]
    reference = full_closures(desc, spans)
    assert len(reference) == 73
    assert kept(_s5_sample_subgroups()) == reference
    assert all(G.descriptor == desc for G in _s5_sample_subgroups())


@pytest.mark.parametrize("desc", GRID, ids=str)
def test_cyclic_subgroups_equal_the_full_closure_reference(desc):
    spans = [[w] for w in enumerate_elements(desc)]
    assert kept(_cyclic_subgroups(desc)) == full_closures(desc, spans)


def test_a_span_of_index_two_in_its_host_is_kept():
    # In K = S_4, A_4 = <(1 2 3), (2 3 4)> has |K|/2 elements: closed under
    # the cap |K|/2 it is a proper subgroup, not K.  <(1 2), (2 3 4)> is S_4
    # again and passes the cap.
    desc = GroupDescriptor(1, 1, 4)
    s4 = [from_permutation(desc, perms.from_cycle(4, c)) for c in ((0, 1, 2, 3), (0, 1))]
    a4 = [from_permutation(desc, perms.from_cycle(4, c)) for c in ((0, 1, 2), (1, 2, 3))]
    s4_again = [s4[1], a4[1]]
    groups = _distinct_subgroups(desc, [s4, a4, s4_again])
    assert [len(G) for G in groups] == [24, 12]
    assert kept(groups) == full_closures(desc, [s4, a4, s4_again])
