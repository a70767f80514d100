"""Lifting criteria: oracle, fast case analysis, subgroup tests, and two
cheap obstructions the oracle must agree with."""

import json
import random
from collections import Counter

import pytest

from braidlift import acceptance, arrangement, classify, lifting
from braidlift.acceptance import GRID, _elements
from braidlift.arrangement import (
    Coord,
    Swap,
    format_hyperplane,
    hyperplanes,
    orbits,
    scalar_on_normal,
    stabilizes,
)
from braidlift.errors import Budget
from braidlift.lifting import (
    LiftWitness,
    element_lifts_fast,
    element_lifts_oracle,
    oracle_verdicts,
    subgroup_lifts,
)
from braidlift.monomial import (
    GroupDescriptor,
    center,
    closure,
    diagonal,
    enumerate_elements,
    from_permutation,
    identity,
    pad,
    parse_element,
    standard_generators,
)

from groups import power

D = GroupDescriptor.from_deer


def test_oracle_headline_examples():
    assert element_lifts_oracle(diagonal(D(3, 3, 2), (1, 2))).lifts

    report = element_lifts_oracle(from_permutation(D(1, 1, 4), (1, 0, 2, 3)))
    assert not report.lifts
    assert report.witness is not None
    assert report.witness.power == 1
    assert format_witness_hyperplane(report) == "H[1,2;0]"

    assert element_lifts_oracle(identity(D(2, 1, 3))).lifts


def format_witness_hyperplane(report):
    return report.witness.to_json()["hyperplane"]


def test_fast_examples():
    # diag(z, z^-1, 1) with z of odd order q lifts in G(q, q, 3)
    for q in (3, 5, 7):
        w = diagonal(D(q, q, 3), (1, q - 1, 0))
        assert element_lifts_fast(w)
    # z = i has even order: no lifting in G(4,4,2)
    assert not element_lifts_fast(diagonal(D(4, 4, 2), (1, 3)))
    # plain 3-cycle lifts in S_4
    assert element_lifts_fast(from_permutation(D(1, 1, 4), (1, 2, 0, 3)))


def test_fast_fixed_points_beside_a_cycle_when_d_is_1():
    # d = 1 has no coordinate hyperplanes, so fixed points beside a zero-sum
    # 3-cycle need only the pairwise diagonal rule, not exponent 0
    lifting = parse_element(D(5, 5, 5), "perm=[1,2,4,5,3];exp=[1,4,0,0,0]")
    blocked = parse_element(D(9, 9, 6), "perm=[1,2,3,5,6,4];exp=[3,3,3,0,0,0]")
    for w, lifts in ((lifting, True), (blocked, False)):
        assert element_lifts_oracle(w).lifts == element_lifts_fast(w) == lifts


def test_fast_rank_one_only_identity():
    desc = D(4, 2, 1)
    for w in enumerate_elements(desc):
        assert element_lifts_fast(w) == w.is_identity
        assert element_lifts_oracle(w).lifts == w.is_identity


def test_oracle_equals_fast_spot_checks():
    for desc in (D(6, 3, 2), D(2, 2, 4), D(5, 5, 2), D(3, 1, 2)):
        for w in enumerate_elements(desc):
            assert element_lifts_oracle(w).lifts == element_lifts_fast(w)


@pytest.mark.parametrize("pair, orders", [
    ((D(2, 1, 2), D(4, 4, 2)), {1: 1}),
    ((D(3, 3, 2), D(1, 1, 3)), {1: 1, 3: 2}),
    ((D(2, 2, 3), D(1, 1, 4)), {1: 1, 3: 8}),
], ids=["G(2,1,2)=G(4,4,2)", "G(3,3,2)=S(3)", "G(2,2,3)=S(4)"])
def test_isomorphic_groups_lift_the_same_elements_by_order(pair, orders):
    # Each pair is one reflection group under two names, with one braid
    # group, so both names count their lifting elements alike by order.
    for desc in pair:
        verdicts = oracle_verdicts(enumerate_elements(desc))
        assert Counter(w.order() for w, lifts in verdicts.items() if lifts) == orders, desc


def test_verdict_walk_equals_the_oracle_on_the_grid():
    # One call per group, so powers shared between its elements are looked up.
    for desc in GRID:
        elements = _elements(desc)
        assert oracle_verdicts(elements) == {w: element_lifts_oracle(w).lifts for w in elements}


def record_numberings(monkeypatch):
    """The list of elements the oracle numbers by ``_index_permutation`` from now on."""
    numbered = []
    index_permutation = lifting._index_permutation

    def counting(g):
        numbered.append(g)
        return index_permutation(g)

    monkeypatch.setattr(lifting, "_index_permutation", counting)
    return numbered


def test_verdict_callers_scan_each_power_once_and_name_no_witness(monkeypatch):
    numbered, scanned = record_numberings(monkeypatch), []
    least_violation = lifting._least_violation

    def scanning(pi, sigma, a, r, de):
        scanned.append((sigma, a))
        return least_violation(pi, sigma, a, r, de)

    def refuse(w):
        raise AssertionError(f"element_lifts_oracle called on {w}")

    monkeypatch.setattr(lifting, "_least_violation", scanning)
    for module in (lifting, acceptance, classify):
        for name, value in list(vars(module).items()):
            if value is element_lifts_oracle:
                monkeypatch.setattr(module, name, refuse)
    s6 = D(1, 1, 6)
    # One oracle_verdicts call: each of the 720 elements is scanned exactly
    # once, as itself or as a power of an element before it; a power after
    # a scanned one is composed, not numbered.
    lifts = acceptance._oracle_lifts.__wrapped__(s6)
    assert sorted(scanned) == sorted((w.sigma, w.exponents) for w in _elements(s6))
    assert len(numbered) < 720
    # odd order: the identity, 3-cycles, pairs of 3-cycles and 5-cycles
    assert sum(lifts.values()) == 1 + 40 + 40 + 144
    scanned.clear()
    assert classify.bieberbach_bruteforce(D(24, 1, 2))
    assert scanned


def test_oracle_numbers_a_long_cycle_once_and_composes_its_powers(monkeypatch):
    numbered = record_numberings(monkeypatch)
    w = from_permutation(D(1, 1, 99), tuple(range(1, 97)) + (0, 97, 98))  # a 97-cycle
    assert element_lifts_oracle(w).lifts  # odd order in a symmetric group
    assert numbered == [w]


def test_verdict_walk_charges_each_power_it_scans_once():
    # S(4) has 6 hyperplanes.  A transposition violates at its first power;
    # a 3-cycle lifts, so its walk scans w, w^2 and the identity, and a
    # second walk over the same powers scans none of them again.
    s4 = D(1, 1, 4)
    transposition = from_permutation(s4, (1, 0, 2, 3))
    three_cycle = from_permutation(s4, (1, 2, 0, 3))
    for ws, steps in (((transposition,), 6), ((three_cycle,), 18), ((three_cycle,) * 2, 18)):
        budget = Budget()
        oracle_verdicts(ws, budget)
        assert budget.total - budget.left == steps, ws


def test_failing_witnesses_are_verifiable():
    for desc in (D(6, 3, 2), D(1, 1, 4)):
        for w in enumerate_elements(desc):
            report = element_lifts_oracle(w)
            if report.lifts:
                assert report.witness is None
                continue
            assert report.witness is not None
            u = power(w, report.witness.power)
            H = report.witness.hyperplane
            assert stabilizes(u, H) and scalar_on_normal(u, H) != 0


def test_subgroup_examples():
    s3 = D(1, 1, 3)
    three = closure(s3, [from_permutation(s3, (1, 2, 0))])
    assert subgroup_lifts(three).lifts

    flip = closure(s3, [from_permutation(s3, (1, 0, 2))])
    report = subgroup_lifts(flip)
    assert not report.lifts
    assert report.witness is not None and report.witness.element is not None

    trivial = closure(s3, [identity(s3)])
    assert subgroup_lifts(trivial).lifts


def test_subgroup_witness_away_from_the_orbit_representative():
    # All of S(6): one orbit, scanned at H[1,2;0], where the least violating
    # element in sorted order is the transposition (1 2).  The witness is the
    # sorted scan's first violation instead: (5 6) at H[5,6;0].
    s6 = D(1, 1, 6)
    G = closure(s6, [from_permutation(s6, (1, 2, 3, 4, 5, 0)),
                     from_permutation(s6, (1, 0, 2, 3, 4, 5))])
    assert set(orbits(G).root) == {0}
    assert format_hyperplane(hyperplanes(s6)[0]) == "H[1,2;0]"
    assert subgroup_lifts(G).witness.to_json() == {
        "hyperplane": "H[5,6;0]", "element": "perm=[1,2,3,4,6,5];exp=[0,0,0,0,0,0]",
    }


def test_subgroup_witness_scan_numbers_generators_uncached(monkeypatch):
    numbered = []
    index_permutation = arrangement._index_permutation

    def counting(g):
        numbered.append(g)
        return index_permutation(g)

    monkeypatch.setattr(arrangement, "_index_permutation", counting)
    monkeypatch.setattr(lifting, "_index_permutation", counting)
    arrangement.hyperplane_permutation.cache_clear()
    s40 = D(1, 1, 40)
    swap = from_permutation(s40, (1, 0, *range(2, 40)))
    report = subgroup_lifts(closure(s40, [swap]))
    assert not report.lifts and report.witness.element == swap
    # numbered once, by orbits through the cache; the witness scan reads that
    # copy off the forest, not the cache
    assert numbered == [swap]
    assert arrangement.hyperplane_permutation.cache_info().hits == 0


def test_subgroup_local_equivalence():
    rng = random.Random(41)
    for desc in (D(3, 3, 3), D(2, 2, 3)):
        pool = list(enumerate_elements(desc))
        groups = [closure(desc, [w]) for w in pool]
        groups += [closure(desc, [rng.choice(pool), rng.choice(pool)]) for _ in range(20)]
        for G in groups:
            assert subgroup_lifts(G).lifts == all(oracle_verdicts(G).values())


def test_liftable_implies_odd_order():
    for desc in (D(6, 6, 2), D(2, 1, 3)):
        for w in enumerate_elements(desc):
            if element_lifts_oracle(w).lifts:
                assert w.order() % 2 == 1


def test_liftable_subgroup_meets_center_trivially():
    for desc in (D(3, 3, 3), D(6, 6, 2)):
        Z = center(desc)
        for w in enumerate_elements(desc):
            G = closure(desc, [w])
            if subgroup_lifts(G).lifts:
                assert all(g.is_identity for g in G.elements & Z.elements)


def obstruction_shortcuts(w):
    """A cheap reason why w cannot lift, or None.

    "even-order": a power of w is an order-2 element, which never lifts.
    "central-power": some power w^k (1 <= k < order) is a nontrivial central
    element, which fixes every hyperplane but acts as a nontrivial scalar on
    every normal line.  Either reason forces every lifting of w to have
    infinite order, so the oracle must refuse w.
    """
    n = w.order()
    if n % 2 == 0:
        return "even-order"
    gens = standard_generators(w.descriptor)
    u = w
    for _ in range(n - 1):
        if all(u * g == g * u for g in gens):
            return "central-power"
        u = u * w
    return None


def test_shortcut_examples():
    assert obstruction_shortcuts(from_permutation(D(1, 1, 3), (1, 0, 2))) == "even-order"
    # order 6 with cube -id: diag(z6, z6^5) in G(6,3,2)
    w = diagonal(D(6, 3, 2), (1, 5))
    assert w.order() == 6 and power(w, 3) == diagonal(D(6, 3, 2), (3, 3))
    assert obstruction_shortcuts(w) == "even-order"
    # an odd-order central element is caught by the central-power reason
    assert obstruction_shortcuts(diagonal(D(3, 3, 3), (1, 1, 1))) == "central-power"
    assert obstruction_shortcuts(diagonal(D(3, 3, 2), (1, 2))) is None
    assert obstruction_shortcuts(identity(D(3, 3, 2))) is None


def test_shortcuts_are_sound():
    for desc in (D(6, 3, 2), D(3, 3, 3), D(2, 2, 4)):
        for w in enumerate_elements(desc):
            if obstruction_shortcuts(w) is not None:
                assert not element_lifts_oracle(w).lifts


def test_padding_preserves_lifting():
    for n in (3, 4):
        desc = D(1, 1, n)
        for w in enumerate_elements(desc):
            if element_lifts_oracle(w).lifts:
                assert element_lifts_oracle(pad(w, n + 1)).lifts


def test_report_json_roundtrip():
    desc = D(1, 1, 4)
    w = from_permutation(desc, (1, 0, 2, 3))
    doc = json.loads(json.dumps(element_lifts_oracle(w).to_json()))
    assert doc["lifts"] is False and doc["method"] == "oracle"
    assert parse_element(desc, doc["element"]) == w
    H = {format_hyperplane(H): H for H in hyperplanes(desc)}[doc["witness"]["hyperplane"]]
    u = power(w, doc["witness"]["power"])
    assert stabilizes(u, H) and scalar_on_normal(u, H) != 0

    lifting = element_lifts_oracle(diagonal(D(3, 3, 2), (1, 2))).to_json()
    assert lifting["lifts"] is True and lifting["witness"] is None


def refuse_arrangement(desc):
    raise AssertionError(f"built the arrangement of {desc}")


def test_oracle_builds_no_arrangement(monkeypatch):
    # A Swap witness in G(6,2,3), a Coord witness in G(2,1,2), none in S(7):
    # neither the scan nor the witness reads hyperplanes(desc).
    monkeypatch.setattr(arrangement, "hyperplanes", refuse_arrangement)
    swap_witness = element_lifts_oracle(diagonal(D(6, 2, 3), (1, 1, 0))).witness
    coord_witness = element_lifts_oracle(diagonal(D(2, 1, 2), (1, 0))).witness
    assert (swap_witness, coord_witness) == (LiftWitness(Swap(0, 1, 0), 1), LiftWitness(Coord(0), 1))
    assert element_lifts_oracle(from_permutation(D(1, 1, 7), (1, 2, 0, 4, 5, 3, 6))).lifts
