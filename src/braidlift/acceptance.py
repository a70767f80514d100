"""The verification suite: every headline classification, cross-checked.

Each criterion pits an independent brute-force route against the structural
or closed-form route over a fixed grid of small groups, exactly (no
tolerances: everything here is integer arithmetic).  The CLI ``verify``
subcommand and tests/test_acceptance.py both run these.
"""

import time
from _random import Random
from functools import lru_cache

from . import permutations as perms
from .classify import (
    FrobeniusSpec,
    PermutationGroup,
    cayley_embedding,
    frobenius_coset_action,
    has_free_cycle_type,
    has_free_monomial_type,
    free_action_general,
    is_bieberbach_series,
)
from .errors import GuardExceeded
from .lattice import coboundary_roundtrips, fixed_lattice_rank
from .lifting import element_lifts_fast, oracle_verdicts, subgroup_lifts
from .monomial import (
    GroupDescriptor,
    MonomialElement,
    Subgroup,
    _record,
    closure,
    diagonal,
    enumerate_elements,
    from_permutation,
    pad,
)

_D = GroupDescriptor.from_deer

#: The verification grid: small enough to enumerate, rich enough to hit
#: every branch of the case analyses.
GRID: tuple[GroupDescriptor, ...] = (
    _D(1, 1, 2), _D(1, 1, 3), _D(1, 1, 4), _D(1, 1, 5), _D(1, 1, 6),
    _D(2, 1, 2), _D(2, 1, 3), _D(2, 2, 3), _D(2, 2, 4),
    _D(3, 3, 2), _D(3, 3, 3), _D(4, 2, 2), _D(4, 4, 2),
    _D(6, 3, 2), _D(6, 6, 2), _D(3, 1, 2), _D(5, 5, 2),
)


class CriterionResult(_record("number title passed detail")):
    __slots__ = ()

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number:2d}: {self.title} ({self.detail})"


# Each cache below is bounded by the number of keys one ``verify`` run uses.
@lru_cache(maxsize=len(GRID))
def _elements(desc: GroupDescriptor) -> tuple[MonomialElement, ...]:
    return tuple(enumerate_elements(desc))


@lru_cache(maxsize=len(GRID))
def _orders(desc: GroupDescriptor) -> dict[MonomialElement, int]:
    return {w: w.order() for w in _elements(desc)}


@lru_cache(maxsize=len(GRID))
def _oracle_lifts(desc: GroupDescriptor) -> dict[MonomialElement, bool]:
    return oracle_verdicts(_elements(desc))


def criterion_1() -> CriterionResult:
    """Oracle and fast criterion agree on every element of every grid group."""
    start = time.perf_counter()
    checked = 0
    for desc in GRID:
        for w, lifts in _oracle_lifts(desc).items():
            if lifts != element_lifts_fast(w):
                return CriterionResult(1, "oracle/fast equivalence", False,
                                       f"mismatch at {w} in {desc}")
            checked += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 120.0
    return CriterionResult(1, "oracle/fast equivalence", ok,
                           f"{checked} elements across {len(GRID)} groups in {elapsed:.1f}s")


def criterion_2() -> CriterionResult:
    """diag(j, j^2) in G(3,3,2) lifts with order 3; diag(i, -i) in G(4,4,2) does not."""
    failures = []
    w = diagonal(_D(3, 3, 2), (1, 2))
    if w.order() != 3:
        failures.append(f"order(diag(j,j^2)) = {w.order()} != 3")
    v = diagonal(_D(4, 4, 2), (1, 3))
    lifts = oracle_verdicts((w, v))
    if not (lifts[w] and element_lifts_fast(w)):
        failures.append("diag(j,j^2) in G(3,3,2) should lift")
    if lifts[v] or element_lifts_fast(v):
        failures.append("diag(i,-i) in G(4,4,2) should not lift")
    return CriterionResult(2, "headline diagonal examples", not failures,
                           "; ".join(failures) or "both examples as classified")


def criterion_3() -> CriterionResult:
    """No even-order element of any grid group passes the oracle."""
    checked = 0
    for desc in GRID:
        orders = _orders(desc)
        for w, lifts in _oracle_lifts(desc).items():
            if orders[w] % 2 == 0:
                checked += 1
                if lifts:
                    return CriterionResult(3, "even order never lifts", False,
                                           f"even-order {w} in {desc} lifted")
    return CriterionResult(3, "even order never lifts", True,
                           f"{checked} even-order elements all refused")


def criterion_4() -> CriterionResult:
    """Closed-form Bieberbach predicate equals the brute-force scan on the grid."""
    expected = {
        _D(4, 2, 2): True, _D(4, 4, 2): True,
        _D(3, 3, 2): False, _D(1, 1, 4): False, _D(2, 1, 3): False,
    }
    for desc in GRID:
        formula = is_bieberbach_series(desc)
        brute = not any(
            lifts for w, lifts in _oracle_lifts(desc).items() if not w.is_identity
        )
        if formula != brute:
            return CriterionResult(4, "Bieberbach classification", False,
                                   f"{desc}: formula {formula} vs brute force {brute}")
        if desc in expected and formula != expected[desc]:
            return CriterionResult(4, "Bieberbach classification", False,
                                   f"{desc}: got {formula}, expected {expected[desc]}")
    return CriterionResult(4, "Bieberbach classification", True,
                           f"formula = brute force on all {len(GRID)} groups")


def criterion_5() -> CriterionResult:
    """In the symmetric groups, lifting is exactly odd order (n <= 6)."""
    checked = 0
    for n in range(2, 7):
        desc = _D(1, 1, n)
        orders = _orders(desc)
        for w, lifts in _oracle_lifts(desc).items():
            if lifts != (orders[w] % 2 == 1):
                return CriterionResult(5, "symmetric groups: lift iff odd order", False,
                                       f"{w} in S_{n}: lifts={lifts}, order={orders[w]}")
            checked += 1
    return CriterionResult(5, "symmetric groups: lift iff odd order", True,
                           f"{checked} permutations checked")


def _choice(rng: Random, seq: list):
    """``random.Random.choice(seq)``, draw for draw (its ``_randbelow``); seq not empty."""
    k = len(seq).bit_length()
    while (r := rng.getrandbits(k)) >= len(seq):
        pass
    return seq[r]


def _distinct_subgroups(desc: GroupDescriptor, spans: "Iterable[list[MonomialElement]]"
                        ) -> tuple[Subgroup, ...]:
    """The distinct groups the spans generate, in first-seen order, each as
    the first span that generates it (``Subgroup`` equality).

    A span H is closed only as far as it could be new.  If the groups found
    so far hold all its generators, the smallest of them, K, contains H.  A
    generator of order |K| generates K, so H = K: a cyclic group found before
    is never closed again.  Otherwise H closes under the cap |K|/2: |H|
    divides |K| (Lagrange), so a closure that passes the cap is K itself and
    is dropped; one within it is a proper subgroup of K, kept unless equal
    to an earlier group.  A span that no found group holds is new.
    """
    orders, found, hosts = _orders(desc), {}, {}
    for gens in spans:
        held = [K for K in hosts.get(gens[0], ()) if all(g in K.elements for g in gens[1:])]
        if held:
            K = min(held, key=len)
            if any(orders[g] == len(K) for g in gens):
                continue
            try:
                H = closure(desc, gens, len(K) // 2)
            except GuardExceeded:
                continue
        else:
            H = closure(desc, gens)
        if H not in found:
            found[H] = None
            for h in H.elements:
                hosts.setdefault(h, []).append(H)
    return tuple(found)


@lru_cache(maxsize=1)
def _s5_sample_subgroups() -> tuple[Subgroup, ...]:
    """Cyclic subgroups of S_5 plus 50 subgroups spanned by two random 3-cycles.

    Each group is kept once, as its first span generates it.  Of the 170
    spans, 97 give a group found before: a cyclic span <g> is one exactly
    when a group found before has order(g) elements and holds g, and a span
    of two 3-cycles held by a group K found before closes under |K|/2 or is
    K (Lagrange); see ``_distinct_subgroups``.
    """
    desc, rng = _D(1, 1, 5), Random(0x5EED)
    three_cycles = [w for w in _elements(desc) if _orders(desc)[w] == 3]
    spans = [[w] for w in _elements(desc)]
    spans += [[_choice(rng, three_cycles), _choice(rng, three_cycles)] for _ in range(50)]
    return _distinct_subgroups(desc, spans)


def criterion_6() -> CriterionResult:
    """Free action on 2-subsets of {1..5} (S_5's hyperplanes) is equivalent to free cycle type."""
    for P in _s5_sample_subgroups():
        free = free_action_general(P)
        typed = all(has_free_cycle_type(perms.cycle_type(g.sigma)) for g in P)
        if free != typed:
            return CriterionResult(6, "free action equivalence in S_5", False,
                                   f"order-{len(P)} subgroup: free={free}, type={typed}")
    return CriterionResult(6, "free action equivalence in S_5", True,
                           f"{len(_s5_sample_subgroups())} distinct subgroups")


@lru_cache(maxsize=len(GRID))
def _cyclic_subgroups(desc: GroupDescriptor) -> tuple[Subgroup, ...]:
    """The cyclic subgroups <w>, w in enumeration order, each kept once, as
    its first generator spans it.  <w> is a group found before exactly when
    one of order order(w) holds w, and is closed only when it is new
    (``_distinct_subgroups``)."""
    return _distinct_subgroups(desc, ([w] for w in _elements(desc)))


def criterion_7() -> CriterionResult:
    """Free action on the arrangement is equivalent to free monomial type (d >= 2)."""
    count = 0
    for desc in (_D(2, 1, 3), _D(4, 2, 2)):
        for G in _cyclic_subgroups(desc):
            free = free_action_general(G)
            typed = all(has_free_monomial_type(g) for g in G)
            if free != typed:
                return CriterionResult(7, "free action equivalence, monomial", False,
                                       f"cyclic subgroup of {desc}: free={free}, type={typed}")
            count += 1
    return CriterionResult(7, "free action equivalence, monomial", True,
                           f"{count} cyclic subgroups over two groups")


@lru_cache(maxsize=2)
def _frobenius_action(p: int, q: int) -> tuple[Subgroup, frozenset[tuple[int, ...]]]:
    return frobenius_coset_action(FrobeniusSpec.find(p, q))


def criterion_8() -> CriterionResult:
    """Frobenius coset actions: cycle structure, free type, and lifting."""
    for p, q in ((7, 3), (13, 3)):
        # Construction raises InvariantViolation on a wrong cycle structure.
        P, types = _frobenius_action(p, q)
        if not all(map(has_free_cycle_type, types)):
            return CriterionResult(8, "Frobenius coset actions", False,
                                   f"F_{p*q} escapes the free cycle types")
        if not subgroup_lifts(P).lifts:
            return CriterionResult(8, "Frobenius coset actions", False,
                                   f"degree-{p} image of F_{p*q} fails to lift")
    return CriterionResult(8, "Frobenius coset actions", True,
                           "p=7 and p=13 images verified and lifted")


@lru_cache(maxsize=1)
def _cayley_images() -> tuple[tuple[str, PermutationGroup], ...]:
    """Each named image, made once: criteria 9-11 share one forest."""
    z5 = PermutationGroup(5, [perms.from_cycle(5, tuple(range(5)))])
    z7 = PermutationGroup(7, [perms.from_cycle(7, tuple(range(7)))])
    z3z3 = PermutationGroup(6, [perms.from_cycle(6, (0, 1, 2)), perms.from_cycle(6, (3, 4, 5))])
    return (
        ("Z/5", cayley_embedding(z5)),
        ("Z/7", cayley_embedding(z7)),
        ("Z/3 x Z/3", cayley_embedding(z3z3)),
        ("Z/7 : Z/3", cayley_embedding(_frobenius_action(7, 3)[0])),
    )


def criterion_9() -> CriterionResult:
    """Left-translation images land in the free cycle types and lift."""
    start = time.perf_counter()
    for name, image in _cayley_images():
        if not all(has_free_cycle_type(perms.cycle_type(g.sigma)) for g in image):
            return CriterionResult(9, "Cayley embeddings lift", False,
                                   f"{name}: image leaves the free cycle types")
        if not subgroup_lifts(image).lifts:
            return CriterionResult(9, "Cayley embeddings lift", False,
                                   f"{name}: image of degree {image.degree} fails to lift")
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    return CriterionResult(9, "Cayley embeddings lift", ok,
                           f"degrees 5, 7, 9, 21 in {elapsed:.1f}s")


def criterion_10() -> CriterionResult:
    """100 generate-and-solve cocycle round trips per test group, all solvable."""
    rng = Random(0xC0C1)
    d3 = _D(1, 1, 3)
    d5 = _D(1, 1, 5)
    settings = [  # the trips read generators and forests: the cyclic groups stay unclosed
        ("<(1,2,3)> in S_3", Subgroup(d3, [from_permutation(d3, perms.from_cycle(3, (0, 1, 2)))])),
        ("<(1,2,3,4,5)> in S_5", Subgroup(d5, [from_permutation(d5, perms.from_cycle(5, tuple(range(5))))])),
        ("Cayley Z/7:Z/3 in S_21", _cayley_images()[3][1]),
    ]
    report = []
    for name, G in settings:
        coboundary_roundtrips(G, 100, rng)  # a failed solve raises NoIntegralSolution
        report.append(f"{name}: 100/100")
    return CriterionResult(10, "constructive H^1 vanishing", True, "; ".join(report))


@lru_cache(maxsize=1)
def _rank_test_subgroups() -> tuple[Subgroup, ...]:
    """Every subgroup exercised by criteria 6 through 9, permutation groups
    included as they are, each once (``Subgroup`` equality), in first-seen order."""
    return tuple(dict.fromkeys([
        *_s5_sample_subgroups(),
        *_cyclic_subgroups(_D(2, 1, 3)), *_cyclic_subgroups(_D(4, 2, 2)),
        *(_frobenius_action(p, q)[0] for p, q in ((7, 3), (13, 3))),
        *(image for _, image in _cayley_images()),
    ]))


def criterion_11() -> CriterionResult:
    """Fixed-lattice rank equals the orbit count for every tested subgroup."""
    for G in _rank_test_subgroups():
        fixed_lattice_rank(G)  # raises InvariantViolation when the two routes disagree
    return CriterionResult(11, "normalizer lattice rank", True,
                           f"{len(_rank_test_subgroups())} subgroups checked")


def criterion_12() -> CriterionResult:
    """Liftable permutations stay liftable after adding a fixed strand."""
    checked = 0
    for n in range(2, 6):
        liftable = [w for w, lifts in _oracle_lifts(_D(1, 1, n)).items() if lifts]
        lifts = _oracle_lifts(_D(1, 1, n + 1))
        for w in liftable:
            if not lifts[pad(w, n + 1)]:
                return CriterionResult(12, "stability under padding", False,
                                       f"{w} liftable in S_{n} but not in S_{n + 1}")
            checked += 1
    return CriterionResult(12, "stability under padding", True,
                           f"{checked} liftable permutations padded")


_CRITERIA = (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5, criterion_6,
    criterion_7, criterion_8, criterion_9, criterion_10, criterion_11, criterion_12,
)


def run_all() -> list[CriterionResult]:
    return [fn() for fn in _CRITERIA]
