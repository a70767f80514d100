"""Plain permutation helpers on tuples of 0-based images, and group closure.

A permutation of {0, ..., n-1} is a tuple p with p[i] the image of i.
Composition follows the left-action convention used everywhere in this
package: compose(p, q) applies q first, then p.  ``mulclose`` closes
elements by ``*`` alone (``MonomialElement``), not tuples, and reads no
cycle data.

``cycle_sums`` is the one cycle walk, read for cycle types, monomial orders
and the fast lifting criterion; ``cycles`` is the tests' reference for it.
"""

import math
from itertools import chain
from itertools import permutations as _all_perms
from operator import itemgetter

from .errors import GuardExceeded


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def is_permutation(p: "Sequence[int]") -> bool:
    return sorted(p) == list(range(len(p)))


def compose(p: "Sequence[int]", q: "Sequence[int]") -> tuple[int, ...]:
    """p after q, gathered in C; itemgetter returns a bare value for one index."""
    return itemgetter(*q)(p) if len(q) > 1 else tuple([p[i] for i in q])


def cycles(p: "Sequence[int]") -> list[tuple[int, ...]]:
    """Disjoint cycles including fixed points.

    Each cycle starts at its least element and cycles are listed by
    increasing starting element, so the output is canonical.
    """
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = []
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cyc.append(cur)
            cur = p[cur]
        out.append(tuple(cyc))
    return out


def cycle_sums(p: "Sequence[int]", a: "Sequence[int]") -> list[tuple[int, int]]:
    """(length, sum of a over the cycle) for each cycle of p, fixed points
    included, by least element; one pass, no tuple per cycle."""
    seen, out = [False] * len(p), []
    for start in range(len(p)):
        length, s, k = 0, 0, start
        while not seen[k]:
            seen[k] = True
            length, s, k = length + 1, s + a[k], p[k]
        if length:
            out.append((length, s))
    return out


def cycle_type(p: "Sequence[int]") -> tuple[int, ...]:
    """Cycle lengths in decreasing order, fixed points included."""
    return tuple(sorted((L for L, _ in cycle_sums(p, p)), reverse=True))  # sums unused


def order(p: "Sequence[int]") -> int:
    return math.lcm(*cycle_type(p))  # lcm() is 1: the empty permutation


def from_cycle(n: int, cycle: "Sequence[int]") -> tuple[int, ...]:
    """The permutation of {0..n-1} given by one cycle, rest fixed."""
    out = list(range(n))
    for k, i in enumerate(cycle):
        out[i] = cycle[(k + 1) % len(cycle)]
    return tuple(out)


def all_permutations(n: int) -> "Iterator[tuple[int, ...]]":
    return iter(_all_perms(range(n)))


def _guard(size: int, max_size: int | None) -> None:
    if max_size is not None and size > max_size:
        raise GuardExceeded(f"closure exceeds {max_size} elements")


def _powers(g, max_size: int | None) -> set:
    """g, g^2, ..., g^ord(g) = 1 in ord(g) products, guarded before each is kept."""
    powers, p = {g}, g
    _guard(1, max_size)
    while (p := p * g) != g:
        _guard(len(powers) + 1, max_size)
        powers.add(p)
    return powers


def _extend(span: set, used: list, s, max_size: int | None) -> None:
    """Grow ``span`` = H = <used> in place to <used, s>; s joins ``used``.

    Dimino's step (G. Butler, LNCS 559, 1991): s, then t r for t in ``used``
    and each coset representative r as ``reps`` grows; one outside the span
    adds its whole left coset y H, checked against the guard first.
    """
    H, reps = list(span), []
    used.append(s)
    for y in chain([s], (t * r for r in reps for t in used)):
        if y not in span:
            _guard(len(span) + len(H), max_size)
            span.update([y * h for h in H])
            reps.append(y)


def mulclose(gens: "Iterable", max_size: int | None = None) -> frozenset:
    """The group generated by ``gens``, coset by coset (Dimino, ``_extend``).

    The generators need only ``*``.  Cosets extend H_1, the longest power
    list, the first on a tie: each generator outside the longest list so far
    builds its own, and replaces that one if longer.  If g lies in <h> then
    ord g <= ord h, so H_1 is the powers of the first generator of greatest
    order.  No generators give the empty set.  Raises GuardExceeded before a
    power or coset passes ``max_size``.
    """
    gens = list(dict.fromkeys(gens))
    span, used = set(), []
    for g in gens:
        if g not in span and len(powers := _powers(g, max_size)) > len(span):
            span, used = powers, [g]
    for s in gens:
        if s not in span:
            _extend(span, used, s, max_size)
    return frozenset(span)
