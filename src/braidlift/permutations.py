"""Plain permutation helpers on tuples of 0-based images, and group closure.

A permutation of {0, ..., n-1} is a tuple p with p[i] the image of i.
Composition follows the left-action convention used everywhere in this
package: compose(p, q) applies q first, then p.  ``mulclose`` closes
elements that have ``*`` and ``order()`` (``MonomialElement``), not tuples.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain
from itertools import permutations as _all_perms
from operator import itemgetter

from .errors import GuardExceeded


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def is_permutation(p: Sequence[int]) -> bool:
    return sorted(p) == list(range(len(p)))


def compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """p after q, gathered in C; itemgetter returns a bare value for one index."""
    return itemgetter(*q)(p) if len(q) > 1 else tuple([p[i] for i in q])


def invert(p: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def cycles(p: Sequence[int]) -> list[tuple[int, ...]]:
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


def cycle_type(p: Sequence[int]) -> tuple[int, ...]:
    """Cycle lengths in decreasing order, fixed points included; one pass, no tuple per cycle."""
    seen, lengths = [False] * len(p), []
    for start in range(len(p)):
        length, k = 0, start
        while not seen[k]:
            seen[k] = True
            length, k = length + 1, p[k]
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def order(p: Sequence[int]) -> int:
    return math.lcm(*cycle_type(p))  # lcm() is 1: the empty permutation


def from_cycle(n: int, cycle: Sequence[int]) -> tuple[int, ...]:
    """The permutation of {0..n-1} given by one cycle, rest fixed."""
    out = list(range(n))
    for k, i in enumerate(cycle):
        out[i] = cycle[(k + 1) % len(cycle)]
    return tuple(out)


def all_permutations(n: int) -> Iterator[tuple[int, ...]]:
    return iter(_all_perms(range(n)))


def _guard(size: int, max_size: int | None) -> None:
    if max_size is not None and size > max_size:
        raise GuardExceeded(f"closure exceeds {max_size} elements")


def _powers(g, max_size: int | None) -> list:
    """g, g^2, ..., g^ord(g) = 1 in ord(g) products, guarded before each is kept."""
    powers, p = [g], g
    _guard(1, max_size)
    while (p := p * g) != g:
        _guard(len(powers) + 1, max_size)
        powers.append(p)
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


def mulclose(gens: Iterable, max_size: int | None = None) -> frozenset:
    """The group generated by ``gens``, coset by coset (Dimino, ``_extend``).

    The generators have ``*`` and ``order()`` (``MonomialElement``).  Cosets
    extend H_1, the powers of the first generator of greatest order, the only
    power list built: at most |H_1| + |G| + k |G| / |H_1| products for k
    distinct generators; no generators give the empty set.  Raises
    GuardExceeded before a power or coset passes ``max_size``.
    """
    gens = list(dict.fromkeys(gens))
    if not gens:
        return frozenset()
    first = max(gens, key=lambda g: g.order())
    span, used = set(_powers(first, max_size)), [first]
    for s in gens:
        if s not in span:
            _extend(span, used, s, max_size)
    return frozenset(span)
