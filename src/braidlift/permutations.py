"""Plain permutation helpers on tuples of 0-based images.

A permutation of {0, ..., n-1} is a tuple p with p[i] the image of i.
Composition follows the left-action convention used everywhere in this
package: compose(p, q) applies q first, then p.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
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


def mulclose(gens: Iterable, max_size: int | None = None, mul=None) -> frozenset:
    """The group generated by ``gens``, by breadth-first left products.

    Works for any finite group: ``mul`` defaults to ``compose`` (looked up
    per call, so a rebinding of ``compose`` is seen) and monomial elements
    pass ``operator.mul``.  Positive words reach the identity and every
    inverse in a finite group, so the result is the whole subgroup; no
    generators give the empty set.
    """
    mul = mul or compose
    gens = list(gens)
    els = set(gens)
    if max_size is not None and len(els) > max_size:
        raise GuardExceeded(f"closure exceeds {max_size} elements")
    frontier = list(els)
    while frontier:
        new = []
        for a in gens:
            for b in frontier:
                c = mul(a, b)
                if c not in els:
                    els.add(c)
                    new.append(c)
                    if max_size is not None and len(els) > max_size:
                        raise GuardExceeded(f"closure exceeds {max_size} elements")
        frontier = new
    return frozenset(els)


def greedy_generators(elements: Sequence, identity, mul=None) -> tuple:
    """Generators of the finite set ``elements``, which must be a group.

    Walks the elements in order and keeps each one the earlier picks do not
    already generate.  Each span is closed with ``max_size=len(elements)``
    and must stay inside the set; a finite set that contains the identity
    and is closed under products is a group, so this validates the set
    with O(|elements| * k) products for k generators instead of all pairs.

    Raises ValueError when the identity is missing or a span leaves the set.
    """
    members = frozenset(elements)
    if identity not in members:
        raise ValueError("identity missing: not a group")
    gens: list = []
    span = frozenset({identity})
    for g in elements:
        if len(span) == len(members):
            break
        if g in span:
            continue
        gens.append(g)
        try:
            span = mulclose(gens, len(members), mul)
        except GuardExceeded:
            span = None
        if span is None or not span <= members:
            raise ValueError(f"products of {g} escape the set: not a group")
    return tuple(gens)
