"""Exact arithmetic in the monomial reflection groups G(de, e, r).

An element is a monomial matrix: a permutation sigma of the coordinates of
C^r together with exponents (a_0, ..., a_{r-1}) modulo de, acting by

    w(e_i) = zeta^{a_i} * e_{sigma(i)},      zeta = exp(2*pi*I/de).

Membership in G(de, e, r) is the constraint sum(a_i) = 0 mod e.  Roots of
unity are stored as integer exponents and every operation is exact; nothing
here ever touches floating point.

Composition follows the left-action convention: (u * v) applies v first,
then u, so (u * v)(x) = u(v(x)) for x in C^r.  All derived formulas in this
package are written against this convention.

Text formats: descriptors read "G(de,e,r)" (de first, as is traditional)
with "S(n)" as an alias for G(1,1,n) = the symmetric group; elements read
"perm=[2,1,3];exp=[1,2,0]" with 1-based permutation images.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property
from itertools import product as _cartesian

from . import errors
from . import permutations as perms
from .errors import GuardExceeded, MismatchError, ParseError


def _fields(text: str, head: str, tail: str, sep: str) -> list[str] | None:
    """The fields of the stripped text between a literal head and tail, split
    at sep and each stripped, or None when the head or tail is missing.

    Shared by the descriptor, element and grid parsers, which
    then check each field: with ``str.isdecimal`` for a number, or character
    by character.  Stripping removes what ``str.isspace`` calls whitespace.
    """
    text = text.strip()
    if not (text.startswith(head) and text.endswith(tail)):
        return None
    return [field.strip() for field in text[len(head):len(text) - len(tail)].split(sep)]


def _spelled_with(body: str, chars: str) -> bool:
    """Whether every character of body is one of chars or whitespace."""
    return all(c in chars or c.isspace() for c in body)


#: Builds a tuple-backed value without its class's validating ``__new__``.
_new = tuple.__new__


class GroupDescriptor(namedtuple("GroupDescriptor", "d e r")):
    """The triple (d, e, r) naming G(de, e, r).

    Note the constructor takes d, not de.  Use ``from_deer`` or ``parse`` to
    build a descriptor from the traditional G(de, e, r) spelling.
    """

    __slots__ = ()

    def __new__(cls, d: int, e: int, r: int) -> GroupDescriptor:
        if min(d, e, r) < 1:
            raise ValueError(f"d, e, r must be positive, got ({d},{e},{r})")
        return _new(cls, (d, e, r))

    @property
    def de(self) -> int:
        return self.d * self.e

    def order(self) -> int:
        """|G(de,e,r)| = (de)^r * r! / e."""
        return self.de**self.r * math.factorial(self.r) // self.e

    def order_exceeds(self, bound: int) -> bool:
        """Whether order() > bound, by a product (de)(2de)...(r de) that stops
        once it passes bound * e, so huge groups cost a few steps."""
        total, limit = 1, bound * self.e
        for k in range(1, self.r + 1):
            total *= self.de * k
            if total > limit:
                return True
        return False

    @classmethod
    def from_deer(cls, de: int, e: int, r: int) -> "GroupDescriptor":
        if e < 1 or de % e:
            raise ValueError(f"e = {e} must divide de = {de}")
        return cls(de // e, e, r)

    @classmethod
    def parse(cls, text: str) -> "GroupDescriptor":
        # "S(n)" is G(1,1,n): from_deer(1, 1, n) builds and checks it alike.
        fields = _fields(text, "G(", ")", ",")
        if fields is None and (n := _fields(text, "S(", ")", ",")) is not None:
            fields = ["1", "1", *n]
        if fields is None or len(fields) != 3 or not all(map(str.isdecimal, fields)):
            raise ParseError(f"cannot parse group descriptor {text!r}")
        try:
            return cls.from_deer(*map(int, fields))
        except ValueError as exc:
            raise ParseError(f"{text!r}: {exc}") from exc

    def __str__(self) -> str:
        return f"G({self.de},{self.e},{self.r})"


class CycleData(namedtuple("CycleData", "support product_exponent")):
    """One cycle of the underlying permutation, with its exponent sum."""

    __slots__ = ()

    @property
    def length(self) -> int:
        return len(self.support)


class MonomialElement(namedtuple("MonomialElement", "descriptor sigma exponents")):
    """A monomial matrix w(e_i) = zeta_de^{exponents[i]} e_{sigma[i]}.

    A tuple (descriptor, sigma, exponents): equality, hashing and order are
    those of the tuple.  The constructor reduces the exponents mod de and
    validates; products, inverses and enumeration skip both (``_new``).
    """

    __slots__ = ()

    def __new__(
        cls, descriptor: GroupDescriptor, sigma: Sequence[int], exponents: Sequence[int]
    ) -> MonomialElement:
        de = descriptor.de
        w = _new(cls, (descriptor, tuple(sigma), tuple(a % de for a in exponents)))
        w.__post_init__()
        return w

    def __post_init__(self) -> None:
        desc, sigma, exps = self
        if len(sigma) != desc.r or not perms.is_permutation(sigma):
            raise ValueError(f"sigma {sigma} is not a permutation of 0..{desc.r - 1}")
        if len(exps) != desc.r:
            raise ValueError(f"expected {desc.r} exponents, got {len(exps)}")
        if sum(exps) % desc.e:
            raise ValueError(f"exponent sum {sum(exps)} is not 0 mod e = {desc.e}: not in {desc}")

    @property
    def is_identity(self) -> bool:
        return self.sigma == perms.identity(self.descriptor.r) and not any(self.exponents)

    def __mul__(self, other: "MonomialElement") -> "MonomialElement":
        desc = self.descriptor
        if other.descriptor is not desc and other.descriptor != desc:
            raise MismatchError(f"cannot compose elements of {desc} and {other.descriptor}")
        de, mine = desc.de, self.exponents
        sigma = perms.compose(self.sigma, other.sigma)
        if de == 1:  # every exponent is 0 mod 1, so the product keeps mine
            return _new(MonomialElement, (desc, sigma, mine))
        exps = tuple([(a + mine[j]) % de for a, j in zip(other.exponents, other.sigma)])
        return _new(MonomialElement, (desc, sigma, exps))

    def inverse(self) -> "MonomialElement":
        de = self.descriptor.de
        sigma = perms.invert(self.sigma)
        exps = [0] * self.descriptor.r
        for i in range(self.descriptor.r):
            exps[self.sigma[i]] = (-self.exponents[i]) % de
        return _new(MonomialElement, (self.descriptor, sigma, tuple(exps)))

    def __pow__(self, n: int) -> "MonomialElement":
        base = self
        if n < 0:
            base, n = self.inverse(), -n
        result = identity(self.descriptor)
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def cycles(self) -> tuple[CycleData, ...]:
        """Cycles of sigma (fixed points included) with exponent sums mod de."""
        de = self.descriptor.de
        return tuple(
            CycleData(support, sum(self.exponents[i] for i in support) % de)
            for support in perms.cycles(self.sigma)
        )

    def order(self) -> int:
        """Least n >= 1 with w^n = id.

        On the span of a cycle of length L with exponent sum p, w^L acts as
        the scalar zeta^p, so that block has order L * ord(zeta^p).
        """
        de, sigma, a = self.descriptor.de, self.sigma, self.exponents
        seen, blocks = [False] * len(sigma), []
        for start in range(len(sigma)):  # one pass, no tuple per cycle
            length, p, k = 0, 0, start
            while not seen[k]:
                seen[k] = True
                length, p, k = length + 1, p + a[k], sigma[k]
            if length:
                blocks.append(length * (de // math.gcd(p, de)))
        return math.lcm(*blocks)

    def __str__(self) -> str:
        return format_element(self)


def identity(descriptor: GroupDescriptor) -> MonomialElement:
    return MonomialElement(descriptor, perms.identity(descriptor.r), (0,) * descriptor.r)


def diagonal(descriptor: GroupDescriptor, exponents: Sequence[int]) -> MonomialElement:
    """The diagonal matrix diag(zeta^a_0, ..., zeta^a_{r-1})."""
    return MonomialElement(descriptor, perms.identity(descriptor.r), tuple(exponents))


def from_permutation(descriptor: GroupDescriptor, sigma: Sequence[int]) -> MonomialElement:
    """The permutation matrix of sigma (all exponents zero)."""
    return MonomialElement(descriptor, tuple(sigma), (0,) * descriptor.r)


def pad(w: MonomialElement, r: int) -> MonomialElement:
    """Embed w into G(de, e, r) for larger rank r, fixing the new coordinates."""
    old = w.descriptor
    if r < old.r:
        raise ValueError(f"cannot pad from rank {old.r} down to {r}")
    desc = GroupDescriptor(old.d, old.e, r)
    sigma = w.sigma + tuple(range(old.r, r))
    exps = w.exponents + (0,) * (r - old.r)
    return MonomialElement(desc, sigma, exps)


def standard_generators(descriptor: GroupDescriptor) -> tuple[MonomialElement, ...]:
    """A generating set: adjacent transpositions, a zeta-twisted transposition
    when e >= 2, and diag(zeta^e, 1, ..., 1) when d >= 2.

    The twisted transposition sends e_1 -> zeta^{-1} e_2 and e_2 -> zeta e_1;
    its product with the plain transposition is diag(zeta, zeta^{-1}), which
    together with the permutations and the d >= 2 generator spans the full
    diagonal part.  Correctness is not assumed: tests check |closure| against
    the order formula for every group on the verification grid.
    """
    d, e, r, de = descriptor.d, descriptor.e, descriptor.r, descriptor.de
    gens: list[MonomialElement] = []
    zero = (0,) * r
    for i in range(r - 1):
        gens.append(MonomialElement(descriptor, perms.from_cycle(r, (i, i + 1)), zero))
    if r >= 2 and e >= 2:
        exps = [0] * r
        exps[0], exps[1] = de - 1, 1
        gens.append(MonomialElement(descriptor, perms.from_cycle(r, (0, 1)), tuple(exps)))
    if d >= 2:
        exps = [0] * r
        exps[0] = e
        gens.append(diagonal(descriptor, exps))
    if not gens:
        gens.append(identity(descriptor))
    return tuple(gens)


def enumerate_elements(descriptor: GroupDescriptor) -> Iterator[MonomialElement]:
    """Yield every element of G(de, e, r) exactly once, in a fixed order.

    Iterates permutations lexicographically and, for each, all exponent
    vectors with sum = 0 mod e (the first r-1 entries are free, the last is
    determined up to the d multiples of e).
    """
    if descriptor.order_exceeds(errors.ENUMERATION_GUARD):
        raise GuardExceeded(f"{descriptor} has more than {errors.ENUMERATION_GUARD} elements")
    d, e, r, de = descriptor.d, descriptor.e, descriptor.r, descriptor.de
    for sigma in perms.all_permutations(r):
        for head in _cartesian(range(de), repeat=r - 1):
            base = (-sum(head)) % e
            for k in range(d):
                yield _new(MonomialElement, (descriptor, sigma, head + (base + k * e,)))


def _cycle_multisets(
    r: int, de: int, e: int, total: int, bound: tuple[int, int]
) -> Iterator[tuple]:
    """Tuples of pairs (L, c), colours c in range(de), with lengths summing to
    r and colours summing with ``total`` to 0 mod e: L descending, and c
    ascending within one L, from ``bound`` on.

    A cycle of length r is the last one, and only its colours that close the
    sum are tried, so every partial tuple built has total length below r.
    """
    if not r:
        yield ()
        return
    for L in range(min(r, bound[0]), 0, -1):
        low = bound[1] if L == bound[0] else 0
        if L == r:
            colours = range(low + (-total - low) % e, de, e)
        else:
            colours = range(low, de)
        for c in colours:
            for rest in _cycle_multisets(r - L, de, e, total + c, (L, c)):
                yield ((L, c),) + rest


def class_representatives(descriptor: GroupDescriptor) -> Iterator[MonomialElement]:
    """Yield one element of G(de, e, r) per G(de, 1, r)-conjugacy class meeting it.

    G(de, 1, r) is the wreath product Z/de wr S_r, where two elements are
    conjugate exactly when they have the same multiset of (cycle length L,
    cycle exponent sum c mod de).  The exponent sum is a homomorphism to
    Z/de, so the classes meeting G(de, e, r) lie inside it and are the
    multisets with sum(c) = 0 mod e.  Each representative puts its cycles on
    consecutive coordinates, longest first, with exponent c on the cycle's
    first coordinate and 0 elsewhere.  Longest first puts the permutation
    classes ahead of the many diagonal ones, so a scan that stops at the
    first lifting element stops early.

    The walk builds at most 3|G| multisets, |G| = |G(de, e, r)|.  It yields
    at most |G| classes, and the last cycle's colour is fixed mod e as the
    multiset is built, so the partial multisets it builds all have total
    length s < r.  Those of length s are classes of G(de, 1, s), at most
    de^s s! of them, and the sum over s < r is at most
    2 de^(r-1) (r-1)! = 2|G| / (d r).
    """
    r, e, de = descriptor.r, descriptor.e, descriptor.de
    for multiset in _cycle_multisets(r, de, e, 0, (r, 0)):
        sigma, exps, start = [], [0] * r, 0
        for L, c in multiset:
            sigma.extend(range(start + 1, start + L))
            sigma.append(start)
            exps[start] = c
            start += L
        yield _new(MonomialElement, (descriptor, tuple(sigma), tuple(exps)))


class Subgroup:
    """The finite subgroup of G(de, e, r) generated by ``generators``.

    Keeps the distinct generators, in the order given, as ``generators`` and
    closes them on construction, coset by coset (``permutations.mulclose``),
    into at most ``max_size`` elements, by default the guard as it stands at
    the call.  No generators give the trivial group.
    Subgroups compare and hash by (descriptor, elements).
    """

    def __init__(
        self,
        descriptor: GroupDescriptor,
        generators: Iterable[MonomialElement],
        max_size: int | None = None,
    ) -> None:
        self.descriptor = descriptor
        self.generators = tuple(dict.fromkeys(generators))
        self.__post_init__(max_size)

    def __post_init__(self, max_size: int | None) -> None:
        for g in self.generators:
            if g.descriptor != self.descriptor:
                raise MismatchError(f"generator {g} does not live in {self.descriptor}")
        if max_size is None:
            max_size = errors.ENUMERATION_GUARD
        gens = self.generators or [identity(self.descriptor)]
        self.elements = perms.mulclose(gens, max_size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return (self.descriptor, self.elements) == (other.descriptor, other.elements)

    def __hash__(self) -> int:
        return hash((self.descriptor, self.elements))

    @cached_property
    def sorted_elements(self) -> tuple[MonomialElement, ...]:
        return tuple(sorted(self.elements))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[MonomialElement]:
        return iter(self.sorted_elements)

    def __contains__(self, w: MonomialElement) -> bool:
        return w in self.elements


def closure(
    descriptor: GroupDescriptor,
    generators: Iterable[MonomialElement],
    max_size: int | None = None,
) -> Subgroup:
    """Smallest subgroup containing the generators: ``Subgroup(...)``, by name."""
    return Subgroup(descriptor, generators, max_size)


def center_order(descriptor: GroupDescriptor) -> int:
    """|Z(G(de, e, r))| = d * gcd(e, r), in closed form.

    The formula holds whenever G acts irreducibly (Lehrer-Taylor, *Unitary
    Reflection Groups*, ch. 2).  The two reducible groups are abelian and
    equal their centre: G(1, 1, 2) = S_2 and the Klein group G(2, 2, 2).
    The tests cross-check this against ``center``'s enumeration.
    """
    d, e, r = descriptor.d, descriptor.e, descriptor.r
    if r == 2 and d == 1 and e <= 2:
        return descriptor.order()
    return d * math.gcd(e, r)


def center(descriptor: GroupDescriptor) -> Subgroup:
    """The centre, generated by the elements commuting with the standard generators.

    Enumerates the whole group; a central element joins the generators only
    when those before it do not generate it, so a few generators are closed,
    not all |Z| elements.  ``center_order`` gives its size in closed form.
    """
    gens, Z = standard_generators(descriptor), closure(descriptor, [])
    for w in enumerate_elements(descriptor):
        if all(w * g == g * w for g in gens) and w not in Z:
            Z = closure(descriptor, [*Z.generators, w])
    return Z


def format_element(w: MonomialElement) -> str:
    perm = ",".join(str(i + 1) for i in w.sigma)
    exp = ",".join(str(a) for a in w.exponents)
    return f"perm=[{perm}];exp=[{exp}]"


def parse_element(descriptor: GroupDescriptor, text: str) -> MonomialElement:
    # The bodies inside the brackets are kept unstripped for int(), which
    # strips less than str.strip(): "perm=[\x1c1]" is a bad integer.
    halves = _fields(text, "", "", ";")
    if (
        len(halves) != 2
        or not (halves[0].startswith("perm=[") and halves[0].endswith("]"))
        or not (halves[1].startswith("exp=[") and halves[1].endswith("]"))
        or not _spelled_with(perm := halves[0][6:-1], "0123456789,")
        or not _spelled_with(exp := halves[1][5:-1], "0123456789,+-")
    ):
        raise ParseError(f"cannot parse element {text!r}")
    try:
        images = [int(x) for x in perm.split(",")] if perm.strip() else []
        exps = [int(x) for x in exp.split(",")] if exp.strip() else []
    except ValueError as exc:
        raise ParseError(f"bad integer in element {text!r}") from exc
    sigma = tuple(i - 1 for i in images)
    try:
        return MonomialElement(descriptor, sigma, tuple(exps))
    except ValueError as exc:
        raise ParseError(f"{text!r} is not an element of {descriptor}: {exc}") from exc
