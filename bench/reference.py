"""A fixed pure-Python task that gauges how fast the machine runs right now.

    python3 bench/reference.py

It does the kind of work the braidlift CLI does (tuple permutations,
composition, hashing into sets, small frozen objects) without importing
braidlift, so its wall time depends on the machine and the interpreter,
never on the program under test.
"""

from dataclasses import dataclass
from itertools import permutations


@dataclass(frozen=True)
class Signed:
    sigma: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.sigma) != list(range(len(self.sigma))):
            raise ValueError("not a permutation")

    def __mul__(self, other: "Signed") -> "Signed":
        sigma = tuple(self.sigma[i] for i in other.sigma)
        signs = tuple((other.signs[i] + self.signs[other.sigma[i]]) % 2
                      for i in range(len(sigma)))
        return Signed(sigma, signs)


def main() -> None:
    elements = [Signed(p, (0,) * 5) for p in permutations(range(5))]
    gens = [Signed((1, 0, 2, 3, 4), (1, 1, 0, 0, 0)), Signed((1, 2, 3, 4, 0), (0,) * 5)]
    group = set(elements[:1])
    frontier = list(group)
    while frontier:
        new = {g * x for g in gens for x in frontier} - group
        group |= new
        frontier = list(new)
    closed = all(u * v in group for u in elements[::8] for v in elements)
    if len(group) != 1920 or not closed:
        raise SystemExit(f"reference task went wrong: {len(group)} elements")


if __name__ == "__main__":
    main()
