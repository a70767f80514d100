"""Exact integer elimination: rank and integral solving."""

from braidlift.intlinalg import rank, solve


def check(rows, rhs, x):
    for row, b in zip(rows, rhs):
        assert sum(a * v for a, v in zip(row, x)) == b


def dense_rank(rows):
    """``rank`` takes sparse rows: a dense row becomes {column: entry}."""
    return rank([dict(enumerate(row)) for row in rows])


def test_rank_basics():
    assert rank([]) == 0
    assert dense_rank([[0, 0], [0, 0]]) == 0
    assert dense_rank([[1, 0], [0, 1]]) == 2
    assert dense_rank([[1, 2], [2, 4]]) == 1
    assert dense_rank([[2, 4, 6], [3, 6, 9], [1, 0, 0]]) == 2


def test_rank_sparse_difference_rows():
    # incidence rows of a path on 4 vertices: rank 3
    rows = [{0: 1, 1: -1}, {1: 1, 2: -1}, {2: 1, 3: -1}]
    assert rank(rows) == 3
    # adding the closing edge keeps the rank (one cycle)
    assert rank(rows + [{3: 1, 0: -1}]) == 3


def test_solve_diagonal_and_divisibility():
    assert solve([[2, 0], [0, 3]], [4, 9]) == [2, 3]
    assert solve([[2]], [1]) is None
    assert solve([[2]], [6]) == [3]


def test_solve_underdetermined():
    x = solve([[1, 2]], [1])
    check([[1, 2]], [1], x)
    x = solve([[2, 3]], [1])  # gcd(2,3) = 1, solvable despite no unit pivot
    check([[2, 3]], [1], x)
    assert solve([[2, 4]], [3]) is None  # gcd 2 does not divide 3


def test_solve_overdetermined():
    rows = [[1, 1], [1, -1], [2, 0]]
    x = solve(rows, [2, 0, 2])
    check(rows, [2, 0, 2], x)
    assert solve(rows, [2, 0, 3]) is None  # inconsistent


def test_solve_empty_system():
    assert solve([], [], ncols=3) == [0, 0, 0]
    assert solve([[0, 0]], [0]) == [0, 0]
    assert solve([[0, 0]], [1]) is None


def test_solve_random_roundtrips():
    import random

    rng = random.Random(99)
    for _ in range(100):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        x0 = [rng.randint(-5, 5) for _ in range(n)]
        rhs = [sum(a * v for a, v in zip(row, x0)) for row in rows]
        x = solve(rows, rhs)
        assert x is not None
        check(rows, rhs, x)
