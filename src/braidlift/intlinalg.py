"""Exact integer linear algebra for small systems.

Everything here works on Python integers, so there is no overflow and no
rounding; pivoting orders are fixed so results are deterministic.
"""

import math


def rank(rows: "Iterable[Mapping[int, int]]") -> int:
    """Rank over Q of an integer matrix given as sparse {column: coefficient} rows.

    Incremental fraction-free echelon: each row is reduced against the
    basis row of its least column by integer cross-multiplication (scaling
    a row never changes the rank), in place on a copy without zero entries.
    """
    basis: dict[int, dict[int, int]] = {}
    for raw in rows:
        row = {k: v for k, v in raw.items() if v}
        while row:
            lead = min(row)
            other = basis.get(lead)
            if other is None:
                basis[lead] = row
                break
            a, b = row[lead], other[lead]
            g = math.gcd(a, b)
            ma, mb = a // g, b // g
            if mb != 1:
                for k in row:
                    row[k] *= mb
            for k, v in other.items():
                if v := row.get(k, 0) - v * ma:
                    row[k] = v
                else:
                    del row[k]
    return len(basis)


def solve(
    rows: "Sequence[Sequence[int]]", rhs: "Sequence[int]", ncols: int | None = None
) -> list[int] | None:
    """One integral solution x of A x = b, or None if none exists.

    Column Hermite-style elimination: unimodular column operations (tracked
    in U) bring A to column echelon form H, so A x = b becomes H y = b with
    x = U y.  The pivot coordinates of y are forced, which makes failure
    detection exact: a non-exact division or an inconsistent row means there
    is no integral solution at all.  Free coordinates are set to zero.
    """
    m = len(rows)
    if m != len(rhs):
        raise ValueError("rows and rhs lengths differ")
    if ncols is None:
        ncols = len(rows[0]) if m else 0
    n = ncols
    A = [list(row) for row in rows]
    for row in A:
        if len(row) != n:
            raise ValueError("ragged matrix")
    U = [[int(i == j) for j in range(n)] for i in range(n)]

    def col_sub(j: int, j0: int, q: int) -> None:
        for row in A:
            row[j] -= q * row[j0]
        for row in U:
            row[j] -= q * row[j0]

    def col_swap(j: int, j0: int) -> None:
        if j == j0:
            return
        for row in A:
            row[j], row[j0] = row[j0], row[j]
        for row in U:
            row[j], row[j0] = row[j0], row[j]

    def col_negate(j: int) -> None:
        for row in A:
            row[j] = -row[j]
        for row in U:
            row[j] = -row[j]

    pivots: list[tuple[int, int]] = []
    p = 0
    for i in range(m):
        if p == n:
            break
        while True:
            nz = [j for j in range(p, n) if A[i][j]]
            if len(nz) <= 1:
                break
            j0 = min(nz, key=lambda j: (abs(A[i][j]), j))
            for j in nz:
                if j != j0:
                    col_sub(j, j0, A[i][j] // A[i][j0])
        if nz:
            col_swap(nz[0], p)
            if A[i][p] < 0:
                col_negate(p)
            pivots.append((i, p))
            p += 1

    y = [0] * n
    t = 0
    for i in range(m):
        acc = sum(A[i][c] * y[c] for _, c in pivots[:t] if A[i][c])
        if t < len(pivots) and pivots[t][0] == i:
            c = pivots[t][1]
            num = rhs[i] - acc
            if num % A[i][c]:
                return None
            y[c] = num // A[i][c]
            t += 1
        elif acc != rhs[i]:
            return None
    return [sum(U[k][c] * y[c] for _, c in pivots) for k in range(n)]
