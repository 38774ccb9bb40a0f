"""Dense integer linear algebra on whole matrices: a test-only oracle.

Matrices here are lists of integer rows.  ``bareiss_det`` is fraction-free
Bareiss elimination over the full matrix, with no pivot chosen by sparsity
and nothing eliminated first.  It shares no code with ``symknot.algebra``,
but ``IntegerMatrix.determinant`` runs the same algorithm, so the tests
also check that one by cofactor expansion and by Smith normal form.  The
sparse elimination ``eliminate_pivots`` is checked against it: the core's
determinant is the whole matrix's up to a unit.  ``sparse_rows`` writes
dense rows in the one form that elimination and ``cokernel`` take.

``smith_form`` is Smith normal form with its unimodular transforms U and V
tracked, so a test can check U M V = D itself; the package keeps only the
diagonal, and ``snf_check`` is the one helper here that calls the package:
it checks ``smith_normal_form`` against this diagonal and these transforms.
"""

from __future__ import annotations

from symknot.algebra import smith_normal_form


def bareiss_det(rows: list[list[int]]) -> int:
    """Signed determinant of a square list of integer rows."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def sparse_rows(rows: list[list[int]]) -> list[dict[int, int]]:
    """Each row as a {column: nonzero entry} dict."""
    return [{j: a for j, a in enumerate(row) if a} for row in rows]


def sparse_matrix(m) -> tuple[list[dict[int, int]], int]:
    """A dense matrix object's rows as ``sparse_rows``, and its column count."""
    return sparse_rows(m.to_lists()), m.cols


def cofactor_det(rows: list[list[int]]) -> int:
    """Signed determinant by expansion along the first row (small sizes only)."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * a * cofactor_det([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j, a in enumerate(rows[0])
        if a
    )


def matmul(a: list[list[int]], b: list[list[int]], cols: int) -> list[list[int]]:
    """The product of a and b, where b has ``cols`` columns (b may have no rows)."""
    return [[sum(x * row[j] for x, row in zip(ra, b)) for j in range(cols)] for ra in a]


def delete_row_col(rows: list[list[int]], i: int, j: int) -> list[list[int]]:
    """The rows without row i, and each without its entry j."""
    return [row[:j] + row[j + 1 :] for k, row in enumerate(rows) if k != i]


def smith_form(rows: list[list[int]], cols: int):
    """(diagonal, U, V) with U M V = D, U and V unimodular, D = diag(d_1 | d_2 | ...) >= 0.

    Elementary integer row and column operations on M are applied to U
    and V alongside.  Pivoting takes a minimal-absolute-value nonzero entry
    of the trailing block; a pivot is fixed only once it divides every entry
    of that block, so the diagonal is a divisibility chain.
    """
    m = [list(row) for row in rows]
    nrows, ncols = len(m), cols
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def add_row(src, dst, factor):
        for mat in (m, u):
            mat[dst] = [a + factor * b for a, b in zip(mat[dst], mat[src])]

    def add_col(src, dst, factor):
        for mat in (m, v):
            for row in mat:
                row[dst] += factor * row[src]

    k = 0
    limit = min(nrows, ncols)
    while k < limit:
        block = [(abs(m[i][j]), i, j) for i in range(k, nrows) for j in range(k, ncols) if m[i][j]]
        if not block:
            break
        _, pi, pj = min(block)
        for mat in (m, u):
            mat[k], mat[pi] = mat[pi], mat[k]
        for mat in (m, v):
            for row in mat:
                row[k], row[pj] = row[pj], row[k]
        pivot = m[k][k]
        for i in range(k + 1, nrows):
            add_row(k, i, -(m[i][k] // pivot))
        for j in range(k + 1, ncols):
            add_col(k, j, -(m[k][j] // pivot))
        if any(m[i][k] for i in range(k + 1, nrows)) or any(m[k][j] for j in range(k + 1, ncols)):
            continue  # a remainder smaller than the pivot is the next pivot
        off = [i for i in range(k + 1, nrows) for j in range(k + 1, ncols) if m[i][j] % pivot]
        if off:
            add_row(off[0], k, 1)
            continue
        if pivot < 0:
            m[k] = [-x for x in m[k]]
            u[k] = [-x for x in u[k]]
        k += 1
    return tuple(m[i][i] for i in range(limit)), u, v


def snf_check(m):
    """The package diagonal of ``m``, checked against the oracle's transforms: U M V = D.

    A failed check raises ``AssertionError`` naming it, also under ``python -O``.
    """
    d = smith_normal_form(m)
    rows = m.to_lists()
    want, u, v = smith_form(rows, m.cols)
    prod = matmul(matmul(u, rows, m.cols), v, m.cols)
    checks = (
        ("diagonal equals the oracle's", d == want),
        ("divisibility chain", all(b == 0 if a == 0 else b % a == 0 for a, b in zip(d, d[1:]))),
        ("diagonal >= 0", all(x >= 0 for x in d)),
        ("U unimodular", bareiss_det(u) in (1, -1)),
        ("V unimodular", bareiss_det(v) in (1, -1)),
        ("U M V = D", all(
            x == (d[i] if i == j and i < len(d) else 0)
            for i, row in enumerate(prod)
            for j, x in enumerate(row)
        )),
    )
    failed = [name for name, ok in checks if not ok]
    if failed:
        raise AssertionError(f"Smith form of {rows}: {', '.join(failed)}")
    return d
