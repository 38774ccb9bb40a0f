"""Dense integer linear algebra on whole matrices: a test-only oracle.

``bareiss_det`` is fraction-free Bareiss elimination over the full matrix,
with no pivot chosen by sparsity and nothing eliminated first.  It shares
no code with ``symknot.algebra``, but ``IntegerMatrix.determinant`` runs
the same algorithm, so the tests also check that one by cofactor expansion
and by Smith normal form.  The sparse elimination ``eliminate_pivots`` is
checked against it: the core's determinant is the whole matrix's up to a
unit.  ``sparse_rows`` writes dense rows in the one form that elimination
takes.
"""

from __future__ import annotations


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


def cofactor_det(rows: list[list[int]]) -> int:
    """Signed determinant by expansion along the first row (small sizes only)."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * a * cofactor_det([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j, a in enumerate(rows[0])
        if a
    )
