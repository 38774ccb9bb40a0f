"""The Alexander polynomial by Bareiss elimination over the Laurent ring: a test-only oracle.

Every Fox derivative is kept as a ``LaurentPolynomial`` and the first Fox
minor is eliminated fraction-free, with one polynomial product and one
exact division per entry update.  It is slow (about 0.3 s for a 39 x 39
minor) and shares nothing with ``symknot.polynomials`` but the Wirtinger
presentation, so it checks the Kronecker-substitution determinant there.
"""

from __future__ import annotations

from symknot.algebra import LaurentPolynomial
from symknot.diagram import PlanarDiagram
from symknot.polynomials import WirtingerPresentation, wirtinger


def fox_rows_laurent(pres: WirtingerPresentation) -> list[list[LaurentPolynomial]]:
    """Fox derivatives of each relator at the abelianization generator t."""
    g = len(pres.generators)
    rows = []
    for word in pres.relators:
        row = [dict() for _ in range(g)]
        prefix = 0  # running exponent of t
        for gen, e in word:
            if e == 1:
                row[gen][prefix] = row[gen].get(prefix, 0) + 1
                prefix += 1
            else:
                prefix -= 1
                row[gen][prefix] = row[gen].get(prefix, 0) - 1
        rows.append([LaurentPolynomial(cell) for cell in row])
    return rows


def laurent_det(rows: list[list[LaurentPolynomial]]) -> LaurentPolynomial:
    """Fraction-free Bareiss determinant over the Laurent ring."""
    n = len(rows)
    if n == 0:
        return LaurentPolynomial({0: 1})
    m = [row[:] for row in rows]
    sign = 1
    prev = LaurentPolynomial({0: 1})
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return LaurentPolynomial()
        pivot = m[k][k]
        for i in range(k + 1, n):
            head = m[i][k]
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - head * m[k][j]).exact_div(prev)
            m[i][k] = LaurentPolynomial()
        prev = pivot
    out = m[n - 1][n - 1]
    return -out if sign < 0 else out


def alexander_laurent(d: PlanarDiagram) -> LaurentPolynomial:
    """Delta(d), centred and signed so that Delta(1) = 1, from the Laurent minor."""
    if len(d.crossings) <= 1:
        return LaurentPolynomial({0: 1})
    rows = fox_rows_laurent(wirtinger(d))
    det = laurent_det([row[1:] for row in rows[1:]])
    centred = det.shift(-(det.min_exp() + det.max_exp()) // 2)
    return -centred if centred.evaluate(1) < 0 else centred
