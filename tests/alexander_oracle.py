"""The Alexander polynomial from the Wirtinger presentation: a test-only oracle.

Each crossing gives a length-4 Wirtinger relator, and its Fox derivatives
are taken letter by letter.  ``fox_minor`` evaluates the first Fox minor at
an integer t, the word-level reference for the rows the package writes
straight off the crossings.  ``alexander_laurent`` keeps every derivative
as a ``LaurentPolynomial`` and eliminates the minor fraction-free, with one
polynomial product and one exact division per entry update.  It is slow
(about 0.3 s for a 39 x 39 minor) and shares nothing with
``symknot.polynomials``, so it checks the Kronecker-substitution
determinant there.
"""

from __future__ import annotations

from dataclasses import dataclass

from symknot.algebra import IntegerMatrix, LaurentPolynomial
from symknot.diagram import IN, PlanarDiagram, find


@dataclass(frozen=True)
class WirtingerPresentation:
    """Knot group presentation read off the diagram.

    One generator per arc (maximal over-strand: PD edges merged across
    the two over slots of every crossing) and one length-4 relator per
    crossing.  Relators are words ((generator, exponent), ...) with the
    pattern out * over * in^-1 * over^-1 for positive crossings and the
    over-conjugation reversed for negative ones.
    """

    generators: tuple[str, ...]
    relators: tuple[tuple[tuple[int, int], ...], ...]

    def abelianized_matrix(self) -> IntegerMatrix:
        """Exponent-sum matrix, relators x generators."""
        rows = []
        for word in self.relators:
            row = [0] * len(self.generators)
            for g, e in word:
                row[g] += e
            rows.append(row)
        return IntegerMatrix(rows) if rows else IntegerMatrix.zero(0, len(self.generators))


def wirtinger(d: PlanarDiagram) -> WirtingerPresentation:
    """Wirtinger presentation; each crossingless loop adds a free generator."""
    xs = d.crossings
    labels = sorted({a for x in xs for a in x})
    index = {a: i for i, a in enumerate(labels)}
    parent = list(range(len(labels)))
    for ci, x in enumerate(xs):
        # read off the strand walk itself, not the package's sign rule
        over_in = 1 if d.orientation()[(ci, 1)] == IN else 3
        a, b = index[x[over_in]], index[x[(over_in + 2) % 4]]
        parent[find(parent, a)] = find(parent, b)
    roots = sorted({find(parent, i) for i in range(len(labels))})
    gen_of_root = {r: g for g, r in enumerate(roots)}
    arc = {lab: gen_of_root[find(parent, index[lab])] for lab in labels}

    relators = []
    for ci, x in enumerate(xs):
        over = arc[x[1]]
        under_in, under_out = arc[x[0]], arc[x[2]]
        if d.signs()[ci] > 0:
            word = ((under_out, 1), (over, 1), (under_in, -1), (over, -1))
        else:
            word = ((under_out, 1), (over, -1), (under_in, -1), (over, 1))
        relators.append(word)
    gens = tuple([f"x{g + 1}" for g in range(len(roots) + d.loops)])
    return WirtingerPresentation(gens, tuple(relators))


def _fox_terms(word: tuple[tuple[int, int], ...]) -> list[tuple[int, int, int]]:
    """(generator, exponent of t, coefficient) of each Fox derivative term."""
    terms = []
    prefix = 0  # running exponent of t
    for gen, e in word:
        if e == 1:
            terms.append((gen, prefix, 1))
            prefix += 1
        else:
            prefix -= 1
            terms.append((gen, prefix, -1))
    return terms


def fox_minor(pres: WirtingerPresentation, t: int) -> IntegerMatrix:
    """First Fox minor (first relator and generator deleted) at the integer t.

    Each relator's Fox derivatives are shifted by the power of t that makes
    their lowest exponent 0, so every entry is c0 + c1 t.
    """
    rows = []
    for word in pres.relators[1:]:
        terms = _fox_terms(word)
        low = min(k for _, k, _ in terms)
        row = [0] * len(pres.generators)
        for gen, k, c in terms:
            row[gen] += c * t ** (k - low)
        rows.append(row[1:])
    return IntegerMatrix(rows)


def fox_rows_laurent(pres: WirtingerPresentation) -> list[list[LaurentPolynomial]]:
    """Fox derivatives of each relator at the abelianization generator t."""
    rows = []
    for word in pres.relators:
        row = [dict() for _ in pres.generators]
        for gen, k, c in _fox_terms(word):
            row[gen][k] = row[gen].get(k, 0) + c
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
