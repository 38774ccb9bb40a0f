"""Classical polynomial invariants: Kauffman bracket, Jones, Alexander.

The bracket is an exact state sum over all smoothings, contracted by
planar scanning: crossings are glued one at a time in ``scan_order``, and
each partial smoothing is kept only as the pairing it leaves on the open
boundary, with a histogram of A-exponents and closed loops (L. Kauffman,
*State models and the Jones polynomial*, Topology 26 (1987); the scan is
the one of D. Bar-Natan, arXiv:math/0606318).  Jones is the bracket's
writhe-normalized rewrite in the quantum variable, and the Alexander
polynomial comes from Fox calculus on the Wirtinger presentation.  Two
Jones conventions are exposed: :func:`jones` gives the unnormalized
polynomial whose value on the unknot is q + q^-1 (the one that matches
graded Euler characteristics of the homology layer), and
:func:`jones_normalized` divides that unknot factor out.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import IntegerMatrix, LaurentPolynomial
from .diagram import BudgetError, InvariantError, PlanarDiagram, scan_order, scan_width

__all__ = [
    "BRACKET_BUDGET",
    "WirtingerPresentation",
    "kauffman_bracket",
    "jones",
    "jones_normalized",
    "wirtinger",
    "alexander",
    "determinant_alexander",
]

# A boundary of 2k points has (2k - 1)!! pairings: 14 points allow 135,135.
BRACKET_BUDGET = 14


def _find(parent: list[int], a: int) -> int:
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


# slot pairs joined by the 0-smoothing (factor A) and the 1-smoothing (A^-1)
_SMOOTHINGS = ((1, ((0, 1), (2, 3))), (-1, ((0, 3), (1, 2))))


def _join(partner: dict[int, int], u: int, v: int) -> int:
    """Glue an arc from edge label u to edge label v; 1 if it closes a loop.

    ``partner`` maps each open label to the other end of its strand.  A label
    already open is closed by the arc, a new one opens.
    """
    if u == v:  # the arc meets both ends of one edge: a kink's loop
        return 1
    pu = partner.pop(u, u)
    pv = partner.pop(v, v)
    if pu == v:  # u and v were the two ends of one strand
        return 1
    partner[pu] = pv
    partner[pv] = pu
    return 0


def _bracket_counts(crossings, order: list[int]) -> dict[tuple[int, int], int]:
    """Histogram of (A-exponent, closed loops) over all smoothings, by planar scanning.

    Crossings are glued one at a time in ``order``.  The state maps each
    pairing of the open boundary, as sorted (label, partner) items, to the
    histogram of the partial smoothings that leave it; both smoothings of
    the next crossing are glued into every state.
    """
    states: dict[tuple, dict[tuple[int, int], int]] = {(): {(0, 0): 1}}
    for i in order:
        x = crossings[i]
        glued: dict[tuple, dict[tuple[int, int], int]] = {}
        for pairing, hist in states.items():
            for step, arcs in _SMOOTHINGS:
                partner = dict(pairing)
                closed = sum(_join(partner, x[s], x[t]) for s, t in arcs)
                out = glued.setdefault(tuple(sorted(partner.items())), {})
                for (exp, loops), count in hist.items():
                    key = (exp + step, loops + closed)
                    out[key] = out.get(key, 0) + count
        states = glued
    if list(states) != [()]:
        open_ = sorted({a for pairing in states for a, _ in pairing})
        raise InvariantError(f"boundary {open_} left open after the last crossing")
    return states[()]


def kauffman_bracket(d: PlanarDiagram) -> LaurentPolynomial:
    """Bracket polynomial in the variable A, normalized to 1 on the unknot.

    Each extra loop multiplies by -A^2 - A^-2.  The scan's cost grows with
    the widest boundary of ``scan_order``, so diagrams whose widest boundary
    passes ``BRACKET_BUDGET`` points are refused before any state exists.
    """
    if not d.crossings and d.loops == 0:
        raise ValueError("empty diagram has no bracket in the unknot-normalized convention")
    order = scan_order(d.crossings)
    width = scan_width(d.crossings, order)
    if width > BRACKET_BUDGET:
        raise BudgetError(
            f"bracket scan needs a boundary of {width} points, past the "
            f"{BRACKET_BUDGET}-point budget",
            needed=width,
            budget=BRACKET_BUDGET,
        )
    delta = LaurentPolynomial({2: -1, -2: -1})
    powers = [LaurentPolynomial.one()]
    total = LaurentPolynomial.zero()
    for (exp, loops), count in sorted(_bracket_counts(d.crossings, order).items()):
        loops += d.loops
        while len(powers) <= loops - 1:
            powers.append(powers[-1] * delta)
        total = total + powers[loops - 1].shift(exp) * count
    return total


def _writhe_normalized_bracket(d: PlanarDiagram) -> LaurentPolynomial:
    """(-A^3)^(-w) <D>: invariant of the underlying oriented link."""
    w = d.writhe()
    f = kauffman_bracket(d).shift(-3 * w)
    return -f if w % 2 else f


def jones(d: PlanarDiagram) -> LaurentPolynomial:
    """Unnormalized Jones polynomial in q; the unknot maps to q + q^-1.

    This convention matches the graded Euler characteristic of the
    homology layer bigrading-for-bigrading.
    """
    f = _writhe_normalized_bracket(d)
    for e, _ in f:
        if e % 2:
            raise ArithmeticError(f"bracket exponent {e} is odd; state sum is corrupt")
    # substitute sqrt(t) -> -q; the sign only matters for even-component
    # links, where the bracket exponents sit in 2 mod 4
    v = LaurentPolynomial(
        {-(e // 2): -coeff if e // 2 % 2 else coeff for e, coeff in f}
    )
    return v * LaurentPolynomial({1: 1, -1: 1})


def jones_normalized(d: PlanarDiagram) -> LaurentPolynomial:
    """Jones polynomial normalized to 1 on the unknot, still in q."""
    return jones(d).exact_div(LaurentPolynomial({1: 1, -1: 1}))


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
    arc_of_edge: tuple[tuple[int, int], ...]  # (edge label, generator index)

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
    """Wirtinger presentation; a 0-crossing diagram gives a free group."""
    xs = d.crossings
    if not xs:
        gens = tuple(f"x{i + 1}" for i in range(d.loops))
        return WirtingerPresentation(gens, (), ())
    labels = sorted({a for x in xs for a in x})
    index = {a: i for i, a in enumerate(labels)}
    parent = list(range(len(labels)))
    for ci, x in enumerate(xs):
        over_in = d.over_in_slot(ci)
        a, b = index[x[over_in]], index[x[(over_in + 2) % 4]]
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            parent[ra] = rb
    roots = sorted({_find(parent, i) for i in range(len(labels))})
    gen_of_root = {r: g for g, r in enumerate(roots)}
    arc = {lab: gen_of_root[_find(parent, index[lab])] for lab in labels}

    relators = []
    for ci, x in enumerate(xs):
        over = arc[x[1]]
        under_in, under_out = arc[x[0]], arc[x[2]]
        if d.signs()[ci] > 0:
            word = ((under_out, 1), (over, 1), (under_in, -1), (over, -1))
        else:
            word = ((under_out, 1), (over, -1), (under_in, -1), (over, 1))
        relators.append(word)
    gens = tuple(f"x{g + 1}" for g in range(len(roots)))
    return WirtingerPresentation(
        gens, tuple(relators), tuple(sorted((lab, arc[lab]) for lab in labels))
    )


def _fox_rows_laurent(pres: WirtingerPresentation) -> list[list[LaurentPolynomial]]:
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


def _fox_rows_at_minus_one(pres: WirtingerPresentation) -> list[list[int]]:
    """Fox derivative rows evaluated at t = -1; stays in integers."""
    g = len(pres.generators)
    rows = []
    for word in pres.relators:
        row = [0] * g
        sign = 1  # (-1)^prefix
        for gen, e in word:
            if e == 1:
                row[gen] += sign
                sign = -sign
            else:
                sign = -sign
                row[gen] -= sign
        rows.append(row)
    return rows


def _laurent_det(rows: list[list[LaurentPolynomial]]) -> LaurentPolynomial:
    """Fraction-free Bareiss determinant over the Laurent ring."""
    n = len(rows)
    if n == 0:
        return LaurentPolynomial.one()
    m = [row[:] for row in rows]
    sign = 1
    prev = LaurentPolynomial.one()
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return LaurentPolynomial.zero()
        pivot = m[k][k]
        for i in range(k + 1, n):
            head = m[i][k]
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - head * m[k][j]).exact_div(prev)
            m[i][k] = LaurentPolynomial.zero()
        prev = pivot
    out = m[n - 1][n - 1]
    return -out if sign < 0 else out


def alexander(d: PlanarDiagram) -> LaurentPolynomial:
    """Alexander polynomial, normalized so D(t) = D(1/t) and D(1) = 1."""
    if d.n_components() != 1:
        raise ValueError("Alexander polynomial needs a one-component diagram")
    if len(d.crossings) <= 1:
        return LaurentPolynomial.one()
    pres = wirtinger(d)
    rows = _fox_rows_laurent(pres)
    det = _laurent_det([row[1:] for row in rows[1:]])
    if not det:
        # every first minor of a knot's Fox matrix is +-t^k Delta(t), never 0
        raise InvariantError(f"first Fox minor of {d.name or 'the knot'} vanished")
    return _normalize_alexander(det)


def _normalize_alexander(p: LaurentPolynomial) -> LaurentPolynomial:
    low = p.min_exp()
    span = p.max_exp() - low
    if span % 2:
        raise ArithmeticError(f"Alexander determinant has odd breadth: {p!r}")
    centered = p.shift(-low - span // 2)
    if centered != centered.mirror():
        raise ArithmeticError(f"Alexander determinant is not symmetric: {p!r}")
    at_one = centered.evaluate(1)
    if at_one == -1:
        centered = -centered
    elif at_one != 1:
        raise ArithmeticError(f"Alexander determinant has |D(1)| = {abs(at_one)}, not 1")
    return centered


def determinant_alexander(d: PlanarDiagram) -> int:
    """|D(-1)|, computed directly in integers from the Fox matrix."""
    if d.n_components() != 1:
        raise ValueError("knot determinant needs a one-component diagram")
    if len(d.crossings) <= 1:
        return 1
    pres = wirtinger(d)
    rows = _fox_rows_at_minus_one(pres)
    det = IntegerMatrix([row[1:] for row in rows[1:]]).determinant()
    if det == 0:
        # the minor is +-Delta(-1), which is odd for a knot
        raise InvariantError(f"first Fox minor of {d.name or 'the knot'} vanished at t = -1")
    return abs(det)
