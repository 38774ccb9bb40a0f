"""Classical polynomial invariants: Kauffman bracket, Jones, Alexander.

The bracket is an exact state sum over all smoothings, contracted by
planar scanning: crossings are glued one at a time in ``scan_order``, and
each partial smoothing is kept only as the pairing it leaves on the open
boundary, with a histogram of A-exponents and closed loops (L. Kauffman,
*State models and the Jones polynomial*, Topology 26 (1987); the scan is
the one of D. Bar-Natan, arXiv:math/0606318).  Jones is the bracket's
writhe-normalized rewrite in the quantum variable.  The Alexander
polynomial is the determinant of a first minor of the Fox matrix of the
Wirtinger presentation, whose entries, each row shifted by a power of t,
are c0 + c1 t.  Kronecker substitution makes it one integer determinant:
the minor is evaluated at t = 2^b, with 2^b past twice the product of the
relator lengths (4^m for an m x m minor), which bounds the rows'
coefficient 1-norms and so every coefficient of the determinant.  Every
Fox row holds a +1 and a -t^k, units of Z[t^+-1]: the sparse elimination
of ``algebra.eliminate_pivots`` clears the entries equal to +-2^(bk),
which changes the determinant only by a unit, and ``IntegerMatrix``
takes the determinant of the few rows left.  Its signed base-2^b digits
are the coefficients.  The knot determinant |Delta(-1)| is read off the
polynomial, so no second Fox minor is built for it.  Two Jones
conventions are exposed: :func:`jones` gives the unnormalized polynomial
whose value on the unknot is q + q^-1 (the one that matches graded Euler
characteristics of the homology layer), and :func:`jones_normalized`
divides that unknot factor out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import IntegerMatrix, LaurentPolynomial, eliminate_pivots
from .diagram import BudgetError, InvariantError, PlanarDiagram, find, memoized, scan_order, scan_width

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


@memoized
def jones(d: PlanarDiagram) -> LaurentPolynomial:
    """Unnormalized Jones polynomial in q; the unknot maps to q + q^-1.

    This convention matches the graded Euler characteristic of the
    homology layer bigrading-for-bigrading.
    """
    f = _writhe_normalized_bracket(d)
    for e, _ in f:
        if e % 2:
            raise InvariantError(f"bracket exponent {e} is odd; state sum is corrupt")
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
        over_in = d.over_in_slot(ci)
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
    # from a list: tuple(<generator>) resizes its tuple, and without a full
    # collection that leaves CPython's tuple free lists growing call by call
    gens = tuple([f"x{g + 1}" for g in range(len(roots) + d.loops)])
    return WirtingerPresentation(gens, tuple(relators))


def _fox_minor(pres: WirtingerPresentation, t: int) -> IntegerMatrix:
    """First Fox minor (first relator and generator deleted) at the integer t.

    Each relator's Fox derivatives are shifted by the power of t that makes
    their lowest exponent 0, so every entry is c0 + c1 t and the minor's
    determinant is +-t^k Delta(t), which the Alexander normalization
    re-centres.
    """
    rows = []
    for word in pres.relators[1:]:
        terms = []
        prefix = 0  # running exponent of t
        for gen, e in word:
            if e == 1:
                terms.append((gen, prefix, 1))
                prefix += 1
            else:
                prefix -= 1
                terms.append((gen, prefix, -1))
        low = min(k for _, k, _ in terms)
        row = [0] * len(pres.generators)
        for gen, k, c in terms:
            row[gen] += c * t ** (k - low)
        rows.append(row[1:])
    return IntegerMatrix(rows)


@memoized
def alexander(d: PlanarDiagram) -> LaurentPolynomial:
    """Alexander polynomial, normalized so D(t) = D(1/t) and D(1) = 1."""
    if d.n_components() != 1:
        raise ValueError("Alexander polynomial needs a one-component diagram")
    if len(d.crossings) <= 1:
        return LaurentPolynomial.one()
    pres = wirtinger(d)
    # a Fox row has coefficient 1-norm at most its relator's length, and
    # every coefficient of the minor's determinant at most their product
    bound = math.prod(len(word) for word in pres.relators[1:])
    b = (2 * bound).bit_length()

    def is_monomial(x: int) -> bool:  # x == +-2^(bk) == +-t^k
        x = abs(x)
        return x & (x - 1) == 0 and (x.bit_length() - 1) % b == 0

    # Eliminating the units +-t^k of Z[t^+-1] leaves a core whose determinant
    # is the minor's times a unit +-t^K, which the normalization removes: a
    # row update either scales the row by the pivot or divides the entry by
    # it exactly.  Either way every entry stays an integer and stays t^K (K
    # of either sign) times a minor of the Fox matrix, so its coefficients
    # stay under the bound above.  Its base-2^b digits are then unique: an
    # entry equal to +-2^(bk) is the monomial +-t^k, 2^(bk) divides an entry
    # exactly when t^k does, and the core's determinant decodes as the
    # minor's would.
    value = eliminate_pivots(_fox_minor(pres, 1 << b), is_monomial).core.determinant()
    if value == 0:
        # every first minor of a knot's Fox matrix is +-t^k Delta(t), never 0
        raise InvariantError(f"first Fox minor of {d.name or 'the knot'} vanished")
    half, mask = 1 << (b - 1), (1 << b) - 1
    digits = []  # value = sum of digits[k] * 2^(bk), each |digit| < 2^(b-1)
    while value:
        digits.append(((value + half) & mask) - half)
        value = (value - digits[-1]) >> b
    return _normalize_alexander(LaurentPolynomial(enumerate(digits)))


def _normalize_alexander(p: LaurentPolynomial) -> LaurentPolynomial:
    """Centre +-t^k Delta(t) and fix its sign so that D(1) = 1.

    A knot's Delta is symmetric of even breadth with Delta(1) = +-1; a
    determinant, or a decode of one, that breaks this raises.
    """
    low = p.min_exp()
    span = p.max_exp() - low
    if span % 2:
        raise InvariantError(f"Alexander determinant has odd breadth: {p!r}")
    centered = p.shift(-low - span // 2)
    if centered != centered.mirror():
        raise InvariantError(f"Alexander determinant is not symmetric: {p!r}")
    at_one = centered.evaluate(1)
    if at_one == -1:
        centered = -centered
    elif at_one != 1:
        raise InvariantError(f"Alexander determinant has |D(1)| = {abs(at_one)}, not 1")
    return centered


@memoized
def determinant_alexander(d: PlanarDiagram) -> int:
    """|D(-1)|, read off the Alexander polynomial.

    The normalization forces D(1) = 1, so D(-1), congruent to it mod 2, is
    odd and never 0.
    """
    return abs(alexander(d).evaluate(-1))
