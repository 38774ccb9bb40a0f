"""Classical polynomial invariants: Kauffman bracket, Jones, Alexander.

The bracket is an exact state sum over all smoothings, contracted by
planar scanning: crossings are glued in the diagram's ``crossing_order()``,
and each partial smoothing is kept only as the pairing it leaves on the open
boundary, each pairing with one {A-exponent: coefficient} dict.  A loop
multiplies its smoothing's part by -A^2 - A^-2 as soon as it closes
(L. Kauffman, *State models and the Jones polynomial*, Topology 26
(1987); the scan is the one of D. Bar-Natan, arXiv:math/0606318), so on
K_n the work is linear in n.  Jones is the bracket's writhe-normalized
rewrite in the quantum variable.  The Alexander polynomial is the
determinant of a first minor of the Alexander matrix, whose sparse rows
are read straight off the crossings, at most three entries c0 + c1 t
each, in the {column: entry} form the Goeritz matrix is written in too.
Kronecker substitution makes it one integer determinant: the minor is
evaluated at t = 2^b, with 2^b past twice 4^m for an m x m minor, the
product of the rows' coefficient 1-norms, which bounds every coefficient
of the determinant.  Every row holds a +1 and a -t^k, units of Z[t^+-1]: the
sparse elimination of ``algebra.eliminate_pivots`` clears the entries
equal to +-2^(bk) and divides each updated row by its common power of t,
which changes the determinant only by a unit, and ``IntegerMatrix``
takes the determinant of the few rows left.  Its signed base-2^b digits
are the coefficients.  The knot determinant |Delta(-1)| is read off the
polynomial, so no second minor is built for it.  Two Jones conventions
are exposed: :func:`jones` gives the unnormalized polynomial whose value
on the unknot is q + q^-1 (the one that matches graded Euler
characteristics of the homology layer), and :func:`jones_normalized`
divides that unknot factor out.
"""

from __future__ import annotations

from .algebra import LaurentPolynomial, eliminate_pivots
from .diagram import BudgetError, InvariantError, PlanarDiagram, find, memoized

__all__ = [
    "BRACKET_BUDGET",
    "kauffman_bracket",
    "jones",
    "jones_normalized",
    "alexander",
    "determinant_alexander",
]

# A boundary of 2k points has (2k - 1)!! pairings: 14 points allow 135,135.
BRACKET_BUDGET = 14


# slot pairs joined by the 0-smoothing (factor A) and the 1-smoothing (A^-1)
_SMOOTHINGS = ((1, ((0, 1), (2, 3))), (-1, ((0, 3), (1, 2))))

# the loop value delta = -A^2 - A^-2, and its powers for the 0, 1 or 2 loops
# that one smoothing can close, as (A-exponent, coefficient) pairs
_DELTA = LaurentPolynomial({2: -1, -2: -1})
_DELTA_POWERS = tuple(tuple(_DELTA**k) for k in range(3))


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


def _bracket_scan(crossings, order) -> dict[int, int]:
    """Sum over all smoothings of A^(a - b) delta^loops, by planar scanning.

    a and b count the 0- and 1-smoothings, and ``loops`` the loops closed.
    Crossings are glued one at a time in ``order``.  The state maps each
    pairing of the open boundary, as sorted (label, partner) items, to the
    {A-exponent: coefficient} sum of the partial smoothings that leave it;
    both smoothings of the next crossing are glued into every state, and a
    smoothing that closes loops multiplies its part by delta at once
    (Kauffman's rule), so no state keeps a loop count.  A coefficient that
    cancelled to 0 is dropped when its state is glued next.
    """
    states: dict[tuple, dict[int, int]] = {(): {0: 1}}
    for i in order:
        x = crossings[i]
        glued: dict[tuple, dict[int, int]] = {}
        for pairing, poly in states.items():
            for step, arcs in _SMOOTHINGS:
                partner = dict(pairing)
                closed = sum(_join(partner, x[s], x[t]) for s, t in arcs)
                key = tuple(sorted(partner.items()))
                out = glued.get(key)
                if out is None:
                    out = glued[key] = {}
                factor = _DELTA_POWERS[closed]
                for exp, coeff in poly.items():
                    if coeff:
                        exp += step
                        for e, c in factor:
                            out[exp + e] = out.get(exp + e, 0) + coeff * c
        states = glued
    if list(states) != [()]:
        open_ = sorted({a for pairing in states for a, _ in pairing})
        raise InvariantError(f"boundary {open_} left open after the last crossing")
    return states[()]


def kauffman_bracket(d: PlanarDiagram) -> LaurentPolynomial:
    """Bracket polynomial in the variable A, normalized to 1 on the unknot.

    Each extra loop multiplies by delta = -A^2 - A^-2: the scan's sum, times
    delta per crossing-free loop, divided by delta once.  The scan glues
    the crossings in ``d.crossing_order()``, and its cost grows with the
    widest boundary of that order, so diagrams whose widest boundary
    passes ``BRACKET_BUDGET`` points are refused before any state exists.
    """
    if not d.crossings and d.loops == 0:
        raise ValueError("empty diagram has no bracket in the unknot-normalized convention")
    width = d.scan_width()
    if width > BRACKET_BUDGET:
        raise BudgetError(
            f"bracket scan needs a boundary of {width} points, past the "
            f"{BRACKET_BUDGET}-point budget",
            needed=width,
            budget=BRACKET_BUDGET,
        )
    unnormalized = LaurentPolynomial(_bracket_scan(d.crossings, d.crossing_order()))
    return (unnormalized * _DELTA**d.loops).exact_div(_DELTA)


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


def _alexander_minor(d: PlanarDiagram, t: int) -> tuple[list[dict[int, int]], int]:
    """First minor of the Alexander matrix at the integer t: crossing 0 and arc 0 deleted.

    Arcs are the over-strands, PD edges merged across the two over slots of
    every crossing, numbered in the order of their roots.  A positive
    crossing's row holds 1, t - 1 and -t on the arcs of x[2], x[1] and x[0],
    a negative one's t, 1 - t and -1 (J. W. Alexander, Trans. AMS 30 (1928)
    275-306); these are the Fox derivatives of its Wirtinger relator, shifted
    to lowest exponent 0, so the minor's determinant is +-t^k Delta(t).  The
    union direction and the root numbering fix which minor this is, and the
    monomial-pivot elimination leaves a small core only on some of them.
    It comes as ``eliminate_pivots`` takes it: {column: nonzero} rows, arc
    j in column j - 1 (arc 0 dropped), and the column count.
    """
    xs = d.crossings
    parent = {a: a for x in xs for a in x}
    for x, sign in zip(xs, d.signs()):
        over_in = 3 if sign > 0 else 1
        parent[find(parent, x[over_in])] = find(parent, x[over_in ^ 2])
    column = {r: j - 1 for j, r in enumerate(sorted({find(parent, a) for a in parent}))}
    rows = []
    for x, sign in zip(xs[1:], d.signs()[1:]):
        row: dict[int, int] = {}
        entries = (1, t - 1, -t) if sign > 0 else (t, 1 - t, -1)
        for label, entry in zip((x[2], x[1], x[0]), entries):
            j = column[find(parent, label)]
            row[j] = row.get(j, 0) + entry
        rows.append({j: v for j, v in row.items() if v and j >= 0})
    return rows, len(column) - 1


@memoized
def alexander(d: PlanarDiagram) -> LaurentPolynomial:
    """Alexander polynomial, normalized so D(t) = D(1/t) and D(1) = 1."""
    if d.n_components() != 1:
        raise ValueError("Alexander polynomial needs a one-component diagram")
    if len(d.crossings) <= 1:
        return LaurentPolynomial({0: 1})
    # every row has coefficient 1-norm 4, and every coefficient of the
    # minor's determinant is at most the product of the rows' norms
    b = (2 * 4 ** (len(d.crossings) - 1)).bit_length()
    # Eliminating the units +-t^k of Z[t^+-1] leaves a core whose determinant
    # is the minor's times a unit +-t^K, which the normalization removes: a
    # row update either scales the row by the pivot or divides the entry by
    # it exactly, and the row's common power of t is then divided out.
    # Either way every entry stays an integer and stays t^K (K of either
    # sign) times a minor of the Alexander matrix, so its coefficients stay
    # under the bound above.  Its base-2^b digits are then unique: an entry
    # equal to +-2^(bk) is the monomial +-t^k, 2^(bk) divides an entry
    # exactly when t^k does, and the core's determinant decodes as the
    # minor's would.
    value = eliminate_pivots(*_alexander_minor(d, 1 << b), b).determinant()
    if value == 0:
        # every first minor of a knot's Alexander matrix is +-t^k Delta(t), never 0
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
