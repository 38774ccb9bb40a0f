"""Known diagrams and parametric diagram generators.

Small diagrams are hard-coded PD codes; families come from a geometric
builder that lays crossings out with explicit corner roles, traces strand
directions around the closure, and only then commits each crossing's
incoming under-strand slot.  This keeps generated codes honest for plat
closures and tangles, where strands run in both directions.
"""

from __future__ import annotations

from .diagram import (
    PlanarDiagram,
    SymmetricUnion,
    TangleSite,
    assemble_corners,
    mirror,
    parse_pd,
    symmetric_union,
)

__all__ = [
    "unknot_zero",
    "unknot_kink",
    "unknot_r2",
    "two_unlink",
    "trefoil",
    "figure_eight",
    "knot_5_2",
    "KN_SITE",
    "kn_template",
    "knot_10_22",
    "braid_pd",
    "torus_2k",
    "pretzel",
    "rational_knot",
]


def unknot_zero() -> PlanarDiagram:
    """Crossing-free round unknot."""
    return PlanarDiagram([], loops=1, name="unknot")


def unknot_kink(sign: int = 1) -> PlanarDiagram:
    """One-crossing unknot with writhe ``sign``."""
    if sign == 1:
        return parse_pd("X[1,1,2,2]", name="kink+")
    if sign == -1:
        return parse_pd("X[1,2,2,1]", name="kink-")
    raise ValueError("sign must be +1 or -1")


def unknot_r2() -> PlanarDiagram:
    """Two-crossing unknot, one positive and one negative crossing."""
    d = braid_pd([1, -1], 2, [(0, 1)], [(0, 1)], name="unknot-r2")
    return d


def two_unlink() -> PlanarDiagram:
    """Two disjoint round circles."""
    return PlanarDiagram([], loops=2, name="two-unlink")


def trefoil(positive: bool = True) -> PlanarDiagram:
    """Trefoil knot; ``positive`` selects the all-positive-crossing chirality."""
    neg = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]", name="trefoil-")
    if positive:
        d = mirror(neg)
        d.name = "trefoil+"
        return d
    return neg


def figure_eight() -> PlanarDiagram:
    """Figure-eight knot (amphichiral, writhe 0)."""
    return parse_pd("X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]", name="figure-eight")


def knot_5_2(positive: bool = True) -> PlanarDiagram:
    """The 5_2 twist knot; ``positive`` selects the all-positive chirality."""
    neg = parse_pd("X[1,4,2,5] X[3,8,4,9] X[5,10,6,1] X[9,6,10,7] X[7,2,8,3]", name="5_2-")
    if positive:
        d = mirror(neg)
        d.name = "5_2+"
        return d
    return neg


# Band and twist edges of the 5_2 diagram used by the twisted-union family.
# Any band/twist pair whose fusion caps split the union into two unknotted
# halves gives the same family of knots; this pair is the lexicographically
# first one, validated by determinant 49 for all n, fusion bracket equal to
# the two-component unlink's, and the ten-crossing member matching 10_22.
KN_SITE = TangleSite(1, 4, 1, 4)


def kn_template(n: int) -> SymmetricUnion:
    """Member ``n`` of the twisted symmetric-union family built on 5_2.

    ``10 + |n|`` crossings; ``n`` counts half twists between a 5_2 edge and
    its mirror partner, with positive ``n`` giving positive crossings.  The
    zeroth member is the connected sum of 5_2 with its mirror image.
    """
    d = symmetric_union(knot_5_2(True), KN_SITE, n)
    d.name = f"K_{n}"
    return d


def knot_10_22() -> PlanarDiagram:
    """An eleven-crossing diagram of the knot 10_22.

    Serialized from the single-twist member of the symmetric-union family;
    its Jones, Alexander, and Khovanov invariants match the published
    tables for 10_22.
    """
    return parse_pd(
        "X[1,2,3,4] X[5,6,7,8] X[9,1,10,11] X[12,5,11,10] X[4,7,6,12]"
        " X[13,2,14,15] X[16,17,18,19] X[20,14,9,21] X[21,18,22,20]"
        " X[17,16,15,22] X[3,13,19,8]",
        name="10_22",
    )


# -- geometric wire builder --------------------------------------------------


def braid_pd(
    word: list[int],
    strands: int,
    top_caps: list[tuple[int, int]] | None = None,
    bottom_caps: list[tuple[int, int]] | None = None,
    name: str | None = None,
) -> PlanarDiagram:
    """PD code of a braid word closed up by caps or by the trace closure.

    Letter ``+i`` crosses strand positions i-1 and i with the NE-SW strand
    on top, ``-i`` with the NW-SE strand on top.  With no caps the braid is
    closed strand-to-strand (trace closure); otherwise ``top_caps`` and
    ``bottom_caps`` pair up the boundary positions, each position exactly
    once per side.
    """
    if strands < 2:
        raise ValueError("need at least 2 strand positions")
    n_wires = 0

    def fresh() -> int:
        nonlocal n_wires
        n_wires += 1
        return n_wires - 1

    cur = [fresh() for _ in range(strands)]
    top = list(cur)
    xs: list[tuple[tuple[int, int, int, int], bool]] = []
    for letter in word:
        i = abs(letter)
        if letter == 0 or not 1 <= i <= strands - 1:
            raise ValueError(f"bad braid letter {letter} for {strands} strands")
        nw, ne = cur[i - 1], cur[i]
        sw, se = fresh(), fresh()
        xs.append(((nw, ne, sw, se), letter > 0))
        cur[i - 1], cur[i] = sw, se

    unions: list[tuple[int, int]] = []
    if top_caps is None and bottom_caps is None:
        unions = [(cur[p], top[p]) for p in range(strands)]
    elif top_caps is not None and bottom_caps is not None:
        for caps, ends in ((top_caps, top), (bottom_caps, cur)):
            covered = sorted(p for pair in caps for p in pair)
            if covered != list(range(strands)):
                raise ValueError("caps must pair every strand position exactly once")
            unions += [(ends[p], ends[q]) for p, q in caps]
    else:
        raise ValueError("give both cap lists or neither")
    return assemble_corners(xs, unions, n_wires, name)


def torus_2k(k: int) -> PlanarDiagram:
    """Closure of a 2-braid with ``k`` uniform crossings: T(2,k) torus link."""
    if k == 0:
        return two_unlink()
    letter = 1 if k > 0 else -1
    return braid_pd([letter] * abs(k), 2, name=f"T(2,{k})")


def pretzel(p: int, q: int, r: int) -> PlanarDiagram:
    """Three-column pretzel link P(p, q, r); positive entries twist one way.

    Columns sit on strand pairs (0,1), (2,3), (4,5) and the caps chain the
    column tops and bottoms in a cycle.
    """
    word = [(1 if p > 0 else -1) * 1] * abs(p)
    word += [(1 if q > 0 else -1) * 3] * abs(q)
    word += [(1 if r > 0 else -1) * 5] * abs(r)
    caps = [(1, 2), (3, 4), (5, 0)]
    return braid_pd(word, 6, caps, caps, name=f"P({p},{q},{r})")


def rational_knot(seq: list[int], name: str | None = None) -> PlanarDiagram:
    """Numerator closure of the rational tangle twisted by ``seq``.

    Starting from the zero tangle, blocks alternate between twisting the
    two right ends and the two bottom ends, beginning at the right; entry
    signs pick the crossing sense within a block.  The realized fraction
    is the continued fraction a_n + 1/(a_{n-1} + 1/(... + 1/a_1)), so an
    odd-length all-positive ``seq`` closes to an alternating two-bridge
    knot or link: [3] is the trefoil, [1, 1, 2] the figure-eight (5/2)
    and [1, 1, 3] the 5_2 knot (7/2).
    """
    if not seq or any(a == 0 for a in seq):
        raise ValueError("twist counts must be nonzero")
    n_wires = 0

    def fresh() -> int:
        nonlocal n_wires
        n_wires += 1
        return n_wires - 1

    w_top, w_bot = fresh(), fresh()
    nw, ne, sw, se = w_top, w_top, w_bot, w_bot
    xs: list[tuple[tuple[int, int, int, int], bool]] = []
    for j, a in enumerate(seq):
        for _ in range(abs(a)):
            if j % 2 == 0:
                # Crossing to the right: its west ends meet ne and se.
                new_ne, new_se = fresh(), fresh()
                xs.append(((ne, new_ne, se, new_se), a > 0))
                ne, se = new_ne, new_se
            else:
                # Crossing below the tangle: its top ends meet sw and se.
                new_sw, new_se = fresh(), fresh()
                xs.append(((sw, se, new_sw, new_se), a > 0))
                sw, se = new_sw, new_se
    unions = [(nw, ne), (sw, se)]
    return assemble_corners(xs, unions, n_wires, name or f"rational{tuple(seq)}")
