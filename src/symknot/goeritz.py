"""Checkerboard colorings, Goeritz forms, and the branched double cover.

The complementary regions of a connected diagram admit exactly one
2-coloring up to swapping the classes.  The Goeritz matrix over the
white class presents H1 of the double cover of S^3 branched over the
knot.  H1 is computed from each color class and cross-asserted, which
catches any incidence-sign mistake immediately.  The knot determinant
|det G| is the order of that group (W. B. R. Lickorish, *An Introduction
to Knot Theory*, GTM 175, ch. 9), so it is read off H1 rather than
computed again.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AbelianGroup, IntegerMatrix, cokernel
from .diagram import DiagramStructureError, InvariantError, PlanarDiagram, memoized

__all__ = [
    "CheckerboardColoring",
    "GoeritzData",
    "checkerboard",
    "goeritz_matrix",
    "determinant_goeritz",
    "h1_branched_cover",
]


@dataclass(frozen=True)
class CheckerboardColoring:
    """Face colors (1 = white, 0 = black) indexed like ``d.faces()``."""

    colors: tuple[int, ...]
    white_regions: tuple[int, ...]

    def n_white(self) -> int:
        return len(self.white_regions)


@dataclass(frozen=True)
class GoeritzData:
    """Pre-Goeritz form, its reduction, and the per-crossing incidences.

    ``g_prime`` is the full symmetric form over the white regions (every
    row sums to zero); ``goeritz`` deletes its first row and column and
    is the presentation matrix actually used downstream.
    """

    g_prime: IntegerMatrix
    goeritz: IntegerMatrix
    incidences: tuple[int, ...]


def checkerboard(d: PlanarDiagram, white_class: int | None = None) -> CheckerboardColoring:
    """2-color the complementary regions of a connected diagram.

    ``white_class`` picks which parity class is white; the default is
    the smaller class (ties: the class not containing the first
    traversal face), which keeps the Goeritz form small.
    """
    if not d.crossings:
        if d.loops != 1:
            raise DiagramStructureError("checkerboard coloring needs a connected diagram")
        parity = (0, 1)
    else:
        faces = d.faces()
        pos_face = {pos: fi for fi, cyc in enumerate(faces) for pos in cyc}
        adjacency: list[list[int]] = [[] for _ in faces]
        for ends in d.appearances().values():
            fa, fb = pos_face[ends[0]], pos_face[ends[1]]
            adjacency[fa].append(fb)
            adjacency[fb].append(fa)
        color = [-1] * len(faces)
        color[0] = 0
        queue = [0]
        while queue:
            f = queue.pop()
            for g in adjacency[f]:
                if color[g] == -1:
                    color[g] = 1 - color[f]
                    queue.append(g)
                elif color[g] == color[f]:
                    raise DiagramStructureError("regions are not 2-colorable")
        parity = tuple(color)
    if white_class is None:
        zeros = parity.count(0)
        ones = len(parity) - zeros
        if zeros == ones:
            white_class = 1 - parity[0]
        else:
            white_class = 0 if zeros < ones else 1
    # from a list: tuple(<generator>) resizes its tuple, and without a full
    # collection that leaves CPython's tuple free lists growing call by call
    colors = tuple([1 if p == white_class else 0 for p in parity])
    white = tuple([fi for fi, c in enumerate(colors) if c == 1])
    return CheckerboardColoring(colors, white)


def goeritz_matrix(d: PlanarDiagram, col: CheckerboardColoring) -> GoeritzData:
    """Goeritz form over the white regions of ``col``.

    The incidence of a crossing is +1 exactly when its white corners are
    the pair swept by rotating the over-strand counterclockwise (corners
    1 and 3 in slot order); the convention is pinned, up to the global
    sign that |det| ignores, by the determinant cross-check against the
    Alexander channel.
    """
    foc = d.face_of_corner()
    m = col.n_white()
    region = {f: i for i, f in enumerate(col.white_regions)}
    g = [[0] * m for _ in range(m)]
    etas = []
    for ci in range(len(d.crossings)):
        if col.colors[foc[(ci, 1)]] == 1:
            eta = 1
            fa, fb = foc[(ci, 1)], foc[(ci, 3)]
        else:
            eta = -1
            fa, fb = foc[(ci, 0)], foc[(ci, 2)]
        etas.append(eta)
        i, j = region[fa], region[fb]
        if i != j:
            g[i][j] -= eta
            g[j][i] -= eta
    for i in range(m):
        g[i][i] = -sum(g[i])  # the diagonal is still 0 here
    g_prime = IntegerMatrix(g)
    reduced = g_prime.delete_row_col(0, 0) if m else IntegerMatrix.zero(0, 0)
    return GoeritzData(g_prime, reduced, tuple(etas))


def _both_classes(d: PlanarDiagram) -> tuple[GoeritzData, GoeritzData]:
    return (
        goeritz_matrix(d, checkerboard(d, white_class=0)),
        goeritz_matrix(d, checkerboard(d, white_class=1)),
    )


@memoized
def h1_branched_cover(d: PlanarDiagram) -> AbelianGroup:
    """H1 of the double cover branched over the knot, from the Goeritz form."""
    if d.n_components() != 1:
        raise ValueError("branched double cover homology needs a one-component diagram")
    a, b = _both_classes(d)
    ga, gb = cokernel(a.goeritz), cokernel(b.goeritz)
    if ga != gb:
        raise InvariantError(f"color classes disagree on H1: {ga} vs {gb}")
    return ga


@memoized
def determinant_goeritz(d: PlanarDiagram) -> int:
    """|det G|, read off H1 as its order."""
    h1 = h1_branched_cover(d)
    if h1.free_rank:
        # a knot's double branched cover is a rational homology sphere
        raise InvariantError(f"H1 of {d.name or 'the knot'} is infinite: {h1}")
    return h1.order()
