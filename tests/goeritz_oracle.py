"""Checkerboard colorings and Goeritz forms of either color class: a test-only oracle.

The package builds one reduced Goeritz matrix, over the smaller class.
This oracle colors the faces into an explicit ``CheckerboardColoring``,
lets the caller pick the white class, and keeps the full pre-Goeritz form
and the per-crossing incidences.  The two classes present the same H1, so
the class the package does not use is an independent check of its
matrix; nothing here comes from ``symknot.goeritz``.
"""

from __future__ import annotations

from dataclasses import dataclass

from linear_oracle import delete_row_col

from symknot.algebra import IntegerMatrix
from symknot.diagram import DiagramStructureError, PlanarDiagram


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
    row sums to zero); ``goeritz`` deletes its first row and column.
    """

    g_prime: IntegerMatrix
    goeritz: IntegerMatrix
    incidences: tuple[int, ...]


def checkerboard(d: PlanarDiagram, white_class: int | None = None) -> CheckerboardColoring:
    """2-color the complementary regions of a connected diagram.

    The parity class of face 0 is 0.  ``white_class`` picks which parity
    class is white; the default is the smaller class (ties: the class not
    containing face 0), the one the package uses.
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
    colors = tuple(1 if p == white_class else 0 for p in parity)
    white = tuple(fi for fi, c in enumerate(colors) if c == 1)
    return CheckerboardColoring(colors, white)


def other_class(d: PlanarDiagram) -> CheckerboardColoring:
    """The coloring whose white class is the one the default leaves black."""
    # face 0 is in parity class 0, so it is white by default exactly when
    # class 0 is: the other class is then 1, and otherwise 0
    return checkerboard(d, white_class=checkerboard(d).colors[0])


def face_of_corner(d: PlanarDiagram) -> dict[tuple[int, int], int]:
    """Corner between slots k and k+1 of a crossing -> face index."""
    where = {}
    for fi, cyc in enumerate(d.faces()):
        for ci, slot in cyc:
            where[(ci, (slot - 1) % 4)] = fi
    return where


def goeritz_matrix(d: PlanarDiagram, col: CheckerboardColoring) -> GoeritzData:
    """Goeritz form over the white regions of ``col``.

    The incidence of a crossing is +1 exactly when its white corners are
    the pair swept by rotating the over-strand counterclockwise (corners
    1 and 3 in slot order), and -1 otherwise.
    """
    foc = face_of_corner(d)
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
        g[i][i] = -sum(g[i])
    return GoeritzData(IntegerMatrix(g), IntegerMatrix(delete_row_col(g, 0, 0)), tuple(etas))
