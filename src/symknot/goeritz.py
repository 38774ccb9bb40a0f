"""The Goeritz form and the branched double cover.

The complementary regions of a connected diagram admit exactly one
2-coloring up to swapping the classes.  The Goeritz matrix over either
class presents H1 of the double cover of S^3 branched over the knot, so
one matrix is built, over the smaller class.  The knot determinant
|det G| is the order of that group (W. B. R. Lickorish, *An Introduction
to Knot Theory*, GTM 175, ch. 9), so it is read off H1 rather than
computed again; the Alexander channel is its cross-check.  The matrix is
written as sparse {column: entry} rows, the one form ``algebra.cokernel``
takes, as the Alexander minor is.
"""

from __future__ import annotations

from .algebra import AbelianGroup, cokernel
from .diagram import DiagramStructureError, InvariantError, PlanarDiagram, _edge_ends, memoized

__all__ = ["goeritz_matrix", "determinant_goeritz", "h1_branched_cover"]


def goeritz_matrix(d: PlanarDiagram) -> tuple[list[dict[int, int]], int]:
    """Reduced Goeritz matrix over the white regions of a connected diagram.

    The faces are 2-colored by parity across edges.  White is the smaller
    class (ties: the class not containing face 0), which keeps the matrix
    small.  The incidence of a crossing is +1 exactly when its white
    corners are the pair swept by rotating the over-strand counterclockwise
    (corners 1 and 3 in slot order); the convention is pinned, up to the
    global sign that |det| ignores, by the determinant cross-check against
    the Alexander channel.  Each diagonal entry is minus the rest of its
    row, and the first white region's row and column are deleted.  It
    comes as ``cokernel`` takes it: {column: nonzero} rows, white region i
    in row and column i - 1, and the column count.
    """
    faces = d.faces()  # raises DiagramStructureError on a disconnected diagram
    if not d.crossings:
        return [], 0  # one white face, whose row is deleted
    # face[p]: the face walked through edge-end p, which holds the corner
    # between slots p - 1 and p of its crossing
    face = [0] * (4 * len(d.crossings))
    for fi, cycle in enumerate(faces):
        for ci, slot in cycle:
            face[4 * ci + slot] = fi
    adjacency: list[list[int]] = [[] for _ in faces]
    for p, q in enumerate(_edge_ends(d.crossings)):
        adjacency[face[p]].append(face[q])
    color = [-1] * len(faces)
    color[0] = 0
    queue = [0]
    while queue:
        f = queue.pop()
        for other in adjacency[f]:
            if color[other] == -1:
                color[other] = 1 - color[f]
                queue.append(other)
            elif color[other] == color[f]:
                raise DiagramStructureError("regions are not 2-colorable")
    white = 0 if 2 * color.count(0) < len(faces) else 1
    whites = [f for f, c in enumerate(color) if c == white]
    region = {f: i for i, f in enumerate(whites)}
    g: list[dict[int, int]] = [{} for _ in whites]
    for p in range(0, len(face), 4):
        if color[face[p + 2]] == white:
            eta, i, j = 1, region[face[p + 2]], region[face[p]]
        else:
            eta, i, j = -1, region[face[p + 1]], region[face[p + 3]]
        if i != j:
            g[i][j] = g[i].get(j, 0) - eta
            g[j][i] = g[j].get(i, 0) - eta
    rows = []
    for i, row in enumerate(g[1:], 1):
        row[i] = -sum(row.values())  # no diagonal entry is in the row yet
        rows.append({j - 1: x for j, x in row.items() if x and j})
    return rows, len(whites) - 1


@memoized
def h1_branched_cover(d: PlanarDiagram) -> AbelianGroup:
    """H1 of the double cover branched over the knot: the Goeritz matrix's cokernel."""
    if d.n_components() != 1:
        raise ValueError("branched double cover homology needs a one-component diagram")
    return cokernel(*goeritz_matrix(d))


@memoized
def determinant_goeritz(d: PlanarDiagram) -> int:
    """|det G|, read off H1 as its order."""
    h1 = h1_branched_cover(d)
    if h1.free_rank:
        # a knot's double branched cover is a rational homology sphere
        raise InvariantError(f"H1 of {d.name or 'the knot'} is infinite: {h1}")
    return h1.order()
