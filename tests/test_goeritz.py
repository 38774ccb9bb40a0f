import pytest

from symknot.algebra import AbelianGroup, IntegerMatrix, cokernel, smith_normal_form
from symknot import goeritz
from symknot.diagram import DiagramStructureError, InvariantError
from symknot.fixtures import (
    figure_eight,
    kn_template,
    knot_5_2,
    knot_10_22,
    pretzel,
    rational_knot,
    torus_2k,
    trefoil,
    two_unlink,
    unknot_kink,
    unknot_r2,
    unknot_zero,
)
from symknot.goeritz import (
    checkerboard,
    determinant_goeritz,
    goeritz_matrix,
    h1_branched_cover,
)
from symknot.polynomials import determinant_alexander

CORPUS = [
    unknot_zero,
    lambda: unknot_kink(1),
    lambda: unknot_kink(-1),
    unknot_r2,
    lambda: trefoil(True),
    lambda: trefoil(False),
    figure_eight,
    lambda: knot_5_2(True),
    knot_10_22,
    lambda: pretzel(3, 1, -3),
    lambda: torus_2k(5),
    lambda: rational_knot([1, 1, 2]),
    lambda: rational_knot([1, 1, 3]),
]


def test_coloring_is_proper():
    for build in CORPUS:
        d = build()
        col = checkerboard(d)
        if not d.crossings:
            assert col.colors == (0, 1) or col.colors == (1, 0)
            continue
        pos_face = {pos: fi for fi, cyc in enumerate(d.faces()) for pos in cyc}
        for ends in d.appearances().values():
            assert col.colors[pos_face[ends[0]]] != col.colors[pos_face[ends[1]]]
        assert set(col.colors) == {0, 1}
        assert col.white_regions == tuple(
            fi for fi, c in enumerate(col.colors) if c == 1
        )


def test_coloring_class_counts():
    assert checkerboard(unknot_zero()).n_white() == 1
    counts = {
        checkerboard(trefoil(), white_class=0).n_white(),
        checkerboard(trefoil(), white_class=1).n_white(),
    }
    assert counts == {2, 3}
    # the zero-twist union template colors with five regions on one side
    assert checkerboard(kn_template(0)).n_white() == 5


def test_coloring_rejects_disconnected():
    with pytest.raises(DiagramStructureError):
        checkerboard(two_unlink())


def test_goeritz_structure():
    for build in CORPUS:
        d = build()
        if not d.crossings:
            continue
        data = goeritz_matrix(d, checkerboard(d))
        gp = data.g_prime
        assert gp.is_symmetric()
        assert all(s == 0 for s in gp.row_sums())
        assert len(data.incidences) == len(d.crossings)
        assert set(data.incidences) <= {1, -1}
        if gp.rows > 1:
            assert data.goeritz == gp.delete_row_col(0, 0)


def test_kink_goeritz_degenerate():
    d = unknot_kink(1)
    small = goeritz_matrix(d, checkerboard(d, white_class=0))
    big = goeritz_matrix(d, checkerboard(d, white_class=1))
    sizes = {small.goeritz.rows, big.goeritz.rows}
    assert sizes == {0, 1}
    for data in (small, big):
        assert abs(data.goeritz.determinant()) == 1


def test_determinant_channels_agree():
    for build in CORPUS:
        d = build()
        assert determinant_goeritz(d) == determinant_alexander(d)


def test_determinant_frozen():
    assert determinant_goeritz(unknot_zero()) == 1
    assert determinant_goeritz(trefoil()) == 3
    assert determinant_goeritz(knot_5_2()) == 7
    assert determinant_goeritz(knot_10_22()) == 49
    assert determinant_goeritz(pretzel(3, 1, -3)) == 9
    for n in range(6):
        assert determinant_goeritz(kn_template(n)) == 49


def test_h1_matches_determinant_order():
    for build in CORPUS:
        d = build()
        h = h1_branched_cover(d)
        assert h.free_rank == 0
        assert h.order() == determinant_goeritz(d)


def test_h1_frozen():
    assert h1_branched_cover(unknot_zero()) == AbelianGroup()
    assert h1_branched_cover(trefoil()) == AbelianGroup((3,))
    assert h1_branched_cover(figure_eight()) == AbelianGroup((5,))
    assert h1_branched_cover(knot_5_2()) == AbelianGroup((7,))
    assert h1_branched_cover(knot_10_22()) == AbelianGroup((49,))
    assert h1_branched_cover(pretzel(3, 1, -3)) == AbelianGroup((9,))


def test_h1_family_sweep():
    for n in range(-14, 15):
        h = h1_branched_cover(kn_template(n))
        if n % 7 == 0:
            assert h == AbelianGroup((7, 7)), n
        else:
            assert h == AbelianGroup((49,)), n


def paper_presentation(n):
    return IntegerMatrix(
        [
            [4, 0, -1, 0],
            [0, -4, 0, 1],
            [-1, 0, 2 - n, n],
            [0, 1, n, -n - 2],
        ]
    )


def test_template_matrix_snf_class():
    # the template's reduced Goeritz form presents the same group as the
    # published 4x4 matrix, for every twist count
    for n in range(-8, 9):
        d = kn_template(n)
        data = goeritz_matrix(d, checkerboard(d))
        ours = [x for x in smith_normal_form(data.goeritz).diagonal if x != 1]
        published = [x for x in smith_normal_form(paper_presentation(n)).diagonal if x != 1]
        assert ours == published, n
        assert cokernel(data.goeritz) == cokernel(paper_presentation(n))


def test_rejects_links():
    with pytest.raises(ValueError):
        determinant_goeritz(torus_2k(2))
    with pytest.raises(ValueError):
        h1_branched_cover(two_unlink())


def _mismatch_colour_classes(monkeypatch):
    """Pair each diagram's first colour class with the figure eight's second."""
    both = goeritz._both_classes
    monkeypatch.setattr(goeritz, "_both_classes", lambda d: (both(d)[0], both(figure_eight())[1]))


def test_colour_classes_disagreeing_on_the_determinant_raise(monkeypatch):
    # the determinant is read off H1, so the H1 check is the one that fires
    _mismatch_colour_classes(monkeypatch)
    with pytest.raises(InvariantError, match="color classes disagree on H1: Z/3 vs Z/5"):
        determinant_goeritz(trefoil())


def test_infinite_h1_on_a_knot_raises(monkeypatch):
    # a knot's cover is a rational homology sphere: a free summand is a fault,
    # reported as one rather than as AbelianGroup.order's ValueError
    monkeypatch.setattr(goeritz, "h1_branched_cover", lambda d: AbelianGroup((3,), 1))
    with pytest.raises(InvariantError, match="infinite"):
        determinant_goeritz(trefoil())


def test_colour_classes_disagreeing_on_h1_raise(monkeypatch):
    _mismatch_colour_classes(monkeypatch)
    with pytest.raises(InvariantError, match="H1"):
        h1_branched_cover(trefoil())


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
