import random

import pytest
from goeritz_oracle import checkerboard, goeritz_matrix as oracle_goeritz, other_class
from linear_oracle import delete_row_col, sparse_matrix
from test_fixtures import _random_pd_codes, _rational_corpus
from test_khovanov import random_braid_corpus
from test_properties import _relabelled

from symknot.algebra import AbelianGroup, IntegerMatrix, cokernel, smith_normal_form
from symknot import goeritz
from symknot.diagram import DiagramStructureError, InvariantError, PdError, PlanarDiagram
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
from symknot.goeritz import determinant_goeritz, goeritz_matrix, h1_branched_cover
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
    with pytest.raises(DiagramStructureError):
        goeritz_matrix(two_unlink())


def test_goeritz_structure():
    for build in CORPUS:
        d = build()
        if not d.crossings:
            continue
        data = oracle_goeritz(d, checkerboard(d))
        gp = data.g_prime
        rows = gp.to_lists()
        assert rows == [list(col) for col in zip(*rows)]
        assert all(sum(row) == 0 for row in rows)
        assert len(data.incidences) == len(d.crossings)
        assert set(data.incidences) <= {1, -1}
        if gp.rows > 1:
            assert data.goeritz.to_lists() == delete_row_col(rows, 0, 0)


def test_kink_goeritz_degenerate():
    d = unknot_kink(1)
    small = oracle_goeritz(d, checkerboard(d, white_class=0))
    big = oracle_goeritz(d, checkerboard(d, white_class=1))
    sizes = {small.goeritz.rows, big.goeritz.rows}
    assert sizes == {0, 1}
    for data in (small, big):
        assert abs(data.goeritz.determinant()) == 1


def _oracle_corpus():
    """Connected knot diagrams and a seeded relabelled copy of each.

    The zoo, K_n for |n| <= 30, and the knots of the braid, rational and
    pretzel corpora.
    """
    diagrams = [build() for build in CORPUS] + [kn_template(n) for n in range(-30, 31)]
    diagrams += random_braid_corpus() + _rational_corpus()
    diagrams += [pretzel(p, q, r) for p in (-3, -1, 1, 3) for q in (-2, 1, 2) for r in (-3, 1, 3)]
    knots = [d for d in diagrams if d.n_components() == 1 and d.is_connected()]
    rng = random.Random(4947)
    return knots + [_relabelled(d, rng) for d in knots]


def test_goeritz_matrix_matches_oracle():
    # the package's sparse rows are the oracle's default class entry for
    # entry, and the class it leaves out presents the same H1
    corpus = _oracle_corpus()
    assert len(corpus) > 400
    for d in corpus:
        assert goeritz_matrix(d) == sparse_matrix(oracle_goeritz(d, checkerboard(d)).goeritz), d.serialize()
        other = oracle_goeritz(d, other_class(d)).goeritz
        assert cokernel(*sparse_matrix(other)) == h1_branched_cover(d), d.serialize()
    # the planar ones among seeded random codes: links, kinks, and
    # components that pass under nothing
    planar = 0
    for code in _random_pd_codes():
        d = PlanarDiagram(code)
        try:
            d.faces()
        except PdError:
            continue
        planar += 1
        assert goeritz_matrix(d) == sparse_matrix(oracle_goeritz(d, checkerboard(d)).goeritz), code
    assert planar > 1000, planar


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
        rows, cols = goeritz_matrix(kn_template(n))
        g = IntegerMatrix([[row.get(j, 0) for j in range(cols)] for row in rows])
        ours = [x for x in smith_normal_form(g) if x != 1]
        published = [x for x in smith_normal_form(paper_presentation(n)) if x != 1]
        assert ours == published, n
        assert cokernel(rows, cols) == cokernel(*sparse_matrix(paper_presentation(n)))


def test_rejects_links():
    with pytest.raises(ValueError):
        determinant_goeritz(torus_2k(2))
    with pytest.raises(ValueError):
        h1_branched_cover(two_unlink())


def test_infinite_h1_on_a_knot_raises(monkeypatch):
    # a knot's cover is a rational homology sphere: a free summand is a fault,
    # reported as one rather than as AbelianGroup.order's ValueError
    monkeypatch.setattr(goeritz, "h1_branched_cover", lambda d: AbelianGroup((3,), 1))
    with pytest.raises(InvariantError, match="infinite"):
        determinant_goeritz(trefoil())


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
