import random

import pytest
from alexander_oracle import alexander_laurent, fox_minor, wirtinger
from bracket_oracle import bracket_state_sum
from linear_oracle import sparse_rows
from test_khovanov import EULER_CORPUS, random_braid_corpus

from symknot import polynomials
from symknot.algebra import AbelianGroup, LaurentPolynomial, cokernel
from symknot.diagram import (
    BudgetError,
    InvariantError,
    PlanarDiagram,
    _scan_order,
    connected_sum,
    mirror,
)
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
from symknot.goeritz import determinant_goeritz, h1_branched_cover
from symknot.polynomials import (
    alexander,
    determinant_alexander,
    jones,
    jones_normalized,
    kauffman_bracket,
)

L = LaurentPolynomial

UNKNOT_JONES = L({1: 1, -1: 1})


def test_bracket_base_cases():
    assert kauffman_bracket(unknot_zero()) == L({0: 1})
    assert kauffman_bracket(two_unlink()) == L({2: -1, -2: -1})
    # a positive kink multiplies the bracket by -A^3
    assert kauffman_bracket(unknot_kink(1)) == L({3: -1})
    assert kauffman_bracket(unknot_kink(-1)) == L({-3: -1})
    with pytest.raises(ValueError):
        kauffman_bracket(PlanarDiagram([], loops=0))


def test_bracket_budget(monkeypatch):
    # the budget bounds the widest boundary of the scan, not the crossings
    d = figure_eight()
    width = d.scan_width()
    monkeypatch.setattr(polynomials, "BRACKET_BUDGET", width - 1)
    with pytest.raises(BudgetError, match=f"{width} points") as exc:
        kauffman_bracket(d)
    assert exc.value.needed == width and exc.value.budget == width - 1
    monkeypatch.undo()
    # T(2,25): 25 crossings on a boundary of 4 points, against the skein
    # recursion J(T(2,k)) = q^4 J(T(2,k-2)) + (q - q^3) J(T(2,k-1)) from
    # the unlink and the unknot
    d = torus_2k(25)
    assert d.scan_width() == 4
    prev, cur = UNKNOT_JONES * UNKNOT_JONES, UNKNOT_JONES
    for _ in range(2, 26):
        prev, cur = cur, L({4: 1}) * prev + L({1: 1, 3: -1}) * cur
    assert jones(d) == cur


def _rational_knots(seed=2015, count=8, most=14):
    """Seeded two-bridge knots of 8 to ``most`` crossings, twists of either sign."""
    rng = random.Random(seed)
    knots = []
    while len(knots) < count:
        left, seq = rng.randint(8, most), []
        while left:
            seq.append(rng.choice((1, -1)) * rng.randint(1, min(4, left)))
            left -= abs(seq[-1])
        d = rational_knot(seq)
        if len(seq) % 2 and d.n_components() == 1:
            knots.append(d)
    return knots


def test_bracket_scan_equals_state_sum():
    zoo = EULER_CORPUS + [
        knot_10_22(), pretzel(-2, 3, 3), kn_template(0), kn_template(1), kn_template(-2)
    ]
    for d in zoo:
        assert kauffman_bracket(d) == bracket_state_sum(d), d.name
    for i, d in enumerate(random_braid_corpus()):
        assert kauffman_bracket(d) == bracket_state_sum(d), (i, d.serialize())
    for d in _rational_knots():
        assert kauffman_bracket(d) == bracket_state_sum(d), d.serialize()


def test_open_bracket_boundary_raises():
    # an edge label seen once is a corrupted PD code: the boundary never closes
    crossings = [(1, 2, 3, 4), (4, 3, 5, 1)]
    with pytest.raises(InvariantError, match=r"boundary \[2, 5\]"):
        polynomials._bracket_scan(crossings, _scan_order(crossings))


def test_alexander_determinant_of_odd_breadth_raises():
    # a knot's Delta has even breadth, so an odd one is a broken minor
    with pytest.raises(InvariantError, match="odd breadth"):
        polynomials._normalize_alexander(L({0: 1, 1: 1}))


def test_jones_unknots():
    # Reidemeister-representative unknot diagrams all give q + q^-1
    for d in (unknot_zero(), unknot_kink(1), unknot_kink(-1), unknot_r2()):
        assert jones(d) == UNKNOT_JONES
        assert jones_normalized(d) == L({0: 1})
    assert jones(two_unlink()) == UNKNOT_JONES * UNKNOT_JONES
    # positive Hopf link, frozen from its standard homology table
    assert jones(torus_2k(2)) == L({0: 1, 2: 1, 4: 1, 6: 1})


def test_jones_frozen_small_knots():
    assert jones(trefoil(True)) == L({1: 1, 3: 1, 5: 1, 9: -1})
    assert jones(figure_eight()) == L({5: 1, -5: 1})
    assert jones(knot_5_2(True)) == L({1: 1, 5: 1, 7: 1, 13: -1})
    assert jones_normalized(knot_5_2(True)) == L(
        {2: 1, 4: -1, 6: 2, 8: -1, 10: 1, 12: -1}
    )


def test_jones_10_22():
    expected = L(
        {
            -9: 1,
            -7: -1,
            -5: 2,
            -3: -2,
            -1: 2,
            3: -1,
            5: 1,
            7: -2,
            9: 2,
            11: -1,
            13: 1,
        }
    )
    assert jones(knot_10_22()) == expected
    # the single-twist union member realizes the same knot
    assert jones(kn_template(1)) == expected


def test_odd_bracket_exponent_raises(monkeypatch):
    bracket = polynomials.kauffman_bracket
    monkeypatch.setattr(polynomials, "kauffman_bracket", lambda d: bracket(d).shift(1))
    with pytest.raises(InvariantError, match="bracket exponent .* is odd"):
        jones(trefoil())


def test_jones_mirror():
    for d in (trefoil(True), knot_5_2(True), knot_10_22(), pretzel(3, 1, -3)):
        assert jones(mirror(d)) == jones(d).mirror()


def test_jones_connected_sum():
    a, b = trefoil(True), figure_eight()
    cs = connected_sum(a, b, 1, 1)
    assert jones(cs) * UNKNOT_JONES == jones(a) * jones(b)
    assert jones_normalized(cs) == jones_normalized(a) * jones_normalized(b)


def test_jones_distinguishes_family():
    polys = [jones(kn_template(n)) for n in range(-3, 4)]
    assert len(set(polys)) == len(polys)
    for n in (1, 2, 3):
        assert jones(kn_template(-n)) == jones(kn_template(n)).mirror()
    # the zero-twist member is the square of 5_2 under connected sum
    prod = jones(knot_5_2(True)) * jones(mirror(knot_5_2(True)))
    assert jones(kn_template(0)) * UNKNOT_JONES == prod


def test_jones_same_knot_different_builders():
    # the two-bridge builder reproduces figure-eight (fraction 5/2) exactly
    # and 5_2 (fraction 7/2) up to chirality
    assert jones(rational_knot([1, 1, 2])) == jones(figure_eight())
    j = jones(rational_knot([1, 1, 3]))
    assert j in (jones(knot_5_2(True)), jones(knot_5_2(False)))


def test_wirtinger_shapes():
    for build, arcs in ((trefoil, 3), (figure_eight, 4), (knot_5_2, 5), (knot_10_22, 11)):
        pres = wirtinger(build())
        assert len(pres.generators) == arcs
        assert len(pres.relators) == arcs
        assert all(len(word) == 4 for word in pres.relators)
        # knot group abelianizes to Z
        assert cokernel(*pres.abelianized_matrix()) == AbelianGroup((), 1)
    pres = wirtinger(unknot_kink(1))
    assert len(pres.generators) == 1 and len(pres.relators) == 1
    pres = wirtinger(unknot_zero())
    assert pres.generators == ("x1",) and pres.relators == ()
    # a link group abelianizes to Z^components, loops beside crossings included
    zoo = EULER_CORPUS + [
        knot_10_22(), pretzel(-2, 3, 3), kn_template(0), kn_template(1), kn_template(-2)
    ]
    for d in zoo + random_braid_corpus():
        group = cokernel(*wirtinger(d).abelianized_matrix())
        assert group == AbelianGroup((), d.n_components()), d.serialize()


def test_alexander_frozen_values():
    assert alexander(unknot_zero()) == L({0: 1})
    assert alexander(unknot_kink(1)) == L({0: 1})
    assert alexander(unknot_r2()) == L({0: 1})
    assert alexander(trefoil(True)) == L({1: 1, 0: -1, -1: 1})
    assert alexander(figure_eight()) == L({1: -1, 0: 3, -1: -1})
    assert alexander(knot_5_2(True)) == L({1: 2, 0: -3, -1: 2})
    assert alexander(torus_2k(5)) == L({2: 1, 1: -1, 0: 1, -1: -1, -2: 1})
    assert alexander(knot_10_22()) == L({2: 2, 1: -12, 0: 21, -1: -12, -2: 2})


def test_alexander_symmetry_and_one():
    for build in (trefoil, figure_eight, knot_5_2, knot_10_22):
        p = alexander(build())
        assert p == p.mirror()
        assert p.evaluate(1) == 1


def test_alexander_mirror_invariance():
    for d in (trefoil(True), knot_5_2(True), knot_10_22()):
        assert alexander(mirror(d)) == alexander(d)


def test_alexander_multiplicative():
    cs = connected_sum(trefoil(True), knot_5_2(False), 2, 3)
    assert alexander(cs) == alexander(trefoil(True)) * alexander(knot_5_2(False))


def test_alexander_squares_on_even_family():
    square = alexander(knot_5_2(True)) ** 2
    assert square == L({2: 4, 1: -12, 0: 17, -1: -12, -2: 4})
    for n in (0, 2, 4):
        assert alexander(kn_template(n)) == square
    # odd members differ from the square
    assert alexander(kn_template(1)) == alexander(knot_10_22())
    assert alexander(kn_template(1)) != square


def test_alexander_equals_laurent_oracle():
    zoo = EULER_CORPUS + [
        knot_10_22(), pretzel(-2, 3, 3), kn_template(0), kn_template(1), kn_template(-2)
    ]
    knots = [d for d in zoo + random_braid_corpus() if d.n_components() == 1]
    knots += _rational_knots(seed=5, count=10, most=40)
    assert max(d.n_crossings for d in knots) > 30
    for d in knots:
        p = alexander(d)
        assert p == alexander_laurent(d), d.serialize()
        assert p == p.mirror() and p.evaluate(1) == 1, d.serialize()
        dets = (abs(p.evaluate(-1)), determinant_alexander(d), determinant_goeritz(d))
        assert dets == (h1_branched_cover(d).order(),) * 3, d.serialize()


def test_alexander_minor_equals_fox_minor_of_wirtinger():
    # the rows read off the crossings are the word-level Fox derivatives of
    # the Wirtinger relators, on the same arcs: the same minor, not only one
    # with the same determinant, as the elimination's cost depends on which
    zoo = EULER_CORPUS + [knot_10_22(), pretzel(-2, 3, 3)]
    zoo += [kn_template(n) for n in range(-12, 13)]
    knots = [d for d in zoo + random_braid_corpus() if d.n_components() == 1 and d.crossings]
    knots += _rational_knots(seed=1928, count=40, most=40)
    for d in knots:
        b = (2 * 4 ** (len(d.crossings) - 1)).bit_length()
        for t in (-1, 2, 1 << b):
            fox = fox_minor(wirtinger(d), t)
            want = (sparse_rows(fox.to_lists()), fox.cols)
            assert polynomials._alexander_minor(d, t) == want, d.serialize()


def test_alexander_minor_rows_stay_sparse():
    # one row per crossing after the first, holding at most its three arcs,
    # so the minor of K_1000 is a few thousand entries, not a million
    d = kn_template(1000)
    b = (2 * 4 ** (len(d.crossings) - 1)).bit_length()
    for t in (-1, 2, 1 << b):
        rows, cols = polynomials._alexander_minor(d, t)
        assert len(rows) == cols == len(d.crossings) - 1
        assert all(len(row) <= 3 and all(row.values()) for row in rows), t
        assert all(0 <= j < cols for row in rows for j in row), t


def test_alexander_of_twist_knots():
    # the twist knot [1, 1, m] has Delta = k t - (2k - 1) + k t^-1 for m = 2k - 1
    # and -k t + (2k + 1) - k t^-1 for m = 2k, on a minor of m + 1 rows
    for k in (1, 2, 3, 5, 10, 25, 50):
        assert alexander(rational_knot([1, 1, 2 * k - 1])) == L({1: k, 0: 1 - 2 * k, -1: k})
        assert alexander(rational_knot([1, 1, 2 * k])) == L({1: -k, 0: 2 * k + 1, -1: -k})


def _corrupt_first_row(monkeypatch, corrupt):
    """Make ``_alexander_minor`` return ``corrupt(first row, t)`` in place of its first row."""
    monkeypatch.undo()
    minor = polynomials._alexander_minor

    def corrupted(d, t):
        (first, *rest), cols = minor(d, t)
        return [corrupt(first, t), *rest], cols

    monkeypatch.setattr(polynomials, "_alexander_minor", corrupted)


def test_vanishing_fox_minor_raises(monkeypatch):
    # a knot's first Fox minor is +-t^k Delta(t), never 0: only a corrupted
    # Fox matrix, here with a zero row, can make it vanish
    _corrupt_first_row(monkeypatch, lambda row, t: {})
    with pytest.raises(InvariantError, match="Fox minor of 5_2"):
        alexander(knot_5_2())
    with pytest.raises(InvariantError, match="Fox minor of 5_2"):
        determinant_alexander(knot_5_2())


def test_corrupted_fox_minor_raises(monkeypatch):
    # a minor that is not +-t^k Delta(t) of a knot decodes to a polynomial the
    # normalization refuses, never to a wrong Alexander polynomial; each
    # corruption gets a fresh diagram, as a diagram keeps its results
    d = knot_10_22()
    _corrupt_first_row(monkeypatch, lambda row, t: {j: 3 * x for j, x in row.items()})
    with pytest.raises(InvariantError, match=r"\|D\(1\)\| = 3"):
        alexander(d)
    with pytest.raises(InvariantError, match=r"\|D\(1\)\| = 3"):
        determinant_alexander(d)
    d = knot_10_22()
    _corrupt_first_row(monkeypatch, lambda row, t: {**row, 0: 2})
    with pytest.raises(InvariantError, match="Alexander determinant"):
        alexander(d)
    # a row shifted by a power of t is the same minor up to +-t^k
    d = knot_10_22()
    _corrupt_first_row(monkeypatch, lambda row, t: {j: x * t**5 for j, x in row.items()})
    assert alexander(d) == L({2: 2, 1: -12, 0: 21, -1: -12, -2: 2})
    assert determinant_alexander(d) == 49


def test_alexander_rejects_links():
    with pytest.raises(ValueError):
        alexander(two_unlink())
    with pytest.raises(ValueError):
        determinant_alexander(torus_2k(2))


def test_determinants():
    cases = [
        (unknot_zero(), 1),
        (unknot_kink(1), 1),
        (trefoil(True), 3),
        (figure_eight(), 5),
        (knot_5_2(True), 7),
        (torus_2k(5), 5),
        (knot_10_22(), 49),
        (pretzel(3, 1, -3), 9),
        (rational_knot([1, 1, 2]), 5),
        (rational_knot([1, 1, 3]), 7),
        (rational_knot([1, 1, 4]), 9),
    ]
    for d, expected in cases:
        assert determinant_alexander(d) == expected
        assert abs(alexander(d).evaluate(-1)) == expected


def test_determinant_family_sweep():
    for n in range(-5, 8):
        assert determinant_alexander(kn_template(n)) == 49


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
