"""End-to-end acceptance checks with their runtime budgets.

Each test freezes one externally stated expectation: exact homology
tables, the closed-formula family sweep, branched-cover homology,
determinants through independent channels, the obstruction verdicts,
and the cross-cutting property suites.  Timing bounds are asserted
where the expectation includes one.
"""

import random
import time
from functools import lru_cache

from symknot.algebra import IntegerMatrix, LaurentPolynomial, smith_normal_form
from symknot.diagram import mirror
from symknot.fixtures import (
    figure_eight,
    kn_template,
    knot_5_2,
    knot_10_22,
    pretzel,
    torus_2k,
    trefoil,
    two_unlink,
    unknot_kink,
    unknot_r2,
    unknot_zero,
)
from symknot.goeritz import determinant_goeritz, h1_branched_cover
from symknot.khovanov import (
    F2,
    RATIONAL,
    closed_formula_kn,
    is_thin,
    kh_homology,
    reduced_f2_dims,
    skein_consistency,
)
from symknot.obstruction import (
    COMPUTE,
    COMPUTED_THIN,
    FORMULA,
    FORMULA_THIN,
    INCONCLUSIVE,
    SATISFIES_CCC,
    ccc_verdict,
)
from symknot.polynomials import alexander, determinant_alexander, jones

MODULE_T0 = time.perf_counter()

KH_52_TABLE = {
    (1, 0): 1,
    (3, 0): 1,
    (3, 1): 1,
    (5, 2): 1,
    (7, 2): 1,
    (9, 3): 1,
    (9, 4): 1,
    (13, 5): 1,
}


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


@lru_cache(maxsize=None)
def _kn_q(n):
    return _timed(lambda: kh_homology(kn_template(n), RATIONAL))


@lru_cache(maxsize=None)
def _kn_f2(n):
    return _timed(lambda: kh_homology(kn_template(n), F2))


def test_criterion_1_kh_52_exact():
    result, seconds = _timed(lambda: kh_homology(knot_5_2(), RATIONAL))
    assert result.dims.dims == KH_52_TABLE
    assert seconds < 5.0


def test_criterion_2_kh_family_rational():
    # -28..28 is the range of the closed-formula verdicts
    for n in range(-28, 29):
        result, seconds = _kn_q(n)
        assert result.dims == closed_formula_kn(n), n
        report = is_thin(result)
        assert report.thin and report.diagonals[1] - report.diagonals[0] == 2, n
        assert result.total_rank() == 50, n
        assert seconds < 120.0, (n, seconds)


def test_criterion_3_kh_family_f2():
    for n in range(-28, 29):
        result, seconds = _kn_f2(n)
        assert is_thin(result).thin, n
        red = reduced_f2_dims(result)
        det = determinant_goeritz(kn_template(n))
        assert red.total_rank() == det == 49, n
        assert seconds < 120.0, (n, seconds)


def test_criterion_4_h1_sweep():
    t0 = time.perf_counter()
    for n in range(-14, 15):
        factors = h1_branched_cover(kn_template(n)).invariant_factors
        assert factors == ((7, 7) if n % 7 == 0 else (49,)), n
    assert time.perf_counter() - t0 < 1.0


def test_criterion_5_determinant_both_channels():
    for n in range(-5, 8):
        d = kn_template(n)
        assert determinant_goeritz(d) == 49, n
        assert determinant_alexander(d) == 49, n


def test_criterion_6_alexander_even_square():
    frozen = LaurentPolynomial({2: 4, 1: -12, 0: 17, -1: -12, -2: 4})
    assert alexander(knot_5_2()) ** 2 == frozen
    for n in (0, 2, 4):
        assert alexander(kn_template(n)) == frozen, n


def test_criterion_7_k1_is_10_22():
    k1 = kn_template(1)
    ten = knot_10_22()
    assert jones(k1) == jones(ten)
    kh_ten = kh_homology(ten, RATIONAL)
    assert _kn_q(1)[0].dims == kh_ten.dims == closed_formula_kn(1)


def test_criterion_8_ccc_verdicts():
    for n in (7, -7, 14, -14, 21, -21, 28, -28):
        v = ccc_verdict(kn_template(n), FORMULA)
        assert v.verdict == SATISFIES_CCC, n
        assert v.l_space_certificate == FORMULA_THIN, n
    # the computed certificate agrees with the cited one wherever it is cited
    for n in (7, -7, 14, -14, 21, -21, 28, -28, 1, 2, 3, 4, 5, 6):
        v = ccc_verdict(kn_template(n), COMPUTE, kh_f2=_kn_f2(n)[0])
        assert v.verdict == (SATISFIES_CCC if n % 7 == 0 else INCONCLUSIVE), n
        assert v.l_space_certificate == COMPUTED_THIN, n


def test_criterion_9_skein_triple():
    k2 = kn_template(2)
    report = skein_consistency(k2, k2.site.interior[0], RATIONAL)
    assert report.epsilon == 0
    assert report.rank_inequality_ok
    assert report.euler_additive
    assert report.oriented.dims.dims == {(-2, 0): 1, (0, 0): 2, (2, 0): 1}
    assert report.unoriented.dims == closed_formula_kn(1)


def _snf_valid(m):
    snf = smith_normal_form(m)
    d = snf.diagonal
    assert all(x >= 0 for x in d)
    for a, b in zip(d, d[1:]):
        assert b == 0 if a == 0 else b % a == 0
    assert snf.u.determinant() in (1, -1)
    assert snf.v.determinant() in (1, -1)
    prod = snf.u * m * snf.v
    for i in range(prod.rows):
        for j in range(prod.cols):
            assert prod[i, j] == (d[i] if i == j and i < len(d) else 0)


def test_criterion_10_snf_random():
    rng = random.Random(20260815)
    for _ in range(200):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        _snf_valid(
            IntegerMatrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        )


def _corpus():
    return [
        unknot_zero(),
        unknot_kink(1),
        unknot_kink(-1),
        unknot_r2(),
        two_unlink(),
        trefoil(True),
        trefoil(False),
        figure_eight(),
        knot_5_2(True),
        knot_5_2(False),
        knot_10_22(),
        pretzel(3, 1, -3),
        torus_2k(2),
        torus_2k(5),
        kn_template(0),
        kn_template(1),
        kn_template(-1),
    ]


def test_criterion_10_euler_equals_jones_everywhere():
    for d in _corpus():
        assert kh_homology(d, RATIONAL).dims.euler_poly() == jones(d), d.name


def test_criterion_10_mirror_reflection_everywhere():
    for d in _corpus():
        got = kh_homology(mirror(d), RATIONAL).dims
        assert got == kh_homology(d, RATIONAL).dims.reflect(), d.name


def test_criterion_10_determinants_agree_corpuswide():
    for d in _corpus():
        if d.n_components() != 1:
            continue
        dg = determinant_goeritz(d)
        da = determinant_alexander(d)
        h1 = h1_branched_cover(d)
        assert dg == da, d.name
        assert h1.free_rank == 0 and h1.order() == dg, d.name


def test_suite_stays_inside_ten_minutes():
    assert time.perf_counter() - MODULE_T0 < 600.0


if __name__ == "__main__":
    t0 = time.perf_counter()
    test_criterion_1_kh_52_exact()
    test_criterion_4_h1_sweep()
    print(f"spot checks ok in {time.perf_counter()-t0:.2f}s")
