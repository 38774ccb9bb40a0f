"""End-to-end acceptance checks with their runtime budgets.

Each test freezes one externally stated expectation: exact homology
tables, the closed-formula family sweep, branched-cover homology,
determinants through independent channels, the obstruction verdicts,
and the cross-cutting property suites.  Timing bounds are asserted
where the expectation includes one.
"""

import random
import re
import time
from functools import lru_cache
from pathlib import Path

from alexander_oracle import alexander_laurent
from goeritz_oracle import goeritz_matrix as oracle_goeritz, other_class
from linear_oracle import snf_check, sparse_matrix

from symknot.algebra import IntegerMatrix, LaurentPolynomial, eliminate_pivots
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
from symknot.goeritz import determinant_goeritz, goeritz_matrix, h1_branched_cover
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
from symknot.polynomials import _alexander_minor, alexander, determinant_alexander, jones

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
def _kn(n):
    """One K_n object per n, so its memoised stages are shared between tests."""
    return kn_template(n)


def _kn_q(n):
    return _timed(lambda: kh_homology(_kn(n), RATIONAL))


def _kn_f2(n):
    return _timed(lambda: kh_homology(_kn(n), F2))


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
        assert result.dims.total_rank() == 50, n
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


def test_classical_invariants_of_large_members():
    # the members sparse unit-pivot elimination makes cheap (each stage takes
    # under 0.1 s at |n| = 1001), both parities and both H1 shapes
    even = LaurentPolynomial({2: 4, 1: -12, 0: 17, -1: -12, -2: 4})
    odd = LaurentPolynomial({2: 2, 1: -12, 0: 21, -1: -12, -2: 2})
    members = (50, -50, 98, -98, 99, -99, 100, -100, 196, -196, 200, -200, 203, -203)
    for n in members + (1000, -1000, 1001, -1001):
        d = kn_template(n)
        assert h1_branched_cover(d).invariant_factors == ((7, 7) if n % 7 == 0 else (49,)), n
        assert determinant_goeritz(d) == determinant_alexander(d) == 49, n
        assert alexander(d) == (odd if n % 2 else even), n
        # a fibered knot's Alexander polynomial is monic; this one leads with 4 or 2
        assert alexander(d)[2] == (2 if n % 2 else 4) and alexander(d).max_exp() == 2, n
        if abs(n) == 50:
            assert alexander(d) == alexander_laurent(d), n


def test_jones_twist_recurrence():
    # the Jones skein relation at one ladder crossing, whose oriented
    # smoothing is the fusion link with the 2-component unlink's V:
    # V(K_n) - q^4 V(K_{n-2}) = (q + q^-1)(1 - q^4), on small and large n
    unknot = LaurentPolynomial({1: 1, -1: 1})
    rhs = unknot * LaurentPolynomial({0: 1, 4: -1})
    for n in [*range(-6, 10), -100, -99, 100, 101, 2000, -1998]:
        lhs = jones(kn_template(n)) - LaurentPolynomial({4: 1}) * jones(kn_template(n - 2))
        assert lhs == rhs, n


def test_jones_twist_recurrence_solved():
    # the recurrence above solved from K_0 and K_1, the form closed_formula_kn
    # reads its knight's-move pairs off: for n = 2k + r with r in {0, 1},
    # V(K_n) = (q + q^-1) + q^(4k) (V(K_r) - (q + q^-1))
    unknot = LaurentPolynomial({1: 1, -1: 1})
    base = [jones(kn_template(r)) - unknot for r in (0, 1)]
    for n in [*range(-60, 61), 1000, -1000, 1001, -1001]:
        k, r = divmod(n, 2)
        assert jones(kn_template(n)) == unknot + base[r].shift(4 * k), n


def test_unit_pivots_leave_small_cores_on_the_family():
    # every Alexander row holds two units and a twist region's Goeritz rows
    # +-1 entries, so at most 4 rows are left for Bareiss or Smith form,
    # however long the twist region
    for n in (-200, -7, 0, 1, 28, 200):
        d = kn_template(n)
        b = (2 * 4 ** (len(d.crossings) - 1)).bit_length()
        minors = [(_alexander_minor(d, 1 << b), b), (_alexander_minor(d, -1), 0)]
        other = oracle_goeritz(d, other_class(d)).goeritz
        minors += [(goeritz_matrix(d), 0), (sparse_matrix(other), 0)]
        for (rows, cols), unit_bits in minors:
            assert eliminate_pivots(rows, cols, unit_bits).rows <= 4, (n, cols)


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
        v = ccc_verdict(_kn(n), COMPUTE)
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


def test_criterion_10_snf_random():
    rng = random.Random(20260815)
    for _ in range(200):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        snf_check(IntegerMatrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]))


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


def test_readme_library_tour_prints_what_it_claims(capsys):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    # each print in the tour claims its output in the comment after it
    claimed = [
        line.split("#", 1)[1].split(":")[0].strip()
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    assert claimed and capsys.readouterr().out.splitlines() == claimed


def test_suite_stays_inside_ten_minutes():
    assert time.perf_counter() - MODULE_T0 < 600.0


if __name__ == "__main__":
    t0 = time.perf_counter()
    test_criterion_1_kh_52_exact()
    test_criterion_4_h1_sweep()
    print(f"spot checks ok in {time.perf_counter()-t0:.2f}s")
