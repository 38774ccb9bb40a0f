import math
import random
from fractions import Fraction

import pytest
from linear_oracle import bareiss_det, cofactor_det

from symknot.algebra import (
    AbelianGroup,
    BigradedDims,
    IntegerMatrix,
    LaurentPolynomial,
    cokernel,
    eliminate_pivots,
    is_square_free,
    smith_normal_form,
)

L = LaurentPolynomial


def rand_poly(rng, span=4, size=3):
    return L({rng.randint(-span, span): rng.randint(-5, 5) for _ in range(size)})


def test_laurent_constructors_and_identity():
    assert not L()
    assert L({2: 0, 1: 5}) == L({1: 5})  # zero coefficients dropped
    assert L({0: 1})[0] == 1 and L({0: 1})[7] == 0


def test_laurent_ring_axioms_seeded():
    rng = random.Random(20240521)
    for _ in range(200):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + L() == a
        assert a * L({0: 1}) == a
        assert a - a == L()
        assert a * 0 == L()


def test_laurent_int_mixing():
    a = L({1: 2, -1: 2, 0: -3})
    assert a + 3 == L({1: 2, -1: 2})
    assert 3 - a == L({1: -2, -1: -2, 0: 6})
    assert a * 2 == L({1: 4, -1: 4, 0: -6})
    # a constant equals its integer, so it hashes like it too
    assert L({0: 5}) == 5 and hash(L({0: 5})) == hash(5)
    assert 5 in {L({0: 5})} and L({0: 5}) in {5}
    assert L() == 0 and L() in {0}
    assert L({0: 5}) in {L({0: 5})} and L({1: 5}) not in {5}


def test_laurent_shift_mirror_pow():
    a = L({2: 1, 0: -1})
    assert a.shift(3) == L({5: 1, 3: -1})
    assert a.mirror() == L({-2: 1, 0: -1})
    assert a.mirror().mirror() == a
    assert a ** 0 == L({0: 1})
    assert a ** 3 == a * a * a
    with pytest.raises(ValueError):
        a ** -1


def test_laurent_evaluate():
    a = L({1: 2, 0: -3, -1: 2})
    assert a.evaluate(1) == 1
    assert a.evaluate(-1) == -7
    assert a.evaluate(Fraction(1, 2)) == Fraction(2)
    with pytest.raises(ZeroDivisionError):
        a.evaluate(0)
    # no negative exponents: integer evaluation stays integral
    assert L({3: 1, 1: -2}).evaluate(2) == 4


def test_laurent_exact_div():
    rng = random.Random(99)
    for _ in range(100):
        a = rand_poly(rng)
        b = rand_poly(rng)
        if not b:
            continue
        assert (a * b).exact_div(b) == a
    with pytest.raises(ValueError):
        L({1: 1, 0: 1}).exact_div(L({1: 2}))
    # the leading coefficients divide at every step, but no quotient term
    # may fall below the dividend's lowest exponent less the divisor's
    with pytest.raises(ValueError):
        L({0: 1}).exact_div(L({1: 1, -1: 1}))
    with pytest.raises(ValueError):
        L({3: 1, 0: 1}).exact_div(L({1: 1, 0: -1}))
    with pytest.raises(ZeroDivisionError):
        L({0: 1}).exact_div(L())


def test_laurent_format():
    assert L().format() == "0"
    assert L({2: 1, 0: -3, -1: 2}).format("t") == "t^2 - 3 + 2*t^-1"
    assert L({1: 1, -1: 1}).format("q") == "q + q^-1"


def test_integer_matrix_basics():
    m = IntegerMatrix([[1, 2], [3, 4]])
    assert m[1, 0] == 3
    assert (m * IntegerMatrix([[1, 0], [0, 1]])) == m
    assert m.delete_row_col(0, 0) == IntegerMatrix([[4]])
    with pytest.raises(ValueError):
        IntegerMatrix([[1, 2], [3]])
    # a matrix without rows keeps its columns, and its shape counts
    assert IntegerMatrix.zero(0, 3).cols == 3
    assert IntegerMatrix.zero(0, 3) != IntegerMatrix.zero(0, 0)
    # so does every operation that leaves no rows
    assert IntegerMatrix.zero(0, 3) * IntegerMatrix.zero(3, 4) == IntegerMatrix.zero(0, 4)
    assert IntegerMatrix([[1, 2, 3]]).delete_row_col(0, 0) == IntegerMatrix.zero(0, 2)
    core = eliminate_pivots(IntegerMatrix([[1, 2, 3]]))
    assert core == IntegerMatrix.zero(0, 2)


def test_determinant_bareiss():
    assert IntegerMatrix([[7, 4], [0, 7]]).determinant() == 49
    assert IntegerMatrix([[2, 0], [0, 3]]).determinant() == 6
    assert IntegerMatrix([[0, 1], [1, 0]]).determinant() == -1
    # determinant of a permutation-ish 4x4 with a zero leading pivot
    m = IntegerMatrix([[0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    assert m.determinant() in (1, -1)
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        m = IntegerMatrix(rows)
        # cofactor expansion as the independent check
        def cof(a):
            k = len(a)
            if k == 1:
                return a[0][0]
            total = 0
            for j in range(k):
                minor = [row[:j] + row[j + 1 :] for row in a[1:]]
                total += (-1) ** j * a[0][j] * cof(minor)
            return total

        assert m.determinant() == cof(rows)


def snf_check(m):
    snf = smith_normal_form(m)
    d = snf.diagonal
    for a, b in zip(d, d[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    assert all(x >= 0 for x in d)
    assert snf.u.determinant() in (1, -1)
    assert snf.v.determinant() in (1, -1)
    prod = snf.u * m * snf.v
    for i in range(prod.rows):
        for j in range(prod.cols):
            assert prod[i, j] == (d[i] if i == j and i < len(d) else 0)
    return d


def test_snf_frozen_small():
    assert snf_check(IntegerMatrix([[7, 4], [0, 7]])) == (1, 49)
    assert snf_check(IntegerMatrix([[2, 0], [0, 3]])) == (1, 6)
    assert snf_check(IntegerMatrix([[2, 4], [2, 4]])) == (2, 0)
    assert snf_check(IntegerMatrix([[0, 0], [0, 0]])) == (0, 0)
    assert snf_check(IntegerMatrix([[6]])) == (6,)
    assert snf_check(IntegerMatrix([[2, 0, 0], [0, 6, 0]])) == (2, 6)


def goeritz_like(n):
    return IntegerMatrix(
        [
            [4, 0, -1, 0],
            [0, -4, 0, 1],
            [-1, 0, 2 - n, n],
            [0, 1, n, -n - 2],
        ]
    )


def test_snf_goeritz_family():
    # the 4x4 family splits on divisibility by 7
    for n in range(-14, 15):
        d = snf_check(goeritz_like(n))
        if n % 7 == 0:
            assert d == (1, 1, 7, 7)
        else:
            assert d == (1, 1, 1, 49)
        assert abs(goeritz_like(n).determinant()) == 49


def test_snf_seeded_random():
    rng = random.Random(424242)
    for _ in range(60):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = IntegerMatrix([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
        snf_check(m)


def test_abelian_group_validation():
    with pytest.raises(ValueError):
        AbelianGroup((1,))
    with pytest.raises(ValueError):
        AbelianGroup((4, 6))  # 6 not divisible by 4
    with pytest.raises(ValueError):
        AbelianGroup((), -1)
    g = AbelianGroup((7, 49))
    assert g.order() == 343
    assert str(g) == "Z/7 + Z/49"
    assert str(AbelianGroup((), 2)) == "Z + Z"
    assert str(AbelianGroup()) == "0"
    assert AbelianGroup().order() == 1
    with pytest.raises(ValueError):
        AbelianGroup((), 1).order()


def test_square_free():
    assert is_square_free(1)
    assert is_square_free(7)
    assert is_square_free(2 * 3 * 5 * 7)
    assert not is_square_free(0)
    assert not is_square_free(4)
    assert not is_square_free(49)
    assert not is_square_free(-18)
    assert is_square_free(-15)
    assert AbelianGroup((7, 7)).is_square_free_decomposition()
    assert not AbelianGroup((49,)).is_square_free_decomposition()
    assert AbelianGroup().is_square_free_decomposition()


def test_cokernel():
    assert cokernel(IntegerMatrix([[2, 0], [0, 3]])) == AbelianGroup((6,))
    assert cokernel(IntegerMatrix([[7, 4], [0, 7]])) == AbelianGroup((49,))
    assert cokernel(IntegerMatrix([[0, 0], [0, 0]])) == AbelianGroup((), 2)
    assert cokernel(IntegerMatrix([[1, 0], [0, 1]])) == AbelianGroup()
    # two generators and no relation
    assert cokernel(IntegerMatrix([[1, 2, 3]]).delete_row_col(0, 0)) == AbelianGroup((), 2)
    assert cokernel(goeritz_like(7)) == AbelianGroup((7, 7))
    assert cokernel(goeritz_like(1)) == AbelianGroup((49,))


def _sparse(rng, rows, cols, values, density):
    return [[rng.choice(values) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)]


def _permutation(rng, n, odd):
    perm = list(range(n))
    rng.shuffle(perm)
    inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
    if inversions % 2 != odd:
        perm[0], perm[1] = perm[1], perm[0]
    return [[int(perm[i] == j) for j in range(n)] for i in range(n)], -1 if odd else 1


def sparse_corpus(seed):
    """Seeded sparse integer matrices, as (rows, known determinant or None)."""
    rng = random.Random(seed)
    cases = [([], 1), ([[0]], 0), ([[5]], 5), ([[-1]], -1)]
    for n in (2, 3, 5, 8, 13):
        for odd in (False, True):
            cases.append(_permutation(rng, n, odd))
    for _ in range(60):
        n = rng.randint(1, 8)
        values = rng.choice(((-1, 1, 2, -3), (1, -1), (2, -2, 3, 5, -7)))  # the last has no unit
        rows = _sparse(rng, n, n, values, rng.choice((0.2, 0.4, 0.7)))
        kind = rng.randrange(4)
        if kind == 1 and n > 1:  # singular: a row the sum of two others, or twice another
            i, j, k = rng.sample(range(n), 3) if n > 2 else (0, 1, 1)
            rows[i] = [a + b for a, b in zip(rows[j], rows[k])]
        elif kind == 2:  # a zero row and a zero column
            rows[rng.randrange(n)] = [0] * n
            c = rng.randrange(n)
            for row in rows:
                row[c] = 0
        cases.append((rows, None))
    for n in (20, 30):  # long enough for stale heap entries and fill-in
        cases.append((_sparse(rng, n, n, (1, -1, 1, 2, -2, 3), 0.12), None))
    return cases


def test_determinant_matches_dense_oracle():
    for rows, known in sparse_corpus(20261018):
        det = IntegerMatrix(rows).determinant()
        assert det == bareiss_det(rows), rows
        if known is not None:
            assert det == known, rows
        if len(rows) <= 6:
            assert det == cofactor_det(rows), rows
        if len(rows) >= 20:
            # bareiss_det runs the package's own algorithm; Smith form does not
            assert abs(det) == math.prod(smith_normal_form(IntegerMatrix(rows)).diagonal), rows


def test_cokernel_matches_smith_of_the_whole_matrix():
    rng = random.Random(5150)
    shapes = [rows for rows, _ in sparse_corpus(77)]
    for _ in range(40):  # non-square, down to a single row or column
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        shapes.append(_sparse(rng, r, c, rng.choice(((1, -1, 2), (2, 3, -4))), 0.4))
    shapes.append([[], []])  # two relations on no generators
    for rows in shapes:
        m = IntegerMatrix(rows)
        snf = smith_normal_form(m)
        torsion = tuple(d for d in snf.diagonal if d > 1)
        assert cokernel(m) == AbelianGroup(torsion, m.cols - snf.rank()), rows


def _is_unit(x, unit_bits):
    """x is +-2^(bk) for b = unit_bits, which is +-1 alone when b = 0."""
    x = abs(x)
    k = x.bit_length() - 1
    return x == 1 << k and (k % unit_bits == 0 if unit_bits else k == 0)


def test_elimination_keeps_the_determinant_up_to_a_unit():
    # det(M) / det(core) is a unit of the ring the entries stand for:
    # +-2^(bk) with k of either sign, or +-1 when b = 0; the core keeps no unit
    signed = 0
    for rows, _ in sparse_corpus(31337):
        m = IntegerMatrix(rows)
        for unit_bits in (0, 1, 2):
            core = eliminate_pivots(m, unit_bits)
            assert core.cols == core.rows == m.cols - (m.rows - core.rows), rows
            assert not any(x and _is_unit(x, unit_bits) for row in core.to_lists() for x in row)
            det, det_core = bareiss_det(rows), bareiss_det(core.to_lists())
            assert (det == 0) == (det_core == 0), (rows, unit_bits)
            if det:
                ratio = Fraction(det, det_core)
                assert 1 in (abs(ratio.numerator), ratio.denominator), (rows, unit_bits)
                unit = abs(ratio.numerator) * ratio.denominator
                assert _is_unit(unit, unit_bits), (rows, unit_bits, ratio)
                signed += ratio != 1
    assert signed > 5


def test_bigraded_dims():
    a = BigradedDims({(1, 0): 1, (3, 0): 1})
    b = BigradedDims({(3, 0): 2, (5, 1): 1})
    assert (a + b) == BigradedDims({(1, 0): 1, (3, 0): 3, (5, 1): 1})
    assert a.shift(2, 1) == BigradedDims({(3, 1): 1, (5, 1): 1})
    assert a.reflect() == BigradedDims({(-1, 0): 1, (-3, 0): 1})
    assert a.total_rank() == 2
    assert BigradedDims({(2, 0): 0}) == BigradedDims()
    assert not BigradedDims()
    assert a[(1, 0)] == 1 and a[(9, 9)] == 0


def test_bigraded_euler_poly():
    # unknot-shaped homology: q + q^-1 concentrated in u = 0
    a = BigradedDims({(1, 0): 1, (-1, 0): 1})
    assert a.euler_poly() == L({1: 1, -1: 1})
    # a u-odd generator contributes negatively
    b = BigradedDims({(1, 1): 1})
    assert b.euler_poly() == L({1: -1})


def test_bigraded_diagonals_poincare():
    a = BigradedDims({(1, 0): 1, (-1, 0): 1})
    assert a.diagonals() == [-1, 1]
    s = BigradedDims({(1, 0): 1, (5, 2): 3}).poincare()
    assert "q" in s and "u" in s


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
