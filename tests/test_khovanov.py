import gc
import hashlib
import random
import tracemalloc
from dataclasses import astuple

import pytest
from cube_oracle import cube_homology, edge_data

from symknot import bar_natan, khovanov, polynomials
from symknot.algebra import BigradedDims, IntegerMatrix, LaurentPolynomial
from symknot.bar_natan import scan_homology
from symknot.diagram import (
    BudgetError,
    InvariantError,
    PlanarDiagram,
    connected_sum,
    mirror,
    scan_order,
)
from symknot.fixtures import (
    braid_pd,
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
from symknot.khovanov import (
    F2,
    KH_BUDGET,
    RATIONAL,
    KhResult,
    build_cube,
    closed_formula_kn,
    is_thin,
    kh_homology,
    reduced_f2_dims,
    skein_consistency,
    slice_complex,
)
from symknot.polynomials import jones

KH_UNKNOT = {(-1, 0): 1, (1, 0): 1}
KH_TREFOIL = {(1, 0): 1, (3, 0): 1, (5, 2): 1, (9, 3): 1}
KH_52 = {
    (1, 0): 1,
    (3, 0): 1,
    (3, 1): 1,
    (5, 2): 1,
    (7, 2): 1,
    (9, 3): 1,
    (9, 4): 1,
    (13, 5): 1,
}
KH_FIG8 = {
    (-5, -2): 1,
    (-1, -1): 1,
    (-1, 0): 1,
    (1, 0): 1,
    (1, 1): 1,
    (5, 2): 1,
}


def test_field_tags():
    d = unknot_zero()
    for field, spellings in ((RATIONAL, ("q", "Q")), (F2, ("f2", "F2"))):
        results = [kh_homology(d, s) for s in spellings]
        assert all(r.field == field for r in results)
        # both letter cases share one memo entry
        assert results[0] is results[1]
    for name in ("rational", "z2", "gf2", "Z"):
        with pytest.raises(ValueError):
            kh_homology(d, name)
    gens, _ = slice_complex(trefoil(True), 1, "f2")
    assert gens
    with pytest.raises(ValueError):
        KhResult(field="R", dims=BigradedDims({}))


def test_cube_trefoil_circle_counts():
    # hand enumeration on the three-crossing braid closure: the all-0
    # smoothing leaves the two Seifert circles, each single flip fuses
    # everything, and the all-1 smoothing shows three circles
    cube = build_cube(trefoil(True))
    counts = [cube.circle_count(v) for v in range(8)]
    assert counts == [2, 1, 1, 2, 1, 2, 2, 3]
    # mirroring swaps the roles of the 0- and 1-smoothings
    mcube = build_cube(trefoil(False))
    assert [mcube.circle_count(v) for v in range(8)] == [3, 2, 2, 1, 2, 1, 1, 2]


def test_cube_edges_merge_or_split():
    for d in (trefoil(True), figure_eight(), knot_5_2()):
        cube = build_cube(d)
        for v in range(cube.n_vertices):
            for i in range(cube.n):
                if v >> i & 1:
                    with pytest.raises(ValueError):
                        edge_data(cube, v, i)
                    continue
                kind, src, dst = edge_data(cube, v, i)
                v2 = v | 1 << i
                if kind == "merge":
                    assert cube.circle_count(v2) == cube.circle_count(v) - 1
                    assert len(src) == 2 and len(dst) == 1
                    assert src[0] != src[1]
                else:
                    assert kind == "split"
                    assert cube.circle_count(v2) == cube.circle_count(v) + 1
                    assert len(src) == 1 and len(dst) == 2
                    assert dst[0] != dst[1]


def test_cube_k1_has_2048_vertices():
    cube = build_cube(kn_template(1))
    assert cube.n_vertices == 2048
    merges = splits = 0
    for v in range(cube.n_vertices):
        for i in range(cube.n):
            if not v >> i & 1:
                kind, _, _ = edge_data(cube, v, i)
                merges += kind == "merge"
                splits += kind == "split"
    assert merges + splits == 11 * 1024


def count_calls(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records each call's arguments."""
    calls = []
    fn = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def record_complex_sizes(monkeypatch):
    """Make every object the scan adds append the size of its complex to a list."""
    sizes = [0]
    add = bar_natan._Scan._add

    def counted(self, *args):
        out = add(self, *args)
        sizes.append(len(self.objs))
        return out

    monkeypatch.setattr(bar_natan._Scan, "_add", counted)
    return sizes


def test_budget_guards(monkeypatch):
    assert KH_BUDGET == 100_000
    with pytest.raises(BudgetError) as err:
        build_cube(kn_template(1), budget=10)
    assert err.value.needed == 11
    assert err.value.budget == 10
    # the projection is exact: the scan's peak is admitted, one less is not,
    # and the refusal names the peak
    peak = kh_homology(kn_template(3)).stats.max_objects_before
    monkeypatch.setattr(khovanov, "KH_BUDGET", peak)
    assert kh_homology(kn_template(3)).dims == closed_formula_kn(3)
    monkeypatch.setattr(khovanov, "KH_BUDGET", peak - 1)
    # the refusal says how far the scan got: K_3 has 13 crossings
    with pytest.raises(BudgetError, match=r"crossing \d+ of 13 X") as err:
        kh_homology(kn_template(3))
    assert err.value.needed == peak and err.value.budget == peak - 1
    # the refusal comes before the objects exist
    sizes = record_complex_sizes(monkeypatch)
    monkeypatch.setattr(khovanov, "KH_BUDGET", 100)
    for field in (RATIONAL, F2):
        with pytest.raises(BudgetError) as err:
            kh_homology(kn_template(14), field)
        assert err.value.needed > err.value.budget == 100
    assert max(sizes) <= 100
    # crossingless loops deloop into 2^loops objects
    with pytest.raises(BudgetError, match="loops") as err:
        kh_homology(PlanarDiagram([], loops=7))
    assert err.value.needed == 128 and max(sizes) <= 100
    assert kh_homology(trefoil()).dims.dims == KH_TREFOIL


def test_unknots_and_unlink():
    for d in (unknot_zero(), unknot_kink(1), unknot_kink(-1), unknot_r2()):
        assert kh_homology(d).dims.dims == KH_UNKNOT, d.name
        assert kh_homology(d, F2).dims.dims == KH_UNKNOT, d.name
    assert kh_homology(two_unlink()).dims.dims == {(-2, 0): 1, (0, 0): 2, (2, 0): 1}


def test_trefoil_tables():
    r = kh_homology(trefoil())
    assert r.dims.dims == KH_TREFOIL
    assert (trefoil().n_plus, trefoil().n_minus) == (3, 0)
    rf = kh_homology(trefoil(), F2)
    # one torsion class shows up as the extra pair in q = 7
    assert rf.dims.dims == {**KH_TREFOIL, (7, 2): 1, (7, 3): 1}
    assert reduced_f2_dims(rf).dims == {(2, 0): 1, (6, 2): 1, (8, 3): 1}


def test_52_matches_published_table():
    r = kh_homology(knot_5_2())
    assert r.dims.dims == KH_52
    assert r.dims.poincare() == "q + q^3 + q^3*u + q^5*u^2 + q^7*u^2 + q^9*u^3 + q^9*u^4 + q^13*u^5"
    report = is_thin(r)
    assert report and report.diagonals == (1, 3)


def test_mirror_52_reflects():
    r = kh_homology(knot_5_2(False))
    assert r.dims == BigradedDims(KH_52).reflect()


def test_figure_eight_table():
    r = kh_homology(figure_eight())
    assert r.dims.dims == KH_FIG8
    assert r.dims == r.dims.reflect()  # amphichiral
    assert is_thin(r).diagonals == (-1, 1)


EULER_CORPUS = [
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
    torus_2k(2),
    torus_2k(5),
    pretzel(3, 1, -3),
    rational_knot([1, 1, 3]),
]


def test_euler_characteristic_equals_jones():
    for d in EULER_CORPUS:
        assert kh_homology(d).dims.euler_poly() == jones(d), d.name
    # the Euler characteristic does not care about the field
    for d in (trefoil(), figure_eight(), torus_2k(2)):
        assert kh_homology(d, F2).dims.euler_poly() == jones(d), d.name


def test_mirror_reflection_both_fields():
    for d in (trefoil(True), figure_eight(), knot_5_2(), pretzel(3, 1, -3)):
        for field in (RATIONAL, F2):
            left = kh_homology(mirror(d), field).dims
            right = kh_homology(d, field).dims.reflect()
            assert left == right, (d.name, field)


def test_f2_dominates_rational_ranks():
    for d in EULER_CORPUS:
        rq = kh_homology(d).dims
        rf = kh_homology(d, F2).dims
        for key, rank in rq:
            assert rf[key] >= rank, (d.name, key)


def test_thinness_verdicts():
    # connected sums of alternating knots stay alternating, hence thin
    square = kh_homology(connected_sum(trefoil(True), trefoil(False), 1, 1))
    assert is_thin(square).diagonals == (-1, 1)
    # the (-2,3,3)-pretzel is the (3,4) torus knot, the smallest wide knot
    wide = kh_homology(pretzel(-2, 3, 3))
    assert wide.dims.dims == {
        (5, 0): 1,
        (7, 0): 1,
        (9, 2): 1,
        (11, 4): 1,
        (13, 3): 1,
        (13, 4): 1,
        (15, 5): 1,
        (17, 5): 1,
    }
    report = is_thin(wide)
    assert not report and report.diagonals == (3, 5, 7)
    assert not is_thin(kh_homology(two_unlink()))


def _compose(mats, u):
    """All coefficients of d_{u+1} . d_u, as a dict (src, dst) -> value."""
    first = mats.get(u, {})
    second = mats.get(u + 1, {})
    acc = {}
    for col, rows in first.items():
        for mid, a in rows.items():
            for dst, b in second.get(mid, {}).items():
                key = (col, dst)
                acc[key] = acc.get(key, 0) + a * b
    return acc


def test_d_squared_is_zero():
    rng = random.Random(20240612)
    for d in (figure_eight(), knot_5_2(), trefoil(False)):
        qs = sorted({q for (q, _) in kh_homology(d).dims.dims})
        for q in rng.sample(qs, min(3, len(qs))):
            gens, mats = slice_complex(d, q)
            for u in list(gens):
                comp = _compose(mats, u)
                assert all(v == 0 for v in comp.values()), (d.name, q, u)
            # and on a random chain: push a random combination through twice
            for u, cols in mats.items():
                if u + 1 not in mats:
                    continue
                chain = {c: rng.choice([1, -1, 2]) for c in cols if rng.random() < 0.5}
                once = {}
                for c, coef in chain.items():
                    for mid, a in cols[c].items():
                        once[mid] = once.get(mid, 0) + coef * a
                twice = {}
                for mid, coef in once.items():
                    for dst, b in mats[u + 1].get(mid, {}).items():
                        twice[dst] = twice.get(dst, 0) + coef * b
                assert all(v == 0 for v in twice.values())


def test_closed_formula_shape():
    f4 = closed_formula_kn(4)
    assert f4.total_rank() == 50
    assert f4.diagonals() == [-1, 1]
    f1 = closed_formula_kn(1)
    assert f1[(-9, -4)] == 1 and f1[(-1, 0)] == 5 and f1[(1, 0)] == 4
    assert f1[(13, 6)] == 1 and f1.total_rank() == 50
    # reflection rule for negative twists
    assert closed_formula_kn(-2) == closed_formula_kn(2).reflect()
    assert closed_formula_kn(0) == closed_formula_kn(0).reflect()
    for n in range(-6, 7):
        f = closed_formula_kn(n)
        assert f.total_rank() == 50
        assert f.diagonals() == [-1, 1]


def test_closed_formula_matches_computation_small_n():
    # the -6..6 sweep lives in the acceptance tests; keep the cheap pair here
    assert kh_homology(kn_template(0)).dims == closed_formula_kn(0)
    assert kh_homology(kn_template(1)).dims == closed_formula_kn(1)


def test_closed_formula_euler_matches_jones():
    # pins the formula's Euler characteristic over the whole classical range,
    # where the FORMULA_THIN verdicts for K_+-7, K_+-14 and K_+-28 live
    for n in range(-28, 29):
        assert jones(kn_template(n)) == closed_formula_kn(n).euler_poly(), n


def test_k1_equals_10_22():
    assert kh_homology(knot_10_22()).dims == closed_formula_kn(1)


def test_reduced_peeling():
    r = kh_homology(unknot_zero(), F2)
    assert reduced_f2_dims(r).dims == {(0, 0): 1}
    r52 = kh_homology(knot_5_2(), F2)
    red = reduced_f2_dims(r52)
    assert red.total_rank() == 7
    assert red.diagonals() == [2]
    with pytest.raises(ValueError):
        reduced_f2_dims(kh_homology(knot_5_2(), RATIONAL))
    bogus = KhResult(field=F2, dims=BigradedDims({(1, 0): 1}))
    with pytest.raises(ValueError):
        reduced_f2_dims(bogus)
    mixed = KhResult(field=F2, dims=BigradedDims({(1, 0): 1, (2, 0): 1}))
    with pytest.raises(ValueError):
        reduced_f2_dims(mixed)


def test_skein_triangle_small():
    for d, ci in [
        (unknot_kink(1), 0),
        (unknot_kink(-1), 0),
        (trefoil(), 0),
        (trefoil(), 1),
        (trefoil(), 2),
        (figure_eight(), 2),
    ]:
        rep = skein_consistency(d, ci)
        assert rep.rank_inequality_ok and rep.euler_additive, (d.name, ci)
    rep = skein_consistency(trefoil(), 0)
    assert rep.sign == 1 and rep.epsilon == 2
    assert rep.shift_unoriented == (8, 3) and rep.shift_oriented == (1, 0)


def test_skein_triangle_k2_twist():
    k2 = kn_template(2)
    rep = skein_consistency(k2, k2.site.interior[0])
    assert rep.epsilon == 0
    assert rep.rank_inequality_ok and rep.euler_additive
    # the two resolutions of the twist are the previous knot and the unlink
    assert rep.unoriented.dims == closed_formula_kn(1)
    assert rep.oriented.dims.dims == {(-2, 0): 1, (0, 0): 2, (2, 0): 1}


def test_quantum_parity():
    for d in (trefoil(), figure_eight()):
        assert all(q % 2 for (q, _) in kh_homology(d).dims.dims)
    assert all(q % 2 == 0 for (q, _) in kh_homology(torus_2k(2)).dims.dims)


# -- the scanning engine against the cube oracle ------------------------------

CORPUS_SEED = 20261017


def _disjoint_union(d1, d2):
    offset = max(d1.arcs, default=0)
    shifted = [tuple(a + offset for a in x) for x in d2.crossings]
    return PlanarDiagram(list(d1.crossings) + shifted, loops=d1.loops + d2.loops)


def _random_word(rng, strands, length):
    return [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)]


def random_braid_corpus(seed=CORPUS_SEED):
    """Seeded closed 2-4-strand braids with at most 9 crossings.

    Trace closures of random words give knots and links, strands no letter
    touches give crossingless loops, a Markov stabilisation (one more strand
    and one letter on it) gives a kink, and a disjoint union of two closures
    gives a split diagram.
    """
    rng = random.Random(seed)
    corpus = []
    for strands in (2, 3, 4):
        for _ in range(10):
            corpus.append(braid_pd(_random_word(rng, strands, rng.randint(1, 9)), strands))
    for strands in (2, 3):
        for _ in range(5):
            word = _random_word(rng, strands, rng.randint(1, 8))
            word.append(rng.choice((1, -1)) * strands)
            corpus.append(braid_pd(word, strands + 1))
    for _ in range(8):
        a = braid_pd(_random_word(rng, 2, rng.randint(1, 4)), 2)
        b = braid_pd(_random_word(rng, 3, rng.randint(1, 5)), 3)
        corpus.append(_disjoint_union(a, b))
    for _ in range(6):
        d = braid_pd(_random_word(rng, 3, rng.randint(0, 7)), 3)
        corpus.append(PlanarDiagram(d.crossings, loops=d.loops + rng.randint(1, 2)))
    return corpus


def test_random_corpus_covers_every_shape():
    corpus = random_braid_corpus()
    assert all(d.n_crossings <= 9 for d in corpus)
    assert any(d.n_components() == 1 for d in corpus)
    assert any(d.n_components() > 1 and not d.loops for d in corpus)
    assert any(d.loops and d.n_crossings for d in corpus)
    assert any(not d.is_connected() and not d.loops for d in corpus)
    kink = [a for d in corpus for a in d.arcs if any(x.count(a) == 2 for x in d.crossings)]
    assert kink


@pytest.mark.parametrize("field", [RATIONAL, F2])
def test_scanning_engine_equals_cube_oracle(field):
    for i, d in enumerate(random_braid_corpus()):
        assert kh_homology(d, field).dims == cube_homology(d, field), (i, d.serialize())
    for d in EULER_CORPUS + [pretzel(-2, 3, 3), knot_10_22()]:
        assert kh_homology(d, field).dims == cube_homology(d, field), d.name


def _scan_corpus():
    zoo = [kn_template(n) for n in (*range(-3, 4), 28, -28, 100)]
    return zoo + random_braid_corpus() + EULER_CORPUS


# sha256 of "PD code | object counts | leftover blocks | the six ScanStats
# counters" per diagram of the integral scan, joined by newlines
Q_SCAN_SHA256 = "87d3f4a440cc985905695b53c4c414d8df72a95e0672ec0039bb7b2f0c14ff55"


def test_scan_tables_and_counters_frozen():
    # the integral scan's own output, before the global shifts: any change to
    # the elimination order moves a counter even where the homology stays; the
    # F2 scan's lines are frozen in F2_SCAN_SHA256
    lines = []
    for d in _scan_corpus():
        counts, blocks, stats = scan_homology(
            d.crossings, d.crossing_order(), d.loops, False, KH_BUDGET
        )
        leftover = sorted((key, block.to_lists()) for key, block in blocks.items())
        lines.append(f"{d.serialize()}|{sorted(counts.items())}|{leftover}|{astuple(stats)}")
    assert len(lines) == 78
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == Q_SCAN_SHA256


# frozen apart from how the Q scan ends: the 78 F2 lines of
# test_scan_tables_and_counters_frozen, and the 78 Q tables of kh_homology
F2_SCAN_SHA256 = "4abeae09a9075214067283051885e5274fd7691b5dd9ab6005e4225a02857dd1"
Q_TABLES_SHA256 = "93d8196e89655effec9497017857b6d5f8beeb5756fa1b94c5bd27104592d6fe"


def test_f2_scan_lines_frozen():
    lines = []
    for d in _scan_corpus():
        # the scan's table comes first and its counters last
        dims, *_, stats = scan_homology(
            d.crossings, d.crossing_order(), d.loops, True, KH_BUDGET
        )
        lines.append(f"{d.serialize()}|True|{sorted(dims.items())}|{astuple(stats)}")
    assert len(lines) == 78
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == F2_SCAN_SHA256


def test_q_tables_frozen():
    lines = [
        f"{d.serialize()}|{sorted(kh_homology(d, RATIONAL).dims.dims.items())}"
        for d in _scan_corpus()
    ]
    assert len(lines) == 78
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == Q_TABLES_SHA256


def test_shared_geometry_changes_nothing():
    # asking one diagram for both fields, in either order, each field gives the
    # table and counters of a scan of its own, except that F2 after Q reads the
    # integral scan and runs none, so it has no counters
    corpus = _scan_corpus()
    assert len(corpus) == 78
    for d in corpus:
        fresh = {}
        for field in (RATIONAL, F2):
            counts, blocks, stats = scan_homology(
                d.crossings, d.crossing_order(), d.loops, field == F2, KH_BUDGET
            )
            raw = khovanov._over_z(counts, blocks)[0]
            dims = {(q + d.n_plus - 2 * d.n_minus, r - d.n_minus): n for (q, r), n in raw.items()}
            fresh[field] = BigradedDims(dims), stats
        for order in ((RATIONAL, F2), (F2, RATIONAL)):
            shared = PlanarDiagram(d.crossings, loops=d.loops)
            for field in order:
                r = kh_homology(shared, field)
                want = fresh[field] if order[0] == F2 or field == RATIONAL else (fresh[F2][0], None)
                assert (r.dims, r.stats) == want, (d.serialize(), order, field)


def test_f2_from_the_integral_scan_equals_the_f2_scan():
    # universal coefficients on the integral scan's leftover against the scan
    # mod 2, on fresh copies of the corpus; F2 only gains on Q, by torsion
    for d in _scan_corpus():
        alone = kh_homology(PlanarDiagram(d.crossings, loops=d.loops), F2)
        both = PlanarDiagram(d.crossings, loops=d.loops)
        rational = kh_homology(both, RATIONAL)
        read = kh_homology(both, F2)
        assert alone.stats is not None and read.stats is None, d.serialize()
        assert read == alone, d.serialize()
        assert all(alone.dims[key] >= rank for key, rank in rational.dims), d.serialize()


def test_torsion_is_one_z2_per_trefoil_and_24_per_kn():
    # Shumakovitch (arXiv:math/0405474): a thin knot's torsion is all Z/2, in
    # (rank over Q - 2) / 2 copies: one for the trefoil (rank 4), 24 for K_n (50)
    assert khovanov._kh_integral(trefoil(True)).torsion == {(7, 3): (2,)}
    assert khovanov._kh_integral(trefoil(False)).torsion == {(-7, -2): (2,)}
    for n in (*range(-3, 4), 28, -28):
        torsion = khovanov._kh_integral(kn_template(n)).torsion
        factors = [f for group in torsion.values() for f in group]
        assert factors == [2] * 24, (n, torsion)


def test_blocks_that_do_not_compose_to_zero_raise():
    one = IntegerMatrix([[1]])
    counts = {(0, 0): 1, (0, 1): 1, (0, 2): 1}
    with pytest.raises(InvariantError, match="compose to zero"):
        khovanov._over_z(counts, {(0, 0): IntegerMatrix([[2]]), (0, 1): one})
    free, mod2, torsion = khovanov._over_z(counts, {(0, 0): IntegerMatrix([[2]])})
    assert free == {(0, 0): 0, (0, 1): 0, (0, 2): 1}
    assert mod2 == {(0, 0): 1, (0, 1): 1, (0, 2): 1}
    assert torsion == {(0, 1): (2,)}


def test_scans_do_not_depend_on_the_crossing_order():
    # every order glues the same closed tangle: both fields' homology, the
    # torsion and the bracket stay, while the leftover complex and the
    # ScanStats counters may move; the bracket is compared as a polynomial,
    # since the raw dict can keep a zero coefficient in some orders
    rng = random.Random(16)

    def homology(d, order, char2):
        counts, blocks, _ = scan_homology(d.crossings, order, d.loops, char2, KH_BUDGET)
        return khovanov._over_z(counts, blocks)

    for d in EULER_CORPUS:
        order = d.crossing_order()
        shuffles = [rng.sample(order, len(order)) for _ in range(2)]
        for char2 in (False, True):
            tables = homology(d, order, char2)
            for shuffled in shuffles:
                assert homology(d, shuffled, char2) == tables, (d.name, char2, shuffled)
        bracket = LaurentPolynomial(polynomials._bracket_scan(d.crossings, order))
        for shuffled in shuffles:
            again = LaurentPolynomial(polynomials._bracket_scan(d.crossings, shuffled))
            assert again == bracket, (d.name, shuffled)


def _surfaces(d, char2):
    """The plans a scan of ``d`` glues, per crossing shape, and the plans it composes."""
    scan = bar_natan._Scan(d.loops, char2, KH_BUDGET, d.n_crossings)
    for i in d.crossing_order():
        scan.add_crossing(tuple(d.crossings[i]))
    return {key: set(shape.hplans) for key, shape in scan.shapes.items()}, set(scan.vplans)


def test_geometry_stays_bounded_in_n():
    # K_n adds twist crossings of shapes already met, so a scan's surfaces do
    # not grow with n: 14 shapes, 231 crossing plans and 32 composition plans,
    # the same ones for every n of one sign and in both fields
    held = {}
    for n in (4, 30, -30, 100, -100):
        for char2 in (False, True):
            shapes, vplans = held[n, char2] = _surfaces(kn_template(n), char2)
            assert len(shapes) == 14, (n, char2)
            assert sum(map(len, shapes.values())) == 231 and len(vplans) == 32, (n, char2)
    for (n, char2), surfaces in held.items():
        assert surfaces == held[30 if n > 0 else -30, False], (n, char2)
    # nor does the memory that stays on the diagram once its result is memoised
    for n in (28, 100):
        d = kn_template(n)
        d.signs(), d.n_components()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kh_homology(d, F2)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept <= 500_000, (n, kept)


def test_held_diagrams_keep_no_surfaces():
    # a scan's glued surfaces end with it, so a run that holds every diagram
    # it scans, in both fields, holds none of them
    held = [kn_template(n) for n in range(-10, 11)]
    for d in held:
        kh_homology(d, F2)
        kh_homology(d, RATIONAL)
    gc.collect()
    kept = [obj for obj in gc.get_objects() if isinstance(obj, (bar_natan._Shape, bar_natan._Plan))]
    assert not kept, len(kept)


def test_scan_order_keeps_kn_boundary_at_six():
    for n in range(-28, 29):
        crossings = kn_template(n).crossings
        open_, widest = set(), 0
        for i in scan_order(crossings):
            open_ ^= set(crossings[i])
            widest = max(widest, len(open_))
        assert widest <= 6, n


def test_stats_count_the_scan():
    k3 = kh_homology(kn_template(3))
    st = k3.stats
    assert st.crossings == 13 and st.max_boundary == 6
    assert st.max_objects_after <= st.max_objects_before
    assert st.cancellations > 0 and st.compositions > 0
    # exact counters: a second run repeats them, and they stay out of equality
    assert kh_homology(kn_template(3)).stats == st
    assert k3 == KhResult(field=RATIONAL, dims=k3.dims)
    assert kh_homology(unknot_zero()).stats.crossings == 0


def test_kn_scan_peaks_at_414_objects():
    # the peak the README and KH_BUDGET quote for every K_n with |n| <= 100
    for n in (29, -29, 50, -50, 100, -100):
        st = kh_homology(kn_template(n), F2).stats
        assert st.max_objects_before == 414 and st.max_boundary == 6, n


def test_neck_cutting_rules():
    def ev(chi, dots, boundary):
        return bar_natan._evaluate([chi], [dots], [boundary])

    # closed components: sphere 0, dotted sphere 1, torus 2, anything heavier 0
    assert ev(2, 0, 0) == {} and ev(2, 1, 0) == {0: 1} and ev(0, 0, 0) == {0: 2}
    assert ev(2, 2, 0) == {} and ev(0, 1, 0) == {} and ev(-2, 0, 0) == {}
    # a disk is undotted; an annulus and a pair of pants leave one disk undotted
    assert ev(1, 0, 0b1) == {0: 1}
    assert ev(0, 0, 0b11) == {0b10: 1, 0b01: 1}
    assert ev(-1, 0, 0b111) == {0b110: 1, 0b101: 1, 0b011: 1}
    # one dot or one handle dots every disk, a handle with factor 2
    assert ev(0, 1, 0b11) == {0b11: 1}
    assert ev(-1, 0, 0b1) == {0b1: 2}
    assert ev(-1, 1, 0b1) == {}
    # components multiply; a genus that is not a whole number is a broken plan
    assert bar_natan._evaluate([1, 0], [0, 0], [0b001, 0b110]) == {0b100: 1, 0b010: 1}
    with pytest.raises(InvariantError):
        ev(0, 0, 0b1)


def test_open_boundary_after_last_crossing_raises():
    # an edge label seen once is a corrupted PD code: the tangle never closes
    with pytest.raises(InvariantError, match="boundary"):
        scan_homology([(1, 2, 3, 4)], [0], 0, True, KH_BUDGET)


def test_glued_entry_of_wrong_degree_raises():
    # the unknot's two delooped summands, q = +1 and q = -1, joined by a
    # scalar: that map has degree 0, not the 2 its shifts imply
    scan = bar_natan._Scan(1, False, KH_BUDGET, 1)
    top, bottom = scan.objs
    scan.out[top][bottom] = scan.inc[bottom][top] = {0: 1}
    with pytest.raises(InvariantError, match="degree"):
        scan.add_crossing((1, 2, 3, 4))


if __name__ == "__main__":
    r = kh_homology(knot_5_2())
    print("Kh(5_2):", r.dims.poincare())
    print("thin:", is_thin(r))
