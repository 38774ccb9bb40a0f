import pytest
from test_khovanov import count_calls, record_complex_sizes

from symknot import khovanov, obstruction
from symknot.algebra import AbelianGroup
from symknot.diagram import InvariantError
from symknot.fixtures import (
    figure_eight,
    kn_template,
    knot_5_2,
    pretzel,
    trefoil,
    two_unlink,
    unknot_zero,
)
from symknot.diagram import PlanarDiagram, SymmetricUnion
from symknot.khovanov import F2, kh_homology
from symknot.obstruction import (
    ABSENT,
    CERTIFICATES,
    COMPUTE,
    COMPUTED_THIN,
    FORMULA,
    FORMULA_THIN,
    INCONCLUSIVE,
    SATISFIES_CCC,
    ObstructionVerdict,
    ccc_verdict,
    recognize_template,
)


def test_certificate_modes():
    assert ccc_verdict(knot_5_2()).l_space_certificate == COMPUTED_THIN
    assert ccc_verdict(unknot_zero()).l_space_certificate == COMPUTED_THIN
    assert ccc_verdict(kn_template(14), FORMULA).l_space_certificate == FORMULA_THIN
    assert ccc_verdict(kn_template(-7), "FORMULA").l_space_certificate == FORMULA_THIN
    # 24 crossings: the scan computes what the formula cites
    assert ccc_verdict(kn_template(14), COMPUTE).l_space_certificate == COMPUTED_THIN
    with pytest.raises(ValueError):
        ccc_verdict(trefoil(), FORMULA)
    with pytest.raises(ValueError):
        ccc_verdict(knot_5_2(), FORMULA)
    with pytest.raises(ValueError):
        ccc_verdict(knot_5_2(), "guess")
    with pytest.raises(ValueError):
        ccc_verdict(knot_5_2(), None)
    # evidence holds the module constant, not a fresh lower-cased copy
    assert ccc_verdict(kn_template(-7), "FORMULA").evidence["mode"] is FORMULA
    assert ccc_verdict(knot_5_2(), "Compute").evidence["mode"] is COMPUTE
    with pytest.raises(ValueError):
        ccc_verdict(two_unlink())


def test_certificate_absent_for_wide_knot():
    # the (3,4) torus knot is an honest computation that is not thin
    assert ccc_verdict(pretzel(-2, 3, 3)).l_space_certificate == ABSENT


def test_recognize_template():
    for n in (-3, 0, 1, 14):
        assert recognize_template(kn_template(n)) == n
    assert recognize_template(trefoil()) is None
    assert recognize_template(knot_5_2()) is None
    # stripping the metadata or tampering with the code loses recognition
    bare = PlanarDiagram(kn_template(3).crossings)
    assert recognize_template(bare) is None
    t = kn_template(2)
    fake = SymmetricUnion(trefoil().crossings, site=t.site, n=2)
    assert recognize_template(fake) is None


def test_recognize_template_checks_size_before_building(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return kn_template(n)

    monkeypatch.setattr(obstruction, "kn_template", counting)
    site = kn_template(2).site
    for fake in (
        SymmetricUnion(trefoil().crossings, site=site, n=10**6),
        SymmetricUnion(kn_template(2).crossings, loops=1, site=site, n=2),
    ):
        assert recognize_template(fake) is None
    assert calls == []
    # a genuine member still builds its template to compare against
    assert recognize_template(kn_template(2)) == 2
    assert calls == [2]


def test_decide_verdict_is_pure_rule():
    # (group, square-free); a free summand is never square-free
    groups = [
        (AbelianGroup(), True),
        (AbelianGroup((3,)), True),
        (AbelianGroup((7, 7)), True),
        (AbelianGroup((49,)), False),
        (AbelianGroup((2, 12)), False),
        (AbelianGroup((30,)), True),
        (AbelianGroup((), 1), False),
        (AbelianGroup((5,), 2), False),
    ]
    for cert in CERTIFICATES:
        for g, square_free in groups:
            v = ObstructionVerdict(cert, g, {})
            assert v.square_free is square_free
            want = SATISFIES_CCC if cert != ABSENT and square_free else INCONCLUSIVE
            assert v.verdict == want
    with pytest.raises(ValueError):
        ObstructionVerdict("THIN", AbelianGroup(), {})


def test_k14_satisfies():
    v = ccc_verdict(kn_template(14), FORMULA)
    assert v.verdict == SATISFIES_CCC
    assert v.l_space_certificate == FORMULA_THIN
    assert v.h1 == AbelianGroup((7, 7))
    assert v.square_free
    assert v.evidence["template_n"] == 14
    assert v.evidence["determinant_goeritz"] == 49
    assert v.evidence["determinant_alexander"] == 49
    assert not v.evidence["composite_suspected"]


def test_k1_inconclusive():
    v = ccc_verdict(kn_template(1), COMPUTE)
    assert v.verdict == INCONCLUSIVE
    assert v.l_space_certificate == COMPUTED_THIN
    assert v.h1 == AbelianGroup((49,))
    assert not v.square_free
    assert v.evidence["diagonals"] == [-1, 1]
    assert v.evidence["reduced_total_rank"] == 49


def test_unknot_vacuously_satisfies():
    v = ccc_verdict(unknot_zero())
    assert v.verdict == SATISFIES_CCC
    assert v.l_space_certificate == COMPUTED_THIN
    assert v.h1 == AbelianGroup()
    assert v.evidence["determinant_goeritz"] == 1


def test_k0_flagged_composite():
    v = ccc_verdict(kn_template(0), COMPUTE)
    # 7 divides 0, so the verdict stands; compositeness is a flag only
    assert v.verdict == SATISFIES_CCC
    assert v.h1 == AbelianGroup((7, 7))
    assert v.evidence["composite_suspected"]
    assert not ccc_verdict(kn_template(1), FORMULA).evidence["composite_suspected"]
    assert not ccc_verdict(knot_5_2()).evidence["composite_suspected"]


def test_budget_refusal_is_inconclusive_with_reason(monkeypatch):
    sizes = record_complex_sizes(monkeypatch)
    monkeypatch.setattr(khovanov, "KH_BUDGET", 100)
    v = ccc_verdict(kn_template(14), COMPUTE)
    assert v.l_space_certificate == ABSENT
    assert v.verdict == INCONCLUSIVE
    assert v.square_free  # the homology side was fine, only the certificate failed
    assert v.evidence["needed"] > v.evidence["budget"] == 100
    assert "budget" in v.evidence["reason"]
    assert max(sizes) <= 100
    v2 = ccc_verdict(kn_template(1), COMPUTE)
    assert v2.l_space_certificate == ABSENT and v2.verdict == INCONCLUSIVE


def test_precomputed_f2_homology_gives_the_same_verdict(monkeypatch):
    makers = [lambda: kn_template(1), lambda: kn_template(0), lambda: pretzel(-2, 3, 3), unknot_zero]
    fresh = [ccc_verdict(make(), COMPUTE) for make in makers]
    scans = count_calls(monkeypatch, khovanov, "scan_homology")
    for make, v in zip(makers, fresh):
        d = make()
        held = kh_homology(d, F2)
        reused = ccc_verdict(d, COMPUTE)
        assert reused == v and reused.evidence == v.evidence, d.name
        assert kh_homology(d, F2) is held
    assert len(scans) == len(makers)


def test_formula_verdict_builds_the_template_once(monkeypatch):
    builds = count_calls(monkeypatch, obstruction, "kn_template")
    for n in (-7, 0, 3):
        d = kn_template(n)
        builds.clear()
        first = ccc_verdict(d, FORMULA)
        assert builds == [(n,)]
        builds.clear()
        again = ccc_verdict(d, FORMULA)
        assert builds == []
        assert again == first and again.evidence == first.evidence
        assert first.evidence["composite_suspected"] == (n == 0)


def test_disagreeing_determinant_channels_raise(monkeypatch):
    monkeypatch.setattr(obstruction, "determinant_alexander", lambda d: 5)
    with pytest.raises(InvariantError, match="Goeritz 3, Alexander 5"):
        ccc_verdict(trefoil())


def test_wide_knot_reason():
    v = ccc_verdict(pretzel(-2, 3, 3))
    assert v.l_space_certificate == ABSENT
    assert "not thin" in v.evidence["reason"]
    assert v.verdict == INCONCLUSIVE


def test_small_knots():
    v3 = ccc_verdict(trefoil())
    assert v3.verdict == SATISFIES_CCC and v3.h1 == AbelianGroup((3,))
    v4 = ccc_verdict(figure_eight())
    assert v4.verdict == SATISFIES_CCC and v4.h1 == AbelianGroup((5,))
    # 6_1 in pretzel form: thin, but Z/9 is not square-free
    v6 = ccc_verdict(pretzel(3, 1, -3))
    assert v6.l_space_certificate == COMPUTED_THIN
    assert v6.h1 == AbelianGroup((9,))
    assert v6.verdict == INCONCLUSIVE


def test_evidence_channels_agree_corpuswide():
    for d in (trefoil(), figure_eight(), knot_5_2(False), kn_template(2)):
        v = ccc_verdict(d, FORMULA if recognize_template(d) is not None else COMPUTE)
        assert v.evidence["determinant_goeritz"] == v.evidence["determinant_alexander"]
        assert v.h1.order() == v.evidence["determinant_goeritz"]


def test_template_sweep_mod_7():
    for n in range(-28, 29):
        v = ccc_verdict(kn_template(n), FORMULA)
        assert (v.verdict == SATISFIES_CCC) == (n % 7 == 0), n
        want = (7, 7) if n % 7 == 0 else (49,)
        assert v.h1.invariant_factors == want, n


if __name__ == "__main__":
    for n in (-14, -7, -1, 0, 1, 7, 14):
        v = ccc_verdict(kn_template(n), FORMULA)
        print(f"K_{n}: {v.verdict} ({v.l_space_certificate}, H1 = {v.h1})")
