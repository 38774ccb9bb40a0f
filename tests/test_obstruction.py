import pytest

from symknot import obstruction
from symknot.algebra import AbelianGroup
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
from symknot.khovanov import F2, RATIONAL, kh_homology
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
    decide_verdict,
    l_space_certificate,
    recognize_template,
)


def test_certificate_modes():
    assert l_space_certificate(knot_5_2()) == COMPUTED_THIN
    assert l_space_certificate(unknot_zero()) == COMPUTED_THIN
    assert l_space_certificate(kn_template(14), FORMULA) == FORMULA_THIN
    assert l_space_certificate(kn_template(-7), "FORMULA") == FORMULA_THIN
    # 24 crossings cannot be computed honestly, only cited
    assert l_space_certificate(kn_template(14), COMPUTE) == ABSENT
    with pytest.raises(ValueError):
        l_space_certificate(trefoil(), FORMULA)
    with pytest.raises(ValueError):
        l_space_certificate(knot_5_2(), FORMULA)
    with pytest.raises(ValueError):
        l_space_certificate(knot_5_2(), "guess")
    with pytest.raises(ValueError):
        l_space_certificate(two_unlink())


def test_certificate_absent_for_wide_knot():
    # the (3,4) torus knot is an honest computation that is not thin
    assert l_space_certificate(pretzel(-2, 3, 3)) == ABSENT


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


def test_decide_verdict_is_pure_rule():
    groups = [
        AbelianGroup(),
        AbelianGroup((3,)),
        AbelianGroup((7, 7)),
        AbelianGroup((49,)),
        AbelianGroup((2, 12)),
        AbelianGroup((30,)),
        AbelianGroup((), 1),
        AbelianGroup((5,), 2),
    ]
    for cert in CERTIFICATES:
        for g in groups:
            square_free = g.free_rank == 0 and g.is_square_free_decomposition()
            want = SATISFIES_CCC if cert != ABSENT and square_free else INCONCLUSIVE
            assert decide_verdict(cert, g) == want
    with pytest.raises(ValueError):
        decide_verdict("THIN", AbelianGroup())


def test_verdict_record_enforces_consistency():
    with pytest.raises(ValueError):
        ObstructionVerdict(
            l_space_certificate=ABSENT,
            h1=AbelianGroup((7, 7)),
            square_free=True,
            verdict=SATISFIES_CCC,
            evidence={},
        )
    with pytest.raises(ValueError):
        ObstructionVerdict(
            l_space_certificate=COMPUTED_THIN,
            h1=AbelianGroup((3,)),
            square_free=True,
            verdict=INCONCLUSIVE,
            evidence={},
        )
    with pytest.raises(ValueError):
        ObstructionVerdict(
            l_space_certificate="THIN",
            h1=AbelianGroup(),
            square_free=True,
            verdict=SATISFIES_CCC,
            evidence={},
        )


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
    assert v.h1.is_trivial()
    assert v.evidence["determinant_goeritz"] == 1


def test_k0_flagged_composite():
    v = ccc_verdict(kn_template(0), COMPUTE)
    # 7 divides 0, so the verdict stands; compositeness is a flag only
    assert v.verdict == SATISFIES_CCC
    assert v.h1 == AbelianGroup((7, 7))
    assert v.evidence["composite_suspected"]
    assert not ccc_verdict(kn_template(1), FORMULA).evidence["composite_suspected"]
    assert not ccc_verdict(knot_5_2()).evidence["composite_suspected"]


def test_budget_refusal_is_inconclusive_with_reason():
    v = ccc_verdict(kn_template(14), COMPUTE)
    assert v.l_space_certificate == ABSENT
    assert v.verdict == INCONCLUSIVE
    assert v.square_free  # the homology side was fine, only the certificate failed
    assert v.evidence["needed"] == 24
    assert "budget" in v.evidence["reason"]
    v2 = ccc_verdict(kn_template(1), COMPUTE, budget=5)
    assert v2.l_space_certificate == ABSENT and v2.verdict == INCONCLUSIVE


def test_precomputed_f2_homology_gives_the_same_verdict(monkeypatch):
    cases = [kn_template(1), kn_template(0), pretzel(-2, 3, 3), unknot_zero()]
    fresh = [ccc_verdict(d, COMPUTE) for d in cases]
    held = [kh_homology(d, F2) for d in cases]
    rational = kh_homology(trefoil(), RATIONAL)

    def refuse(*args, **kwargs):
        raise AssertionError("the held F2 homology was computed again")

    monkeypatch.setattr(obstruction, "kh_homology", refuse)
    for d, v, kh in zip(cases, fresh, held):
        reused = ccc_verdict(d, COMPUTE, kh_f2=kh)
        assert reused == v and reused.evidence == v.evidence, d.name
    with pytest.raises(ValueError, match="F2"):
        ccc_verdict(trefoil(), COMPUTE, kh_f2=rational)


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
        want = [7, 7] if n % 7 == 0 else [49]
        assert v.evidence["h1_invariant_factors"] == want, n


if __name__ == "__main__":
    for n in (-14, -7, -1, 0, 1, 7, 14):
        v = ccc_verdict(kn_template(n), FORMULA)
        print(f"K_{n}: {v.verdict} ({v.l_space_certificate}, H1 = {v.h1})")
