"""Cosmetic crossing change obstruction for knots.

A knot admits no cosmetic crossing changes once two facts are in hand:
its branched double cover is a Heegaard Floer L-space, and every cyclic
summand of the cover's first homology has square-free order.  The
L-space side is certified through thinness of Khovanov homology with
F2 coefficients: a computed certificate runs the homology and checks
the two-diagonal support, while a closed-form certificate applies to
the twisted template family, whose thinness holds for every twist count
even when the diagram is too large to process directly.  The homology
test reads the invariant factors off the Goeritz presentation and
cross-checks the group order against two independent determinant
computations.

The verdict is deliberately one-sided.  SATISFIES_CCC means the
obstruction applies; INCONCLUSIVE means this particular sufficient
condition failed, never that a cosmetic crossing change exists.
"""

from dataclasses import dataclass, field

from .algebra import AbelianGroup
from .diagram import BudgetError, PlanarDiagram, SymmetricUnion
from .fixtures import kn_template
from .goeritz import determinant_goeritz, h1_branched_cover
from .khovanov import F2, KhResult, is_thin, kh_homology, reduced_f2_dims
from .polynomials import determinant_alexander

COMPUTED_THIN = "COMPUTED_THIN"
FORMULA_THIN = "FORMULA_THIN"
ABSENT = "ABSENT"
CERTIFICATES = (COMPUTED_THIN, FORMULA_THIN, ABSENT)

SATISFIES_CCC = "SATISFIES_CCC"
INCONCLUSIVE = "INCONCLUSIVE"

COMPUTE = "compute"
FORMULA = "formula"

__all__ = [
    "ABSENT",
    "CERTIFICATES",
    "COMPUTE",
    "COMPUTED_THIN",
    "FORMULA",
    "FORMULA_THIN",
    "INCONCLUSIVE",
    "SATISFIES_CCC",
    "ObstructionVerdict",
    "ccc_verdict",
    "decide_verdict",
    "l_space_certificate",
    "recognize_template",
]


def _mode_tag(mode: str) -> str:
    try:
        tag = mode.lower()
    except AttributeError:
        tag = None
    if tag not in (COMPUTE, FORMULA):
        raise ValueError(f"unknown certificate mode: {mode!r}")
    return tag


def _require_knot(d: PlanarDiagram) -> None:
    if d.n_components() != 1:
        raise ValueError(f"obstruction applies to knots, got {d.n_components()} components")


def recognize_template(d: PlanarDiagram) -> int | None:
    """The twist count n if ``d`` is literally the n-twisted template, else None.

    Recognition is exact: the diagram must carry its twist-site metadata
    and reproduce the template generator's PD code crossing for crossing.
    """
    if not isinstance(d, SymmetricUnion) or d.site is None:
        return None
    n = d.n
    expected = kn_template(n)
    if list(d.crossings) == list(expected.crossings) and d.loops == expected.loops:
        return n
    return None


def _certificate(d: PlanarDiagram, mode: str, kh_f2: KhResult | None = None) -> tuple[str, dict]:
    tag = _mode_tag(mode)
    _require_knot(d)
    if tag == FORMULA:
        n = recognize_template(d)
        if n is None:
            raise ValueError(
                "closed-form certificate only covers recognized twisted templates"
            )
        return FORMULA_THIN, {"certificate_basis": "template family closed form", "template_n": n}
    if kh_f2 is None:
        try:
            kh_f2 = kh_homology(d, F2)
        except BudgetError as err:
            return ABSENT, {
                "certificate_basis": "computation refused",
                "reason": str(err),
                "needed": err.needed,
                "budget": err.budget,
            }
    elif kh_f2.field != F2:
        raise ValueError(f"the certificate needs F2 homology, got {kh_f2.field}")
    reduced = reduced_f2_dims(kh_f2)
    report = is_thin(kh_f2)
    details = {
        "certificate_basis": "computed F2 homology",
        "kh_field": F2,
        "diagonals": list(report.diagonals),
        "reduced_total_rank": reduced.total_rank(),
    }
    if report:
        return COMPUTED_THIN, details
    details["reason"] = f"homology is not thin: diagonals {report.diagonals}"
    return ABSENT, details


def l_space_certificate(d: PlanarDiagram, mode: str = COMPUTE) -> str:
    """Certify that the branched double cover is an L-space.

    COMPUTE mode runs F2 Khovanov homology, the reduced-peeling
    consistency check, and the two-diagonal thinness test.  FORMULA mode
    accepts only diagrams recognized as the twisted template family and
    certifies without computing; the two outcomes stay distinguishable
    so consumers can filter on provenance.  A refused or failed
    computation yields ABSENT, never an exception.
    """
    cert, _ = _certificate(d, mode)
    return cert


def decide_verdict(certificate: str, h1: AbelianGroup) -> str:
    """Pure verdict rule: certified L-space cover + square-free summands.

    A free summand counts as non-square-free (its order is not even
    finite); knots never produce one, but synthetic inputs may.
    """
    if certificate not in CERTIFICATES:
        raise ValueError(f"unknown certificate: {certificate!r}")
    square_free = h1.free_rank == 0 and h1.is_square_free_decomposition()
    if certificate != ABSENT and square_free:
        return SATISFIES_CCC
    return INCONCLUSIVE


@dataclass(frozen=True, slots=True)
class ObstructionVerdict:
    """Outcome of the obstruction with the evidence that produced it."""

    l_space_certificate: str
    h1: AbelianGroup
    square_free: bool
    verdict: str
    evidence: dict = field(compare=False)

    def __post_init__(self) -> None:
        if self.l_space_certificate not in CERTIFICATES:
            raise ValueError(f"unknown certificate: {self.l_space_certificate!r}")
        if self.verdict not in (SATISFIES_CCC, INCONCLUSIVE):
            raise ValueError(f"unknown verdict: {self.verdict!r}")
        expected = self.l_space_certificate != ABSENT and self.square_free
        if (self.verdict == SATISFIES_CCC) != expected:
            raise ValueError("verdict contradicts certificate and square-free flag")


def ccc_verdict(
    d: PlanarDiagram,
    mode: str = COMPUTE,
    *,
    kh_f2: KhResult | None = None,
) -> ObstructionVerdict:
    """Run the full obstruction on one knot diagram.

    Evidence always carries the homology invariant factors and two
    independent determinant computations (Goeritz minor and Alexander
    polynomial at -1); those must agree with each other and with the
    group order, otherwise something upstream is broken and we raise.
    Certificate refusals (budget, non-thin homology) surface as an
    ABSENT certificate and an INCONCLUSIVE verdict with the reason in
    the evidence, not as exceptions.  A caller that already holds the F2
    homology of ``d`` passes it as ``kh_f2``; COMPUTE mode then reuses it
    instead of running the scan again.
    """
    cert, details = _certificate(d, mode, kh_f2)
    h1 = h1_branched_cover(d)
    det_g = determinant_goeritz(d)
    det_a = determinant_alexander(d)
    if det_g != det_a:
        raise ArithmeticError(
            f"determinant channels disagree: Goeritz {det_g}, Alexander {det_a}"
        )
    if h1.free_rank == 0 and h1.order() != det_g:
        raise ArithmeticError(
            f"homology order {h1.order()} does not match determinant {det_g}"
        )
    square_free = h1.free_rank == 0 and h1.is_square_free_decomposition()
    evidence = {
        "mode": _mode_tag(mode),
        "h1_invariant_factors": list(h1.invariant_factors),
        "h1_free_rank": h1.free_rank,
        "determinant_goeritz": det_g,
        "determinant_alexander": det_a,
        "determinants_agree": True,
        "composite_suspected": recognize_template(d) == 0,
        **details,
    }
    return ObstructionVerdict(
        l_space_certificate=cert,
        h1=h1,
        square_free=square_free,
        verdict=decide_verdict(cert, h1),
        evidence=evidence,
    )
