"""Cosmetic crossing change obstruction for knots.

A knot admits no cosmetic crossing changes once two facts are in hand:
its branched double cover is a Heegaard Floer L-space, and every cyclic
summand of the cover's first homology has square-free order.  The
L-space side is certified through thinness of Khovanov homology with
F2 coefficients: a computed certificate runs the homology, checks the
two-diagonal support and that the reduced rank is the determinant, while
a closed-form certificate applies to the twisted template family, whose
thinness holds for every twist count even when the diagram is too large
to process directly.  The homology test reads the invariant factors off
the Goeritz presentation, whose group order is the Goeritz determinant,
and cross-checks that order against the Alexander determinant
|Delta(-1)|.

``ObstructionVerdict`` holds the certificate, H1 and the evidence; its
square-free flag and verdict are properties derived from the first two,
the one place the rule is written down.  The verdict is deliberately
one-sided.  SATISFIES_CCC means the obstruction applies; INCONCLUSIVE
means this particular sufficient condition failed, never that a
cosmetic crossing change exists.
"""

from dataclasses import dataclass, field

from .algebra import AbelianGroup
from .diagram import BudgetError, InvariantError, PlanarDiagram, SymmetricUnion, memoized
from .fixtures import kn_template
from .goeritz import determinant_goeritz, h1_branched_cover
from .khovanov import F2, is_thin, kh_homology, reduced_f2_dims
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
    "recognize_template",
]


def _mode_tag(mode: str) -> str:
    """The module constant for ``mode``, in any letter case."""
    for tag in (COMPUTE, FORMULA):
        if isinstance(mode, str) and mode.lower() == tag:
            return tag
    raise ValueError(f"unknown certificate mode: {mode!r}")


@memoized
def recognize_template(d: PlanarDiagram) -> int | None:
    """The twist count n if ``d`` is literally the n-twisted template, else None.

    Recognition is exact: the diagram must carry its twist-site metadata
    and reproduce the template generator's PD code crossing for crossing.
    The answer is memoised on ``d``, so the template is built once, and only
    for a knot diagram of the template's 10 + |n| crossings.
    """
    if not isinstance(d, SymmetricUnion) or d.site is None:
        return None
    n = d.n
    if len(d.crossings) != 10 + abs(n) or d.loops:
        return None
    return n if d.crossings == kn_template(n).crossings else None


def _certificate(d: PlanarDiagram, mode: str) -> tuple[str, dict]:
    tag = _mode_tag(mode)
    if d.n_components() != 1:
        raise ValueError(f"obstruction applies to knots, got {d.n_components()} components")
    if tag == FORMULA:
        n = recognize_template(d)
        if n is None:
            raise ValueError(
                "closed-form certificate only covers recognized twisted templates"
            )
        return FORMULA_THIN, {"certificate_basis": "template family closed form", "template_n": n}
    try:
        kh = kh_homology(d, F2)
    except BudgetError as err:
        return ABSENT, {
            "certificate_basis": "computation refused",
            "reason": str(err),
            "needed": err.needed,
            "budget": err.budget,
        }
    rank = reduced_f2_dims(kh).total_rank()
    report = is_thin(kh)
    details = {
        "certificate_basis": "computed F2 homology",
        "kh_field": F2,
        "diagonals": list(report.diagonals),
        "reduced_total_rank": rank,
    }
    if report:
        det = determinant_goeritz(d)
        if rank != det:
            raise InvariantError(f"thin F2 homology of reduced rank {rank} misses det {det}")
        return COMPUTED_THIN, details
    details["reason"] = f"homology is not thin: diagonals {report.diagonals}"
    return ABSENT, details


@dataclass(frozen=True, slots=True)
class ObstructionVerdict:
    """Outcome of the obstruction with the evidence that produced it.

    ``evidence`` holds what ``h1`` does not: the mode, the determinant of
    each channel, whether ``d`` is the composite K_0, and the certificate's
    basis, with the reason when it is absent.
    """

    l_space_certificate: str
    h1: AbelianGroup
    evidence: dict = field(compare=False)

    def __post_init__(self) -> None:
        if self.l_space_certificate not in CERTIFICATES:
            raise ValueError(f"unknown certificate: {self.l_space_certificate!r}")

    @property
    def square_free(self) -> bool:
        """Every summand of H1 has square-free order.

        A free summand counts as non-square-free (its order is not even
        finite); knots never produce one, but synthetic inputs may.
        """
        return self.h1.free_rank == 0 and self.h1.is_square_free_decomposition()

    @property
    def verdict(self) -> str:
        """SATISFIES_CCC for a certified L-space cover with square-free H1."""
        if self.l_space_certificate != ABSENT and self.square_free:
            return SATISFIES_CCC
        return INCONCLUSIVE


def ccc_verdict(d: PlanarDiagram, mode: str = COMPUTE) -> ObstructionVerdict:
    """Run the full obstruction on one knot diagram.

    COMPUTE mode certifies the L-space cover when F2 Khovanov homology is
    thin (COMPUTED_THIN); FORMULA mode accepts only recognized twisted
    templates and certifies them without computing (FORMULA_THIN).
    The verdict holds H1, and its evidence the determinant from two
    independent channels (the order of H1 from the Goeritz form, and the
    Alexander polynomial at -1); those must agree, otherwise something
    upstream is broken and we raise InvariantError, so no verdict exists
    for a diagram whose channels disagree, nor for one whose computed thin
    F2 table has a reduced rank other than that determinant (thinness
    implies it).
    Certificate refusals (budget, non-thin homology) surface as an ABSENT
    certificate and an INCONCLUSIVE verdict with the reason in the
    evidence, not as exceptions.  Each stage is
    memoised on ``d``, so stages a caller already ran are not rerun.
    """
    cert, details = _certificate(d, mode)
    h1 = h1_branched_cover(d)
    det_g = determinant_goeritz(d)
    det_a = determinant_alexander(d)
    if det_g != det_a:
        raise InvariantError(
            f"determinant channels disagree: Goeritz {det_g}, Alexander {det_a}"
        )
    evidence = {
        "mode": _mode_tag(mode),
        "determinant_goeritz": det_g,
        "determinant_alexander": det_a,
        # tested first so that no member but K_0 builds a second template
        "composite_suspected": isinstance(d, SymmetricUnion) and d.n == 0
        and recognize_template(d) == 0,
        **details,
    }
    return ObstructionVerdict(l_space_certificate=cert, h1=h1, evidence=evidence)
