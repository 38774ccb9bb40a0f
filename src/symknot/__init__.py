"""Exact invariants of symmetric union knot diagrams.

Submodules:

- ``algebra``: Laurent polynomials, Smith normal form, bigraded dimensions
- ``diagram``: PD codes, orientation, faces, and diagram surgery
- ``fixtures``: known diagrams and parametric diagram generators
- ``polynomials``: bracket, Jones, Alexander, determinant
- ``goeritz``: the Goeritz matrix and branched double cover homology
- ``khovanov``: bigraded homology over Q and F2
- ``obstruction``: certificate pipeline combining the above
- ``cli``: command line front end
"""

from .algebra import (
    AbelianGroup,
    BigradedDims,
    IntegerMatrix,
    LaurentPolynomial,
)
from .diagram import (
    BudgetError,
    PlanarDiagram,
    SymmetricUnion,
    TangleSite,
    connected_sum,
    fusion_resolution,
    mirror,
    parse_pd,
    reflect,
    resolve_crossing,
    symmetric_union,
    twist_insert,
)
from .goeritz import determinant_goeritz, goeritz_matrix, h1_branched_cover
from .khovanov import (
    F2,
    RATIONAL,
    KhResult,
    ResolutionCube,
    SkeinReport,
    ThinnessReport,
    build_cube,
    closed_formula_kn,
    is_thin,
    kh_homology,
    reduced_f2_dims,
    skein_consistency,
)
from .obstruction import (
    ABSENT,
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
from .polynomials import (
    alexander,
    determinant_alexander,
    jones,
    jones_normalized,
    kauffman_bracket,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "BigradedDims",
    "IntegerMatrix",
    "LaurentPolynomial",
    "BudgetError",
    "PlanarDiagram",
    "SymmetricUnion",
    "TangleSite",
    "connected_sum",
    "fusion_resolution",
    "mirror",
    "parse_pd",
    "reflect",
    "resolve_crossing",
    "symmetric_union",
    "twist_insert",
    "determinant_goeritz",
    "goeritz_matrix",
    "h1_branched_cover",
    "F2",
    "RATIONAL",
    "KhResult",
    "ResolutionCube",
    "SkeinReport",
    "ThinnessReport",
    "build_cube",
    "closed_formula_kn",
    "is_thin",
    "kh_homology",
    "reduced_f2_dims",
    "skein_consistency",
    "ABSENT",
    "COMPUTE",
    "COMPUTED_THIN",
    "FORMULA",
    "FORMULA_THIN",
    "INCONCLUSIVE",
    "SATISFIES_CCC",
    "ObstructionVerdict",
    "ccc_verdict",
    "recognize_template",
    "alexander",
    "determinant_alexander",
    "jones",
    "jones_normalized",
    "kauffman_bracket",
    "__version__",
]
