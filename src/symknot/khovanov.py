"""Khovanov homology over Q and F2.

Gradings: a cube vertex v in {0,1}^c (bit i set means crossing i takes the
(0,3),(1,2) smoothing) sits in homological grading u = |v| - n_minus.  A
generator labels every circle of the smoothed diagram with 1 (degree +1)
or x (degree -1); its quantum grading is

    q = (#1 - #x) + |v| + n_plus - 2 n_minus

so the graded Euler characteristic is the unnormalized Jones polynomial
(q + q^-1 on the unknot).  The all-positive 5_2 fixture reproduces its
published table with these shifts; that equality is the calibration test
for every sign convention in this module.

``kh_homology`` computes with Bar-Natan's scanning engine
(``symknot.bar_natan``): crossings are added one at a time, closed circles
are delooped and identity entries cancelled after each one, so the complex
stays a few hundred objects wide instead of growing with the 2^c vertices
of the cube.  Its one budget, ``KH_BUDGET``, bounds that object count: the
scan refuses a crossing that would build more objects, before building
them.

One integral scan serves both fields.  It cancels only entries +-1, so
the small complex it leaves is homotopy equivalent to the Khovanov complex
over Z; the Smith form of each of its (q, r) -> (q, r + 1) blocks gives
the free ranks (the table over Q), the invariant factors above 1 (the
torsion) and the ranks mod 2, hence the table over F2 by universal
coefficients.  The F2 result reads that scan when the diagram already
holds it; asked for first or alone, F2 runs its own scan mod 2, which is
faster: there an even entry vanishes and an odd one cancels, where over Z
both stay.  Either way one diagram's F2 result is computed once.

``closed_formula_kn`` reads the table of every K_n off V(K_0) and V(K_1),
through the Jones skein recurrence and the shape of a thin knot with s = 0.

The cube of resolutions itself stays in this module, outside the
package's top-level namespace, as an inspection hook: ``build_cube`` and
``slice_complex`` give the generators and raw differentials of one
q-slice.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from dataclasses import dataclass
from itertools import combinations

from .algebra import BigradedDims, IntegerMatrix, LaurentPolynomial, smith_normal_form
from .bar_natan import ScanStats, scan_homology
from .diagram import BudgetError, InvariantError, PlanarDiagram, find, memoized, resolve_crossing
from .fixtures import kn_template
from .polynomials import jones

__all__ = [
    "RATIONAL",
    "F2",
    "CUBE_BUDGET",
    "InvariantError",
    "KH_BUDGET",
    "ResolutionCube",
    "KhResult",
    "ThinnessReport",
    "SkeinReport",
    "build_cube",
    "kh_homology",
    "is_thin",
    "closed_formula_kn",
    "reduced_f2_dims",
    "skein_consistency",
    "slice_complex",
]

RATIONAL = "Q"
F2 = "F2"

CUBE_BUDGET = 20
# objects of the scan's complex: K_n peaks at 414 for |n| <= 100, the closure
# of (s1 s2^-1)^10 at 90,750 (about 115 MB); (s1 s2^-1)^12 is refused
KH_BUDGET = 100_000


def _field_tag(field: str) -> str:
    """``RATIONAL`` or ``F2``, whichever ``field`` names in either letter case."""
    tag = str(field).upper()
    if tag not in (RATIONAL, F2):
        raise ValueError(f"unsupported coefficient field: {field!r}")
    return tag


class ResolutionCube:
    """All 2^c smoothings of a diagram with their circles.

    ``circle_of[v]`` maps edge index (sorted arc labels) to a circle id,
    ids ordered by each circle's smallest edge.  Crossing-free loops of the
    diagram count as extra circles with ids after the edge circles; they sit
    in every vertex and never take part in a merge or split.
    """

    def __init__(self, diagram: PlanarDiagram, budget: int = CUBE_BUDGET):
        c = diagram.n_crossings
        if c > budget:
            raise BudgetError(
                f"cube needs {c} crossings, budget is {budget}",
                needed=c,
                budget=budget,
            )
        self.n = c
        self.loops = diagram.loops
        edge_ids = {a: k for k, a in enumerate(diagram.arcs)}
        self.n_edges = len(edge_ids)
        self.slots = tuple(
            tuple(edge_ids[a] for a in x) for x in diagram.crossings
        )
        circle_of: list[tuple[int, ...]] = []
        reps: list[tuple[int, ...]] = []
        n_circles: list[int] = []
        n_edges = self.n_edges
        for v in range(1 << c):
            parent = list(range(n_edges))
            for i, (e0, e1, e2, e3) in enumerate(self.slots):
                if v >> i & 1:
                    pairs = ((e0, e3), (e1, e2))
                else:
                    pairs = ((e0, e1), (e2, e3))
                for a, b in pairs:
                    parent[find(parent, a)] = find(parent, b)
            ids: dict[int, int] = {}
            rep: list[int] = []
            cof = []
            for e in range(n_edges):
                r = find(parent, e)
                j = ids.get(r)
                if j is None:
                    j = ids[r] = len(rep)
                    rep.append(e)
                cof.append(j)
            circle_of.append(tuple(cof))
            reps.append(tuple(rep))
            n_circles.append(len(rep) + self.loops)
        self.circle_of = tuple(circle_of)
        self.reps = tuple(reps)
        self.n_circles = tuple(n_circles)
        self._ecache: dict[tuple[int, int], tuple] = {}

    @property
    def n_vertices(self) -> int:
        return 1 << self.n

    def circle_count(self, v: int) -> int:
        return self.n_circles[v]

    def _edge(self, v: int, i: int):
        """Cached record for the cube edge v -> v | 1<<i (bit i must be 0).

        Returns (v2, is_split, A, B, C, trans): for a merge A,B are the two
        source circles and C the joint target; for a split A is the source
        and B,C the two targets.  ``trans[j2]`` is the source circle that a
        target circle j2 keeps its label from, -1 at the circles above.
        """
        key = (v, i)
        rec = self._ecache.get(key)
        if rec is not None:
            return rec
        v2 = v | 1 << i
        cv = self.circle_of[v]
        cv2 = self.circle_of[v2]
        e0, _, e2, _ = self.slots[i]
        ke = len(self.reps[v])
        ke2 = len(self.reps[v2])
        reps2 = self.reps[v2]
        a, b = cv[e0], cv[e2]
        k2 = self.n_circles[v2]
        if a != b:
            is_split = 0
            m = cv2[e0]
            if m != cv2[e2] or ke2 != ke - 1:
                raise InvariantError(f"cube edge ({v}, {i}) is not a merge of two circles")
            special = (m,)
            A, B, C = a, b, m
        else:
            is_split = 1
            s, t = cv2[e0], cv2[e2]
            if s == t or ke2 != ke + 1:
                raise InvariantError(f"cube edge ({v}, {i}) is not a split into two circles")
            special = (s, t)
            A, B, C = a, s, t
        trans = tuple(
            -1
            if j2 in special
            else (cv[reps2[j2]] if j2 < ke2 else ke + (j2 - ke2))
            for j2 in range(k2)
        )
        rec = (v2, is_split, A, B, C, trans)
        self._ecache[key] = rec
        return rec


def build_cube(d: PlanarDiagram, budget: int = CUBE_BUDGET) -> ResolutionCube:
    """Smooth every crossing in all 2^c ways; refuse above ``budget``."""
    return ResolutionCube(d, budget=budget)


# -- one quantum slice of the cube (inspection hook) ---------------------------


def _slice_levels(cube: ResolutionCube, q: int, shift_base: int):
    """Generators of the q-slice, grouped by raw cube level r = |v|.

    A generator is (vertex, xmask) with bit j of xmask set when circle j
    carries the degree -1 label.  Enumeration order (vertex ascending,
    then combinations) is fixed so runs are reproducible.
    """
    levels: dict[int, list[tuple[int, int]]] = {}
    index: dict[int, dict[tuple[int, int], int]] = {}
    for v in range(cube.n_vertices):
        r = v.bit_count()
        k = cube.n_circles[v]
        double_m = k - (q - r - shift_base)
        if double_m < 0 or double_m > 2 * k or double_m % 2:
            continue
        m = double_m // 2
        gens = levels.setdefault(r, [])
        idx = index.setdefault(r, {})
        for comb in combinations(range(k), m):
            mask = 0
            for j in comb:
                mask |= 1 << j
            idx[(v, mask)] = len(gens)
            gens.append((v, mask))
    return levels, index


def _slice_matrices(cube, levels, index, char2: bool):
    """Sparse differentials per level: mats[r][col] = {row: coefficient}."""
    mats: dict[int, dict[int, dict[int, int]]] = {}
    for r, gens in levels.items():
        tgt = index.get(r + 1, {})
        cols: dict[int, dict[int, int]] = {}
        for col, (v, xmask) in enumerate(gens):
            rows: dict[int, int] = {}
            for i in range(cube.n):
                if v >> i & 1:
                    continue
                sign = -1 if (v & ((1 << i) - 1)).bit_count() & 1 else 1
                v2, is_split, A, B, C, trans = cube._edge(v, i)
                base = 0
                for j2, j1 in enumerate(trans):
                    if j1 >= 0 and xmask >> j1 & 1:
                        base |= 1 << j2
                if is_split:
                    if xmask >> A & 1:
                        targets = (base | 1 << B | 1 << C,)
                    else:
                        targets = (base | 1 << B, base | 1 << C)
                else:
                    ax = xmask >> A & 1
                    if ax and xmask >> B & 1:
                        continue
                    targets = (base | 1 << C if ax or xmask >> B & 1 else base,)
                for mask2 in targets:
                    rows[tgt[(v2, mask2)]] = sign
            if char2:
                rows = {w: 1 for w, cf in rows.items() if cf % 2}
            if rows:
                cols[col] = rows
        if cols:
            mats[r] = cols
    return mats


# -- results and operations ----------------------------------------------


@dataclass(frozen=True, slots=True)
class KhResult:
    """Bigraded homology dimensions over one field.

    ``stats`` holds the exact size counters of the scan that computed the
    result, and is None for an F2 result read off the integral scan; it
    takes no part in equality, so two results compare by their tables alone.
    """

    field: str
    dims: BigradedDims
    stats: ScanStats | None = dataclasses.field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.field not in (RATIONAL, F2):
            raise ValueError(f"unsupported coefficient field: {self.field!r}")


def kh_homology(d: PlanarDiagram, field: str = RATIONAL) -> KhResult:
    """Bigraded Khovanov homology of ``d`` over Q or F2 by Bar-Natan scanning.

    ``field`` is "Q" or "F2" in either letter case, and each field's result
    is computed once per diagram whichever case names it; any other name
    raises ``ValueError``.  Q reads the diagram's integral scan; F2 reads it
    too when the diagram holds it, and otherwise scans mod 2.
    Raises ``BudgetError`` when the scan would hold more than ``KH_BUDGET``
    objects.
    """
    if _field_tag(field) == RATIONAL:
        return _kh_integral(d).rational
    return _kh_f2(d)


def _scan(d: PlanarDiagram, char2: bool):
    return scan_homology(d.crossings, d.crossing_order(), d.loops, char2, KH_BUDGET)


def _shifted(d: PlanarDiagram, raw: dict) -> dict:
    """``raw`` keyed by (q, u), the scan's (q, r) with the global shifts added."""
    n_minus = d.n_minus
    shift = d.n_plus - 2 * n_minus
    out = {(q + shift, r - n_minus): v for (q, r), v in raw.items()}
    parity = d.n_components() % 2
    if any(q % 2 != parity for (q, _) in out):
        raise InvariantError(f"quantum gradings of {d.name or 'the diagram'} break parity {parity}")
    return out


def _composes_to_zero(first: IntegerMatrix, then: IntegerMatrix) -> bool:
    later = then.to_lists()
    return not any(
        sum(a * later[j][k] for j, a in enumerate(row) if a)
        for row in first.to_lists()
        for k in range(then.cols)
    )


def _over_z(counts: dict, blocks: dict) -> tuple[dict, dict, dict]:
    """Free ranks, ranks mod 2 and torsion per (q, r) of a scan's leftover complex.

    ``counts`` and ``blocks`` are the first two values of ``scan_homology``.
    The nonzero invariant factors of a block give its rank over Q, the odd
    ones its rank over F2, and those above 1 the torsion of the group at
    the block's target.
    """
    for (q, r), block in blocks.items():
        then = blocks.get((q, r + 1))
        if then is not None and not _composes_to_zero(block, then):
            raise InvariantError(f"the blocks out of {(q, r)} and {(q, r + 1)} do not compose to zero")
    factors = {key: [f for f in smith_normal_form(block) if f] for key, block in blocks.items()}
    free, mod2, torsion = {}, {}, {}
    for (q, r), n in counts.items():
        out, into = factors.get((q, r), ()), factors.get((q, r - 1), ())
        free[(q, r)] = n - len(out) - len(into)
        mod2[(q, r)] = n - sum(f & 1 for f in out) - sum(f & 1 for f in into)
        if any(f > 1 for f in into):
            torsion[(q, r)] = tuple(f for f in into if f > 1)
    return free, mod2, torsion


@dataclass(frozen=True, slots=True)
class _Integral:
    """Khovanov homology over Z: both fields' results and the torsion per (q, u)."""

    rational: KhResult
    f2: KhResult
    torsion: dict[tuple[int, int], tuple[int, ...]]


@memoized
def _kh_integral(d: PlanarDiagram) -> _Integral:
    counts, blocks, stats = _scan(d, False)
    free, mod2, torsion = _over_z(counts, blocks)
    return _Integral(
        rational=KhResult(field=RATIONAL, dims=BigradedDims(_shifted(d, free)), stats=stats),
        f2=KhResult(field=F2, dims=BigradedDims(_shifted(d, mod2))),
        torsion=_shifted(d, torsion),
    )


@memoized
def _kh_f2(d: PlanarDiagram) -> KhResult:
    integral = _kh_integral.held(d)
    if integral is not None:
        return integral.f2
    counts, _, stats = _scan(d, True)
    return KhResult(field=F2, dims=BigradedDims(_shifted(d, counts)), stats=stats)


def slice_complex(d: PlanarDiagram, q: int, field: str = RATIONAL):
    """Generators and raw differentials of one q-slice, keyed by u.

    Inspection hook: returns (gens, mats) where gens[u] lists (vertex,
    xmask) pairs and mats[u][col] = {row: coefficient} maps level u to
    u + 1.  Used by the d-squared spot checks.
    """
    tag = _field_tag(field)
    cube = build_cube(d)
    n_minus = d.n_minus
    levels, index = _slice_levels(cube, q, d.n_plus - 2 * n_minus)
    mats = _slice_matrices(cube, levels, index, tag == F2)
    gens = {r - n_minus: list(g) for r, g in levels.items()}
    diffs = {r - n_minus: cols for r, cols in mats.items()}
    return gens, diffs


@dataclass(frozen=True, slots=True)
class ThinnessReport:
    thin: bool
    diagonals: tuple[int, ...]

    def __bool__(self) -> bool:
        return self.thin


def is_thin(result: KhResult) -> ThinnessReport:
    """Support on exactly two adjacent diagonals delta = q - 2u."""
    ds = tuple(result.dims.diagonals())
    thin = len(ds) == 2 and ds[1] - ds[0] == 2
    return ThinnessReport(thin=thin, diagonals=ds)


def closed_formula_kn(n: int) -> BigradedDims:
    """Khovanov homology over Q of the twisted family K_n, any integer n.

    For n = 2k + r, r in {0, 1}, the Jones skein relation at a twist
    crossing gives V(K_n) = (q + q^-1) + q^(4k) (V(K_r) - (q + q^-1)).  K_n
    is thin with s = 0 (it is ribbon), so its table is the Lee pair at
    (+-1, 0) plus a knight's-move pair (e, u), (e + 4, u + 1), u = (e + 1)/2,
    of rank (-1)^u a for each term a q^e of (V(K_n) - (q + q^-1)) / (1 - q^4).
    Raises ``InvariantError`` if that division is inexact or a rank is not positive.
    """
    k, r = divmod(n, 2)
    unknot = LaurentPolynomial({-1: 1, 1: 1})
    twisted = (jones(kn_template(r)) - unknot).shift(4 * k)
    try:
        pairs = twisted.exact_div(LaurentPolynomial({0: 1, 4: -1}))
    except ValueError as err:
        raise InvariantError(f"V(K_{n}) - (q + q^-1) is not divisible by 1 - q^4") from err
    dims = {(-1, 0): 1, (1, 0): 1}
    for e, a in pairs:
        u = (e + 1) // 2
        rank = -a if u % 2 else a
        if e % 2 == 0 or rank <= 0:
            raise InvariantError(f"K_{n} has no knight's-move pair of rank {rank} at q = {e}")
        for key in ((e, u), (e + 4, u + 1)):
            dims[key] = dims.get(key, 0) + rank
    return BigradedDims(dims)


def reduced_f2_dims(result: KhResult) -> BigradedDims:
    """Reduced dimensions solving unreduced(q, u) = red(q-1, u) + red(q+1, u).

    Peels from the top quantum grading downward.  A negative intermediate
    value or a failed reconstruction means the input cannot come from a
    genuine F2 computation, and raises ValueError.
    """
    if result.field != F2:
        raise ValueError("reduced peeling needs an F2 result")
    table = result.dims.dims
    if not table:
        return BigradedDims({})
    if len({q % 2 for (q, _) in table}) > 1:
        raise ValueError("mixed quantum parity in the unreduced table")
    q_top = max(q for (q, _) in table)
    q_bot = min(q for (q, _) in table)
    us = sorted({u for (_, u) in table})
    red: dict[tuple[int, int], int] = {}
    for q in range(q_top, q_bot - 1, -2):
        for u in us:
            want = table.get((q, u), 0) - red.get((q + 1, u), 0)
            if want < 0:
                raise ValueError(f"no nonnegative solution at {(q, u)}")
            if want:
                red[(q - 1, u)] = want
    for q in range(q_bot - 2, q_top + 3, 2):
        for u in us:
            back = red.get((q - 1, u), 0) + red.get((q + 1, u), 0)
            if back != table.get((q, u), 0):
                raise ValueError(f"peeling does not reconstruct {(q, u)}")
    return BigradedDims(red)


@dataclass(frozen=True, slots=True)
class SkeinReport:
    """Both checks of the unoriented skein triangle at one crossing."""

    crossing: int
    sign: int
    epsilon: int
    shift_unoriented: tuple[int, int]
    shift_oriented: tuple[int, int]
    original: KhResult
    unoriented: KhResult
    oriented: KhResult
    rank_inequality_ok: bool
    euler_additive: bool


def skein_consistency(
    d: PlanarDiagram,
    crossing: int,
    field: str = RATIONAL,
    *,
    homology: Callable[[PlanarDiagram, str], KhResult] | None = None,
) -> SkeinReport:
    """Check the skein triangle relating ``d`` and its two resolutions.

    The middle homology is bounded per bigrading by the two shifted
    resolutions, and the three graded Euler characteristics add exactly.
    The unoriented resolution is shifted by (2 + 3e, 1 + e) at a positive
    crossing and (1 + 3e, e) at a negative one, where e is the change in
    negative crossing count; the oriented one by (sign, 0).  The three
    groups come from ``homology(diagram, field)``, by default
    :func:`kh_homology`; a caller that keeps its own results, as
    ``verify-paper`` does, passes its lookup instead.
    """
    homology = homology or kh_homology
    sign = d.signs()[crossing]
    unoriented = resolve_crossing(d, crossing, 1 if sign > 0 else 0)
    oriented = resolve_crossing(d, crossing, 0 if sign > 0 else 1)
    eps = unoriented.n_minus - d.n_minus
    if sign > 0:
        shift_a, shift_b = (2 + 3 * eps, 1 + eps), (1, 0)
    else:
        shift_a, shift_b = (1 + 3 * eps, eps), (-1, 0)
    kh_d = homology(d, field)
    kh_a = homology(unoriented, field)
    kh_b = homology(oriented, field)
    shifted_a = kh_a.dims.shift(*shift_a)
    shifted_b = kh_b.dims.shift(*shift_b)
    rank_ok = all(
        rank <= shifted_a[key] + shifted_b[key] for key, rank in kh_d.dims
    )
    euler_ok = (
        kh_d.dims.euler_poly()
        == shifted_a.euler_poly() + shifted_b.euler_poly()
    )
    return SkeinReport(
        crossing=crossing,
        sign=sign,
        epsilon=eps,
        shift_unoriented=shift_a,
        shift_oriented=shift_b,
        original=kh_d,
        unoriented=kh_a,
        oriented=kh_b,
        rank_inequality_ok=rank_ok,
        euler_additive=euler_ok,
    )
