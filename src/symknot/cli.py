"""Command line front end.

Subcommands:

- ``invariants``: full report for one diagram (determinants, homology of
  the branched double cover, Alexander, both Jones normalizations,
  Khovanov tables per field, thinness, obstruction verdict)
- ``symun``: emit the PD code of the n-twisted symmetric union template
- ``kh``: Khovanov homology of one diagram over one field
- ``h1``: first homology of the branched double cover
- ``verify-paper``: run the frozen ground-truth suite and report
  pass/fail per case

Exit codes: 0 success, 1 cross-check or verification failure, 2 parse
or usage error, 3 budget exceeded (with a partial report): a Khovanov
scan would hold more than ``khovanov.KH_BUDGET`` objects, or the bracket
scan would open more than ``polynomials.BRACKET_BUDGET`` ends.
Reports are JSON with sorted keys, so byte-identical round trips need
nothing beyond ``json.dumps(..., indent=2, sort_keys=True)``; timing
fields are the only values that vary between runs.  ``kh`` and
``invariants`` also carry a ``stats`` block beside ``timings``: the exact
size counters of each Khovanov scan, keyed like its timing.
"""

import argparse
import dataclasses
import json
import random
import sys
import time

from .algebra import IntegerMatrix, LaurentPolynomial, smith_normal_form
from .diagram import BudgetError, PdError, PlanarDiagram, mirror, parse_pd
from .fixtures import (
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
from .goeritz import determinant_goeritz, h1_branched_cover
from .khovanov import (
    F2,
    RATIONAL,
    closed_formula_kn,
    is_thin,
    kh_homology,
    reduced_f2_dims,
    skein_consistency,
)
from .obstruction import COMPUTE, COMPUTED_THIN, INCONCLUSIVE, SATISFIES_CCC, ccc_verdict
from .polynomials import alexander, determinant_alexander, jones, jones_normalized

SCHEMA = "symknot-report/3"
DEFAULT_SEED = 8253

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3

FIXTURES = {
    "unknot": unknot_zero,
    "trefoil": lambda: trefoil(True),
    "trefoil_mirror": lambda: trefoil(False),
    "figure_eight": figure_eight,
    "4_1": figure_eight,
    "5_2": lambda: knot_5_2(True),
    "5_2_mirror": lambda: knot_5_2(False),
    "10_22": knot_10_22,
    "pretzel_3_1_-3": lambda: pretzel(3, 1, -3),
}

TEMPLATES = {"5_2": kn_template}

_FIELD_FLAG = {"q": RATIONAL, "f2": F2}


# -- shared plumbing -------------------------------------------------------


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pd", help="inline PD code, e.g. 'X[1,4,2,3] X[3,2,4,1]'")
    p.add_argument("--knot", choices=sorted(FIXTURES), help="named fixture diagram")
    p.add_argument(
        "--symun",
        choices=sorted(TEMPLATES),
        help="symmetric union template of this partial knot (needs --n)",
    )
    p.add_argument("--n", type=int, help="half-twist count for --symun")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", metavar="OUT", help="write the JSON report to this file")


def _resolve_diagram(parser: argparse.ArgumentParser, args) -> PlanarDiagram:
    picked = [s for s in ("pd", "knot", "symun") if getattr(args, s) is not None]
    if len(picked) != 1:
        parser.error("pick exactly one input: --pd, --knot, or --symun")
    if args.symun is not None:
        if args.n is None:
            parser.error("--symun needs --n")
        return TEMPLATES[args.symun](args.n)
    if args.n is not None:
        parser.error("--n needs --symun")
    if args.knot is not None:
        return FIXTURES[args.knot]()
    try:
        return parse_pd(args.pd, name="inline")
    except PdError as err:
        parser.error(f"bad PD code: {err}")


def _emit(report: dict, args) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.json and args.json != "-":
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _kh_section(result, reduced=None) -> dict:
    report = is_thin(result)
    out = {
        "poincare": result.dims.poincare(),
        "table": [[q, u, rank] for (q, u), rank in result.dims],
        "total_rank": result.dims.total_rank(),
        "thin": report.thin,
        "diagonals": list(report.diagonals),
    }
    if reduced is not None:
        out["reduced_table"] = [[q, u, rank] for (q, u), rank in reduced]
        out["reduced_total_rank"] = reduced.total_rank()
    return out


class _Timer:
    """Seconds per stage, plus the size counters of each Khovanov stage."""

    def __init__(self):
        self.timings: dict[str, float] = {}
        self.stats: dict[str, dict[str, int]] = {}

    def run(self, stage: str, fn):
        t0 = time.perf_counter()
        out = fn()
        self.timings[stage] = time.perf_counter() - t0
        return out

    def homology(self, stage: str, fn):
        result = self.run(stage, fn)
        self.stats[stage] = dataclasses.asdict(result.stats)
        return result

    def attach(self, report: dict) -> None:
        """Add the run-dependent blocks, which stay outside the byte-stable part."""
        report["timings"] = self.timings
        if self.stats:
            report["stats"] = self.stats


def _partial_budget_exit(report, timer, args, stage, err) -> int:
    report["error"] = {
        "type": "budget",
        "stage": stage,
        "message": str(err),
        "needed": err.needed,
        "budget": err.budget,
    }
    timer.attach(report)
    _emit(report, args)
    return EXIT_BUDGET


# -- invariants ------------------------------------------------------------


def cmd_invariants(parser, args) -> int:
    d = _resolve_diagram(parser, args)
    fields = [_FIELD_FLAG[args.field]] if args.field else [RATIONAL, F2]
    timer = _Timer()
    checks: dict[str, bool] = {}
    report = {
        "schema": SCHEMA,
        "name": d.name,
        "pd": d.serialize(),
        "crossings": d.n_crossings,
        "writhe": d.writhe(),
        "components": d.n_components(),
        "checks": checks,
    }
    is_knot = d.n_components() == 1

    stage = "determinant"
    try:
        if is_knot:
            # each determinant is read off its channel's invariant, so that
            # invariant runs first and its timing key times its work
            h1 = timer.run("h1", lambda: h1_branched_cover(d))
            det_g = timer.run("determinant_goeritz", lambda: determinant_goeritz(d))
            delta = timer.run("alexander", lambda: alexander(d))
            det_a = timer.run("determinant_alexander", lambda: determinant_alexander(d))
            report["determinant"] = {"goeritz": det_g, "alexander": det_a}
            report["alexander"] = delta.format("t")
            report["h1"] = {
                "invariant_factors": list(h1.invariant_factors),
                "free_rank": h1.free_rank,
                "group": str(h1),
            }

        stage = "jones"
        vhat = timer.run("jones", lambda: jones(d))
        vnorm = timer.run("jones_normalized", lambda: jones_normalized(d))
        report["jones"] = {
            "unnormalized": vhat.format("q"),
            "normalized": vnorm.format("q"),
        }

        stage = "khovanov"
        report["khovanov"] = {}
        results = {}
        for field in fields:
            results[field] = timer.homology(
                f"khovanov_{field}", lambda f=field: kh_homology(d, f)
            )
            reduced = reduced_f2_dims(results[field]) if field == F2 else None
            report["khovanov"][field] = _kh_section(results[field], reduced)
            checks[f"euler_matches_jones_{field}"] = (
                results[field].dims.euler_poly() == vhat
            )
        if RATIONAL in results and F2 in results:
            checks["f2_dominates_rational"] = all(
                results[F2].dims[key] >= rank for key, rank in results[RATIONAL].dims
            )

        if is_knot:
            stage = "verdict"
            verdict = timer.run(stage, lambda: ccc_verdict(d, COMPUTE))
            report["verdict"] = {
                "verdict": verdict.verdict,
                "l_space_certificate": verdict.l_space_certificate,
                "square_free": verdict.square_free,
                "evidence": verdict.evidence,
            }
        else:
            report["verdict"] = None
            report["note"] = "multi-component link: classical knot channels skipped"
    except BudgetError as err:
        return _partial_budget_exit(report, timer, args, stage, err)

    timer.attach(report)
    _emit(report, args)
    return EXIT_OK if all(checks.values()) else EXIT_CHECK_FAILED


# -- symun -----------------------------------------------------------------


def cmd_symun(parser, args) -> int:
    d = TEMPLATES[args.fixture](args.n)
    print(d.serialize())
    return EXIT_OK


# -- kh --------------------------------------------------------------------


def cmd_kh(parser, args) -> int:
    d = _resolve_diagram(parser, args)
    field = _FIELD_FLAG[args.field or "q"]
    timer = _Timer()
    report = {
        "schema": SCHEMA,
        "name": d.name,
        "pd": d.serialize(),
        "field": field,
    }
    try:
        result = timer.homology("khovanov", lambda: kh_homology(d, field))
    except BudgetError as err:
        return _partial_budget_exit(report, timer, args, "khovanov", err)
    reduced = reduced_f2_dims(result) if field == F2 else None
    report["khovanov"] = _kh_section(result, reduced)
    timer.attach(report)
    _emit(report, args)
    return EXIT_OK


# -- h1 --------------------------------------------------------------------


def cmd_h1(parser, args) -> int:
    d = _resolve_diagram(parser, args)
    if d.n_components() != 1:
        parser.error(f"h1 needs a knot, got {d.n_components()} components")
    timer = _Timer()
    h1 = timer.run("h1", lambda: h1_branched_cover(d))
    report = {
        "schema": SCHEMA,
        "name": d.name,
        "pd": d.serialize(),
        "h1": {
            "invariant_factors": list(h1.invariant_factors),
            "free_rank": h1.free_rank,
            "group": str(h1),
        },
        "determinant": {"goeritz": determinant_goeritz(d)},
        "timings": timer.timings,
    }
    _emit(report, args)
    return EXIT_OK


# -- verify-paper ----------------------------------------------------------


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

ALEXANDER_KN_EVEN = {2: 4, 1: -12, 0: 17, -1: -12, -2: 4}
ALEXANDER_KN_ODD = {2: 2, 1: -12, 0: 21, -1: -12, -2: 2}

UNLINK_KH = {(-2, 0): 1, (0, 0): 2, (2, 0): 1}


def _property_corpus() -> list[PlanarDiagram]:
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
        kn_template(0),
        kn_template(1),
        kn_template(-1),
    ]


def _row(criterion, case, ok, expected, got):
    return {
        "criterion": criterion,
        "case": case,
        "ok": bool(ok),
        "expected": str(expected),
        "got": str(got),
    }


def _d(ctx, d):
    """The run's one diagram equal to ``d``, whose memoised stages run once."""
    return ctx["diagrams"].setdefault(d, d)


def _check_kh52(ctx):
    result = kh_homology(_d(ctx, knot_5_2()), RATIONAL)
    got = result.dims.dims
    yield _row("kh52", "Kh(5_2;Q)", got == KH_52_TABLE, KH_52_TABLE, got)


def _check_kh(ctx):
    for n in ctx["n_range"] or range(-28, 29):
        result = kh_homology(_d(ctx, kn_template(n)), RATIONAL)
        want = closed_formula_kn(n)
        yield _row(
            "kh", f"Kh(K_{n};Q) == closed formula", result.dims == want,
            want.poincare(), result.dims.poincare(),
        )
        report = is_thin(result)
        yield _row("kh", f"K_{n} thin", report.thin, True, report.diagonals)
        total = result.dims.total_rank()
        yield _row("kh", f"K_{n} total rank", total == 50, 50, total)


def _check_khf2(ctx):
    for n in ctx["n_range"] or range(-28, 29):
        d = _d(ctx, kn_template(n))
        result = kh_homology(d, F2)
        report = is_thin(result)
        yield _row("khf2", f"K_{n} F2 thin", report.thin, True, report.diagonals)
        red = reduced_f2_dims(result).total_rank()
        det = determinant_goeritz(d)
        yield _row(
            "khf2", f"K_{n} reduced rank == det", red == det == 49, 49, (red, det)
        )


def _check_h1(ctx):
    for n in ctx["n_range"] or range(-14, 15):
        got = h1_branched_cover(_d(ctx, kn_template(n))).invariant_factors
        want = (7, 7) if n % 7 == 0 else (49,)
        yield _row("h1", f"H1(Sigma(K_{n}))", got == want, want, got)


def _check_det(ctx):
    for n in ctx["n_range"] or range(-5, 8):
        d = _d(ctx, kn_template(n))
        dg, da = determinant_goeritz(d), determinant_alexander(d)
        yield _row("det", f"det(K_{n}) both channels", dg == da == 49, 49, (dg, da))


def _check_alexander(ctx):
    even, odd = LaurentPolynomial(ALEXANDER_KN_EVEN), LaurentPolynomial(ALEXANDER_KN_ODD)
    square = alexander(_d(ctx, knot_5_2())) ** 2
    yield _row(
        "alexander", "(Delta 5_2)^2 == frozen", square == even,
        even.format("t"), square.format("t"),
    )
    for n in ctx["n_range"] or range(-4, 5):
        want = odd if n % 2 else even
        got = alexander(_d(ctx, kn_template(n)))
        yield _row(
            "alexander", f"Delta(K_{n})", got == want, want.format("t"), got.format("t")
        )


def _check_identify(ctx):
    k1, ten = _d(ctx, kn_template(1)), _d(ctx, knot_10_22())
    jk, jt = jones(k1), jones(ten)
    yield _row("identify", "jones(K_1) == jones(10_22)", jk == jt, jt.format("q"), jk.format("q"))
    kk = kh_homology(k1, RATIONAL).dims
    kt = kh_homology(ten, RATIONAL).dims
    yield _row("identify", "Kh(K_1;Q) == Kh(10_22;Q)", kk == kt, kt.poincare(), kk.poincare())
    want = closed_formula_kn(1)
    yield _row("identify", "Kh(10_22;Q) == formula(1)", kt == want, want.poincare(), kt.poincare())


def _check_ccc(ctx):
    for n in ctx["n_range"] or (7, -7, 14, -14, 21, -21, 28, -28, 1, 2, 3, 4, 5, 6):
        v = ccc_verdict(_d(ctx, kn_template(n)), COMPUTE)
        want = (SATISFIES_CCC if n % 7 == 0 else INCONCLUSIVE, COMPUTED_THIN)
        got = (v.verdict, v.l_space_certificate)
        yield _row("ccc", f"K_{n}", got == want, want, got)


def _check_skein(ctx):
    k2 = kn_template(2)
    # skein builds its resolutions itself, and the unoriented one equals K_1
    rep = skein_consistency(k2, k2.site.interior[0], homology=lambda d, f: kh_homology(_d(ctx, d), f))
    yield _row("skein", "epsilon at the K_2 twist", rep.epsilon == 0, 0, rep.epsilon)
    yield _row("skein", "rank inequality", rep.rank_inequality_ok, True, rep.rank_inequality_ok)
    yield _row("skein", "Euler additivity", rep.euler_additive, True, rep.euler_additive)
    got = rep.oriented.dims.dims
    yield _row("skein", "unlink Kh is 1,2,1 at q=-2,0,2", got == UNLINK_KH, UNLINK_KH, got)
    yield _row(
        "skein", "unoriented resolution == formula(1)",
        rep.unoriented.dims == closed_formula_kn(1), "rank 50 table", rep.unoriented.dims.poincare(),
    )


def _snf_ok(m: IntegerMatrix) -> bool:
    snf = smith_normal_form(m)
    d = snf.diagonal
    for a, b in zip(d, d[1:]):
        if (a == 0 and b != 0) or (a != 0 and b % a != 0):
            return False
    if any(x < 0 for x in d):
        return False
    if snf.u.determinant() not in (1, -1) or snf.v.determinant() not in (1, -1):
        return False
    prod = snf.u * m * snf.v
    return all(
        prod[i, j] == (d[i] if i == j and i < len(d) else 0)
        for i in range(prod.rows)
        for j in range(prod.cols)
    )


def _check_snf(ctx):
    rng = random.Random(ctx["seed"])
    bad = 0
    for _ in range(200):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = IntegerMatrix(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        if not _snf_ok(m):
            bad += 1
    yield _row("snf", f"200 random matrices, seed {ctx['seed']}", bad == 0, "0 failures", f"{bad} failures")


def _check_euler(ctx):
    for d in _property_corpus():
        held = _d(ctx, d)
        got = kh_homology(held, RATIONAL).dims.euler_poly()
        want = jones(held)
        yield _row("euler", d.name or d.serialize(), got == want, want.format("q"), got.format("q"))


def _check_mirror(ctx):
    for d in _property_corpus():
        got = kh_homology(_d(ctx, mirror(d)), RATIONAL).dims
        want = kh_homology(_d(ctx, d), RATIONAL).dims.reflect()
        yield _row("mirror", d.name or d.serialize(), got == want, want.poincare(), got.poincare())


def _check_detagree(ctx):
    for d in _property_corpus():
        if d.n_components() != 1:
            continue
        held = _d(ctx, d)
        dg, da = determinant_goeritz(held), determinant_alexander(held)
        h1 = h1_branched_cover(held)
        order = h1.order() if h1.free_rank == 0 else None
        ok = dg == da and order == dg
        yield _row("detagree", d.name or d.serialize(), ok, f"{dg} == {dg} == {dg}", f"{dg} == {da} == {order}")


CRITERIA = {
    "kh52": _check_kh52,
    "kh": _check_kh,
    "khf2": _check_khf2,
    "h1": _check_h1,
    "det": _check_det,
    "alexander": _check_alexander,
    "identify": _check_identify,
    "ccc": _check_ccc,
    "skein": _check_skein,
    "snf": _check_snf,
    "euler": _check_euler,
    "mirror": _check_mirror,
    "detagree": _check_detagree,
}


def _parse_n_range(text: str | None, parser) -> range | None:
    if text is None:
        return None
    lo, sep, hi = text.partition("..")
    if not sep:
        parser.error("--n-range wants the form A..B")
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        parser.error("--n-range wants integers, e.g. -14..14")
    if a > b:
        parser.error("--n-range start exceeds end")
    return range(a, b + 1)


def cmd_verify_paper(parser, args) -> int:
    names = list(CRITERIA)
    if args.only is not None:
        names = [s.strip() for s in args.only.split(",") if s.strip()]
        if not names:
            parser.error(f"--only names no criterion; pick from {sorted(CRITERIA)}")
        unknown = [s for s in names if s not in CRITERIA]
        if unknown:
            parser.error(f"unknown criteria {unknown}; pick from {sorted(CRITERIA)}")
    ctx = {
        "n_range": _parse_n_range(args.n_range, parser),
        "seed": args.seed,
        "diagrams": {},
    }
    rows = []
    for name in names:
        t0 = time.perf_counter()
        for row in CRITERIA[name](ctx):
            row["seconds"] = round(time.perf_counter() - t0, 3)
            t0 = time.perf_counter()
            rows.append(row)
            if not args.json:
                mark = "PASS" if row["ok"] else "FAIL"
                line = f"{mark} {row['criterion']}: {row['case']}"
                if not row["ok"]:
                    line += f"\n     expected {row['expected']}\n     got      {row['got']}"
                print(line)
    passed = sum(1 for r in rows if r["ok"])
    summary = {"schema": SCHEMA, "rows": rows, "passed": passed, "total": len(rows)}
    if args.json:
        _emit(summary, args)
    else:
        print(f"{passed}/{len(rows)} checks passed")
    return EXIT_OK if passed == len(rows) else EXIT_CHECK_FAILED


# -- entry point -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symknot",
        description="exact knot invariants for symmetric union diagrams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="full invariant report for one diagram")
    _add_input_flags(p_inv)
    _add_common_flags(p_inv)
    p_inv.add_argument("--field", choices=sorted(_FIELD_FLAG), help="restrict Khovanov to one field")
    p_inv.set_defaults(fn=cmd_invariants)

    p_sym = sub.add_parser("symun", help="PD code of the n-twisted template")
    p_sym.add_argument("fixture", choices=sorted(TEMPLATES), help="partial knot name")
    p_sym.add_argument("--n", type=int, required=True, help="half-twist count")
    p_sym.set_defaults(fn=cmd_symun)

    p_kh = sub.add_parser("kh", help="Khovanov homology of one diagram")
    _add_input_flags(p_kh)
    _add_common_flags(p_kh)
    p_kh.add_argument("--field", choices=sorted(_FIELD_FLAG), help="coefficient field (default q)")
    p_kh.set_defaults(fn=cmd_kh)

    p_h1 = sub.add_parser("h1", help="homology of the branched double cover")
    _add_input_flags(p_h1)
    _add_common_flags(p_h1)
    p_h1.set_defaults(fn=cmd_h1)

    p_ver = sub.add_parser("verify-paper", help="run the frozen ground-truth suite")
    _add_common_flags(p_ver)
    p_ver.add_argument("--only", help="comma-separated criteria subset, e.g. h1,det")
    p_ver.add_argument("--n-range", help="twist range A..B for family sweeps")
    p_ver.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for randomized checks")
    p_ver.set_defaults(fn=cmd_verify_paper)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads a leading minus in "-14..14" as an option prefix; fold
    # the value into the flag so the documented spelling works
    for i in range(len(argv) - 1):
        if argv[i] == "--n-range" and argv[i + 1].startswith("-"):
            argv[i : i + 2] = [f"--n-range={argv[i + 1]}"]
            break
    args = parser.parse_args(argv)
    try:
        return args.fn(parser, args)
    except PdError as err:
        print(f"symknot: {err}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetError as err:
        print(f"symknot: {err}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
