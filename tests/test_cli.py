import json
import pathlib
import random
import re
import shlex
import subprocess
import sys
from collections import Counter

import pytest
from test_khovanov import count_calls, record_complex_sizes

from symknot import cli, diagram, fixtures, goeritz, khovanov, polynomials
from symknot.cli import CRITERIA, EXIT_BUDGET, EXIT_CHECK_FAILED, EXIT_OK, EXIT_PARSE, SCHEMA, main
from symknot.diagram import DiagramStructureError, PdError, PlanarDiagram, parse_pd
from symknot.fixtures import kn_template
from symknot.goeritz import determinant_goeritz, h1_branched_cover
from symknot.khovanov import F2, RATIONAL, kh_homology
from symknot.polynomials import alexander, determinant_alexander, jones

KH52_POINCARE = "q + q^3 + q^3*u + q^5*u^2 + q^7*u^2 + q^9*u^3 + q^9*u^4 + q^13*u^5"


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out), out


def test_invariants_52(capsys):
    code, report, _ = run_json(capsys, ["invariants", "--knot", "5_2"])
    assert code == EXIT_OK
    assert report["schema"] == SCHEMA
    assert report["determinant"] == {"goeritz": 7, "alexander": 7}
    assert report["alexander"] == "2*t - 3 + 2*t^-1"
    assert report["jones"]["unnormalized"] == "-q^13 + q^7 + q^5 + q"
    assert report["jones"]["normalized"] == "-q^12 + q^10 - q^8 + 2*q^6 - q^4 + q^2"
    assert report["khovanov"]["Q"]["poincare"] == KH52_POINCARE
    assert report["khovanov"]["Q"]["thin"] is True
    assert report["khovanov"]["Q"]["diagonals"] == [1, 3]
    assert report["khovanov"]["F2"]["reduced_total_rank"] == 7
    assert report["h1"] == {"invariant_factors": [7], "free_rank": 0, "group": "Z/7"}
    assert report["verdict"]["verdict"] == "SATISFIES_CCC"
    assert all(report["checks"].values())


def test_invariants_round_trip_and_determinism(capsys):
    _, first, text1 = run_json(capsys, ["invariants", "--knot", "trefoil"])
    # canonical emission: parsing and re-dumping reproduces the bytes
    assert text1.strip() == json.dumps(first, indent=2, sort_keys=True)
    _, second, _ = run_json(capsys, ["invariants", "--knot", "trefoil"])
    first.pop("timings")
    second.pop("timings")
    assert first == second


def test_invariants_symun(capsys):
    code, report, _ = run_json(capsys, ["invariants", "--symun", "5_2", "--n", "3"])
    assert code == EXIT_OK
    assert report["determinant"] == {"goeritz": 49, "alexander": 49}
    assert report["h1"]["group"] == "Z/49"
    assert report["verdict"]["verdict"] == "INCONCLUSIVE"
    assert report["crossings"] == 13


def test_invariants_link_input(capsys):
    # a valid 2-component PD gets the link subset of the report
    code, report, _ = run_json(
        capsys, ["invariants", "--pd", "X[1,4,2,3] X[3,2,4,1]"]
    )
    assert code == EXIT_OK
    assert report["components"] == 2
    assert report["verdict"] is None
    assert "determinant" not in report
    assert "note" in report
    assert all(report["checks"].values())


def test_invariants_field_restriction(capsys):
    # --field takes either letter case, and each spelling gives the same
    # report; its one field section is the one of the two-field golden report
    golden = json.loads((GOLDEN / "invariants_trefoil.json").read_text())
    for field, spellings in (("Q", ("q", "Q")), ("F2", ("f2", "F2"))):
        for command in ("invariants", "kh"):
            reports = []
            for spelling in spellings:
                code, report, _ = run_json(capsys, [command, "--knot", "trefoil", "--field", spelling])
                assert code == EXIT_OK
                report.pop("timings")
                report.pop("stats")
                reports.append(report)
                if command == "invariants":
                    assert report["khovanov"] == {field: golden["khovanov"][field]}
            assert reports[0] == reports[1], (command, field)
        assert reports[0]["field"] == field
    assert "reduced_table" in golden["khovanov"]["F2"]


def test_parse_errors_exit_2(capsys):
    for argv in (
        ["invariants", "--pd", "X[1,2,3] X[3,2,4,1]"],
        ["invariants", "--pd", "garbage"],
        ["invariants", "--pd", ""],
        ["invariants", "--pd", "# only a comment"],
        ["kh", "--pd", ""],
        ["invariants", "--knot", "nosuch"],
        ["invariants"],
        ["invariants", "--knot", "5_2", "--pd", "O"],
        ["invariants", "--symun", "5_2"],
        ["invariants", "--knot", "trefoil", "--n", "3"],
        ["kh", "--knot", "trefoil", "--field", "gf3"],
        ["kh", "--knot", "trefoil", "--field", "z2"],
        ["invariants", "--knot", "trefoil", "--field", "z2"],
        # the Hopf link has no branched double cover homology here
        ["h1", "--pd", "X[1,3,2,4] X[3,1,4,2]"],
        # verify-paper draws nothing at random, so it takes no seed
        ["verify-paper", "--seed", "1"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == EXIT_PARSE, argv
        capsys.readouterr()


# two rotation systems of genus 1, and a split code: such a pair plus a loop
NON_PLANAR = ("X[1,2,1,2]", "X[1,4,1,2] X[4,2,3,3]", "X[2,4,3,1] X[3,1,2,4] O")


def test_non_planar_codes_exit_2(capsys):
    for code in NON_PLANAR:
        with pytest.raises(DiagramStructureError):
            parse_pd(code)
        for command in ("kh", "invariants"):
            with pytest.raises(SystemExit) as err:
                main([command, "--pd", code])
            assert err.value.code == EXIT_PARSE, (command, code)
        capsys.readouterr()


def test_random_pd_codes_exit_0_or_2(capsys):
    # a code is refused at parse time or its homology is computed; the
    # Khovanov scan never meets a diagram that is not planar
    rng = random.Random(1805)
    computed = non_planar = 0
    for _ in range(400):
        labels = list(range(1, 2 * rng.randint(1, 5) + 1)) * 2
        rng.shuffle(labels)
        code = " ".join("X[{},{},{},{}]".format(*labels[k : k + 4]) for k in range(0, len(labels), 4))
        code += " O" * (rng.random() < 0.2)
        try:
            parse_pd(code)
        except DiagramStructureError:
            non_planar += 1
        except PdError:
            pass
        try:
            status = main(["kh", "--pd", code])
        except SystemExit as err:
            status = err.code
        capsys.readouterr()
        assert status in (EXIT_OK, EXIT_PARSE), code
        computed += status == EXIT_OK
    assert computed > 50 and non_planar > 50, (computed, non_planar)


def test_budget_exit_3_with_partial_report(capsys, tmp_path, monkeypatch):
    sizes = record_complex_sizes(monkeypatch)
    monkeypatch.setattr(khovanov, "KH_BUDGET", 100)
    out = tmp_path / "partial.json"
    code = main(["kh", "--symun", "5_2", "--n", "14", "--json", str(out)])
    assert code == EXIT_BUDGET
    report = json.loads(out.read_text())
    assert report["error"]["type"] == "budget"
    assert report["error"]["stage"] == "khovanov"
    assert report["error"]["needed"] > report["error"]["budget"] == 100
    assert "khovanov" not in report
    # the Khovanov budget governs Khovanov only: the report still has Jones
    code = main(["invariants", "--symun", "5_2", "--n", "14", "--json", str(out)])
    assert code == EXIT_BUDGET
    report = json.loads(out.read_text())
    assert report["error"]["stage"] == "khovanov" and "jones" in report
    assert report["error"]["needed"] > 100
    assert max(sizes) <= 100


def test_symun_emission(capsys):
    assert main(["symun", "5_2", "--n", "4"]) == EXIT_OK
    text = capsys.readouterr().out.strip()
    assert text == kn_template(4).serialize()
    d = parse_pd(text)
    assert d.n_crossings == 14
    # emission is deterministic
    main(["symun", "5_2", "--n", "4"])
    assert capsys.readouterr().out.strip() == text
    main(["symun", "5_2", "--n", "0"])
    zero = parse_pd(capsys.readouterr().out.strip())
    assert zero.n_crossings == 10
    # negative twists mirror the positive ones
    main(["symun", "5_2", "--n", "-4"])
    neg = parse_pd(capsys.readouterr().out.strip())
    assert jones(neg) == jones(d).mirror()


def test_kh_subcommand(capsys):
    code, report, _ = run_json(capsys, ["kh", "--knot", "trefoil"])
    assert code == EXIT_OK
    assert report["field"] == "Q"
    assert report["khovanov"]["table"] == [[1, 0, 1], [3, 0, 1], [5, 2, 1], [9, 3, 1]]
    code, report, _ = run_json(capsys, ["kh", "--knot", "trefoil", "--field", "f2"])
    assert report["field"] == "F2"
    assert report["khovanov"]["reduced_total_rank"] == 3


def test_stats_and_timing_labels(capsys):
    _, report, _ = run_json(capsys, ["kh", "--knot", "5_2", "--field", "f2"])
    assert set(report["stats"]) == {"khovanov"}
    assert report["stats"]["khovanov"]["crossings"] == 5
    _, report, _ = run_json(capsys, ["invariants", "--knot", "trefoil"])
    # F2 reads the Q stage's integral scan, so only Q ran a scan with counters
    assert set(report["stats"]) == {"khovanov_Q"}
    assert set(report["stats"]["khovanov_Q"]) == {
        "crossings", "max_boundary", "max_objects_before", "max_objects_after",
        "cancellations", "compositions",
    }
    # every timing key names the call it times
    assert set(report["timings"]) == {
        "determinant_goeritz", "determinant_alexander", "alexander", "h1", "jones",
        "jones_normalized", "khovanov_Q", "khovanov_F2", "verdict",
    }
    _, report, _ = run_json(capsys, ["invariants", "--knot", "trefoil", "--field", "F2"])
    assert set(report["stats"]) == {"khovanov_F2"}


def test_json_dash_writes_stdout(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, report, _ = run_json(capsys, ["kh", "--knot", "trefoil", "--json", "-"])
    assert code == EXIT_OK and report["field"] == "Q"
    assert not (tmp_path / "-").exists()


def test_h1_subcommand(capsys):
    code, report, _ = run_json(capsys, ["h1", "--symun", "5_2", "--n", "7"])
    assert code == EXIT_OK
    assert report["h1"]["invariant_factors"] == [7, 7]
    assert report["determinant"] == {"goeritz": 49}
    assert "checks" not in report and list(report["timings"]) == ["h1"]


def _readme_command_lines() -> list[str]:
    """The lines of the README's first code block under ``## Command line``."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```", 2)[1]
    return [line for line in block.splitlines() if line.strip()]


def test_readme_command_line_examples_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = _readme_command_lines()
    assert len(lines) == 8
    for line in lines:
        prog, *argv = shlex.split(line, comments=True)
        assert prog == "symknot", line
        assert main(argv) == EXIT_OK, line
        capsys.readouterr()
    assert json.loads((tmp_path / "report.json").read_text())["crossings"] == 5
    # the README names verify-paper's criteria, in order, as the CLI defines them
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"`verify-paper` replays .*?: criteria ([^.]*)\.", text, re.S).group(1)
    assert re.split(r",\s*", listed) == list(CRITERIA)


def test_verify_paper_subsets(capsys):
    assert main(["verify-paper", "--only", "det,alexander"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out
    assert main(["verify-paper", "--only", "h1", "--n-range", "-2..2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS h1") == 5
    # both parities: the odd members have their own polynomial
    assert main(["verify-paper", "--only", "alexander", "--n-range", "-3..3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS alexander") == 1 + 7 and "FAIL" not in out
    for n in (-3, -1, 1, 3):
        assert f"Delta(K_{n})" in out, n
    # ccc follows the range too: K_7 satisfies the obstruction, K_6 does not
    assert main(["verify-paper", "--only", "ccc", "--n-range", "6..7"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS ccc") == 2 and "FAIL" not in out
    assert "PASS ccc: K_6\n" in out and "PASS ccc: K_7\n" in out


def test_verify_paper_bad_flags(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify-paper", "--only", "nosuch"])
    assert err.value.code == EXIT_PARSE
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["verify-paper", "--only", "h1", "--n-range", "5"])
    assert err.value.code == EXIT_PARSE
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["verify-paper", "--only", "h1", "--n-range", "3..-3"])
    assert err.value.code == EXIT_PARSE
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["verify-paper", "--only", "h1", "--n-range", "a..b"])
    assert err.value.code == EXIT_PARSE
    assert "wants integers" in capsys.readouterr().err
    # a selection that names no criterion checks nothing, so it is refused
    for only in (",", ""):
        with pytest.raises(SystemExit) as err:
            main(["verify-paper", "--only", only])
        assert err.value.code == EXIT_PARSE, only
        capsys.readouterr()


def test_verify_paper_prints_a_failing_row(capsys, monkeypatch):
    # a Goeritz determinant off by one fails the det row, which then says what
    # it expected and what it got, and the run exits 1
    monkeypatch.setattr(cli, "determinant_goeritz", lambda d: 48)
    assert main(["verify-paper", "--only", "det", "--n-range", "0..0"]) == EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    assert out == (
        "FAIL det: det(K_0) both channels\n     expected 49\n     got      (48, 49)\n"
        "0/1 checks passed\n"
    )


def test_verify_paper_computes_each_homology_once(capsys, monkeypatch):
    # one call per scan: (crossings, order, loops, over F2, budget)
    calls = count_calls(monkeypatch, khovanov, "scan_homology")
    argv = ["verify-paper", "--only", "kh52,kh,khf2,identify,ccc,skein,euler,mirror", "--n-range", "-3..3"]
    assert main(argv) == EXIT_OK
    assert "FAIL" not in capsys.readouterr().out
    # K_-3..K_3 once, over Z: khf2 and ccc read F2 off those scans; skein
    # adds the oriented resolution of K_2 (its unoriented one is K_1); the 16
    # corpus diagrams (5_2 and 10_22 among them) add 13 past K_0 and K_+-1,
    # and their mirrors 10 past the 6 the corpus holds
    assert len(calls) == len(set(calls)) == 7 + 1 + 13 + 10
    assert not any(char2 for _, _, _, char2, _ in calls)


def test_invariants_runs_each_stage_once(capsys, monkeypatch):
    engines = ((khovanov, "scan_homology"), (goeritz, "goeritz_matrix"),
               (polynomials, "_alexander_minor"), (polynomials, "_bracket_scan"))
    calls = {name: count_calls(monkeypatch, module, name) for module, name in engines}
    assert main(["invariants", "--symun", "5_2", "--n", "3"]) == EXIT_OK
    capsys.readouterr()
    # one integral scan (Q, and F2 read off it), one Goeritz matrix (H1, whose
    # order is its determinant), one Alexander minor (Alexander, whose value at
    # -1 is its determinant), one bracket; the verdict reuses all of them
    counts = {name: len(c) for name, c in calls.items()}
    assert counts == {"scan_homology": 1, "goeritz_matrix": 1, "_alexander_minor": 1,
                      "_bracket_scan": 1}
    # asked for alone, F2 runs one scan mod 2 and no integral one
    scans = calls["scan_homology"]
    scans.clear()
    assert main(["invariants", "--symun", "5_2", "--n", "3", "--field", "F2"]) == EXIT_OK
    capsys.readouterr()
    assert [args[3] for args in scans] == [True]
    d = kn_template(3)
    stages = [
        lambda: kh_homology(d, RATIONAL),
        lambda: kh_homology(d, F2),
        lambda: kh_homology(d, "f2"),
        lambda: h1_branched_cover(d),
        lambda: determinant_goeritz(d),
        lambda: alexander(d),
        lambda: determinant_alexander(d),
        lambda: jones(d),
        d.orientation,
        d.signs,
        d.crossing_order,
        d.faces,
    ]
    first = [stage() for stage in stages]
    assert first[1] is first[2]
    counts = {name: len(c) for name, c in calls.items()}
    assert all(stage() is held for stage, held in zip(stages, first))
    assert {name: len(c) for name, c in calls.items()} == counts


def test_invariants_builds_the_member_once(capsys, monkeypatch):
    # the report's verdict asks whether K_n is the composite K_0 without
    # building a second template, except for K_0 itself
    builds = count_calls(monkeypatch, fixtures, "symmetric_union")
    for n, want in ((3, 1), (-2, 1), (0, 2)):
        builds.clear()
        assert main(["invariants", "--symun", "5_2", "--n", str(n)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert len(builds) == want, n
        assert report["verdict"]["evidence"]["composite_suspected"] == (n == 0)


def test_each_diagram_chooses_its_scan_order_once(capsys, monkeypatch):
    orders = count_calls(monkeypatch, diagram, "_scan_order")
    assert main(["invariants", "--symun", "5_2", "--n", "3"]) == EXIT_OK
    capsys.readouterr()
    # the bracket and the integral scan read one order
    assert len(orders) == 1
    orders.clear()
    built = []
    init = PlanarDiagram.__init__

    def keeping(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(PlanarDiagram, "__init__", keeping)
    argv = ["verify-paper", "--only", "kh,khf2,identify,euler", "--n-range", "-3..3"]
    assert main(argv) == EXIT_OK
    assert "FAIL" not in capsys.readouterr().out
    # at most one order per diagram object, counted by the crossings tuple each
    # one holds: the crossing-free diagrams all hold the empty tuple
    held = Counter(id(d.crossings) for d in built)
    chosen = Counter(id(args[0]) for args in orders)
    assert orders and all(n <= held[key] for key, n in chosen.items()), (len(orders), len(built))


def test_verify_paper_json(capsys, tmp_path):
    out = tmp_path / "rows.json"
    assert main(["verify-paper", "--only", "det", "--json", str(out)]) == EXIT_OK
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert data["passed"] == data["total"] == len(data["rows"])
    assert all(r["ok"] for r in data["rows"])
    assert {r["criterion"] for r in data["rows"]} == {"det"}


GOLDEN = pathlib.Path(__file__).parent / "golden"
GOLDEN_REPORTS = {
    "invariants_symun_5_2_n3.json": ["invariants", "--symun", "5_2", "--n", "3"],
    "invariants_symun_5_2_n14.json": ["invariants", "--symun", "5_2", "--n", "14"],
    "invariants_symun_5_2_n-28.json": ["invariants", "--symun", "5_2", "--n", "-28"],
    "invariants_10_22.json": ["invariants", "--knot", "10_22"],
    "invariants_trefoil.json": ["invariants", "--knot", "trefoil"],
    "invariants_pretzel_3_1_-3.json": ["invariants", "--knot", "pretzel_3_1_-3"],
    "h1_symun_5_2_n7.json": ["h1", "--symun", "5_2", "--n", "7"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_report_matches_golden(capsys, name):
    # the files hold the CLI's emission with the run-dependent "timings" and
    # the engine's "stats" removed; every other byte is frozen
    code, report, _ = run_json(capsys, GOLDEN_REPORTS[name])
    assert code == EXIT_OK
    report.pop("timings")
    report.pop("stats", None)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert text == (GOLDEN / name).read_text()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "symknot.cli", "invariants", "--pd", "O"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["crossings"] == 0
    assert report["verdict"]["verdict"] == "SATISFIES_CCC"
    assert report["jones"]["unnormalized"] == "q + q^-1"


if __name__ == "__main__":
    sys.exit(main(["invariants", "--knot", "5_2"]))
