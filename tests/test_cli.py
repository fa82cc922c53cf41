import json
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from bernpop import contraction
from bernpop.bnb import BnbConfig, branch_and_bound
from bernpop.cli import format_report, main, report_row
from bernpop.poly import Box, Polynomial
from bernpop.problems import canonical_json, load_problem


@pytest.fixture()
def fixture_dir():
    import bernpop

    return Path(bernpop.__file__).parent / "fixtures"


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_relax_level2_himmelblau(capsys, fixture_dir):
    code, out, _ = _run(
        capsys,
        ["relax", "--level", "2", "--output", "json", str(fixture_dir / "himmelblau.json")],
    )
    assert code == 0
    report = json.loads(out)
    assert report["bounds"]["p0"] == pytest.approx(-1170.0, abs=1e-6)
    assert report["bounds"]["p1"] == pytest.approx(-911.47, abs=0.01)
    assert report["bounds"]["p2"] == pytest.approx(-856.42, abs=0.01)


def test_bnb_level0_himmelblau(capsys, fixture_dir):
    code, out, _ = _run(
        capsys,
        [
            "bnb", "--level", "0", "--eps", "1e-9", "--output", "json",
            str(fixture_dir / "himmelblau.json"),
        ],
    )
    assert code == 0
    report = json.loads(out)
    sec = report["bnb"]
    assert sec["converged"]
    assert sec["lower"] <= 0.0 <= sec["upper"]
    assert sec["upper"] - sec["lower"] <= 1e-6


def test_relax_level1_with_degree_override(capsys, fixture_dir):
    code, out, _ = _run(
        capsys,
        [
            "relax", "--level", "1", "--degree", "2", "--output", "json",
            str(fixture_dir / "unitsq.json"),
        ],
    )
    assert code == 0
    report = json.loads(out)
    assert report["bounds"]["p1"] == pytest.approx(-0.5, abs=1e-9)


def test_degree_override_below_objective_degree_fails(capsys, fixture_dir):
    code, _, err = _run(
        capsys,
        ["relax", "--degree", "1", str(fixture_dir / "unitsq.json")],
    )
    assert code == 1
    assert "unsupported degree" in err


def test_malformed_json_distinct_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = _run(capsys, ["relax", str(bad)])
    assert code == 1
    assert "malformed JSON" in err


def test_missing_file_distinct_error(capsys):
    code, _, err = _run(capsys, ["relax", "/no/such/file.json"])
    assert code == 1
    assert "cannot read input" in err


@pytest.mark.parametrize("mode", ["relax", "bnb", "lyapunov"])
def test_unreadable_input_is_a_clean_error(capsys, tmp_path, mode):
    # a directory once ended in an IsADirectoryError traceback
    for path in (str(tmp_path), str(tmp_path / "missing.json")):
        code, out, err = _run(capsys, [mode, path])
        assert code == 1 and out == ""
        assert err == f"error: cannot read input file: {path}\n"


def test_dimension_mismatch_distinct_error(tmp_path, capsys):
    bad = tmp_path / "dim.json"
    bad.write_text(
        json.dumps(
            {
                "dimension": 2,
                "objective": [{"exponents": [1], "coeff": 1}],
                "box": {"lower": [0, 0], "upper": [1, 1]},
            }
        )
    )
    code, _, err = _run(capsys, ["relax", str(bad)])
    assert code == 1
    assert "dimension" in err


def test_rational_mode_reports_fraction_strings(capsys, fixture_dir):
    code, out, _ = _run(
        capsys,
        [
            "relax", "--level", "0", "--arith", "rational", "--output", "json",
            str(fixture_dir / "himmelblau.json"),
        ],
    )
    assert code == 0
    report = json.loads(out)
    assert report["exact_bounds"]["p0"] == "-1170"
    assert report["bounds"]["p0"] == -1170.0
    # bnb reports its two bounds exactly beside their floats
    argv = ["bnb", "--level", "0", "--output", "json", str(fixture_dir / "unitsq.json")]
    _, out, _ = _run(capsys, argv + ["--arith", "rational"])
    sec = json.loads(out)["bnb"]
    exact = {k: Fraction(v) for k, v in sec["exact_bounds"].items()}
    assert exact["lower"] <= exact["upper"]
    assert (float(exact["lower"]), float(exact["upper"])) == (sec["lower"], sec["upper"])
    _, out, _ = _run(capsys, argv)
    assert "exact_bounds" not in json.loads(out)["bnb"]


def test_rational_relax_reports_every_level_exactly(capsys, fixture_dir):
    argv = ["relax", "--level", "2", "--arith", "rational", str(fixture_dir / "himmelblau.json")]
    code, out, _ = _run(capsys, argv + ["--output", "json"])
    assert code == 0
    report = json.loads(out)
    exact = {k: Fraction(v) for k, v in report["exact_bounds"].items()}
    assert set(exact) == {"p0", "first", "p1", "p2"}
    assert exact["p0"] <= exact["first"] <= exact["p1"] <= exact["p2"]
    for key, value in exact.items():
        assert report["bounds"][key] == float(value)
    code, out, _ = _run(capsys, argv)
    assert code == 0 and f"(= {report['exact_bounds']['first']})" in out


def test_json_report_roundtrips_bytewise(capsys, fixture_dir):
    code, out, _ = _run(
        capsys,
        ["relax", "--level", "1", "--output", "json", str(fixture_dir / "square1d.json")],
    )
    assert code == 0
    assert canonical_json(json.loads(out)) == out


def test_deterministic_output_modulo_timings(capsys, fixture_dir):
    argv = ["relax", "--level", "2", "--output", "json", str(fixture_dir / "unitsq.json")]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("timings")
    r2.pop("timings")
    assert canonical_json(r1) == canonical_json(r2)


def test_lyapunov_mode(capsys, fixture_dir):
    code, out, _ = _run(
        capsys,
        ["lyapunov", "--output", "json", str(fixture_dir / "lyap1.json")],
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["stable"] is True

    code, out, _ = _run(
        capsys,
        ["lyapunov", "--output", "json", str(fixture_dir / "lyap2.json")],
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["stable"] is False
    assert report["verdict"]["v_bound"] == pytest.approx(-0.0625)


def test_bench_selected_names(capsys):
    code, out, _ = _run(
        capsys,
        ["bench", "--level", "1", "--output", "json", "square1d", "lyap1"],
    )
    assert code == 0
    report = json.loads(out)
    kinds = {r["label"]: r["kind"] for r in report["results"]}
    assert kinds == {"square1d": "pop", "lyap1": "lyapunov"}


def test_bench_rows_stay_clean_after_an_unreached_case(capsys, monkeypatch):
    # an unreached case once stopped the scan that stripped an internal
    # "_ok" flag from the rows, so every later row printed it
    import bernpop.lyapunov as lyap_mod

    real = lyap_mod.verify_lyapunov

    def exhausted(case, cfg=None):
        verdict = real(case, cfg)
        verdict.v_run.exhausted = True
        return verdict

    monkeypatch.setattr(lyap_mod, "verify_lyapunov", exhausted)
    code, out, _ = _run(capsys, ["bench", "--output", "json", "lyap1", "square1d"])
    assert code == 2
    assert all("_ok" not in row for row in json.loads(out)["results"])


def test_bench_unknown_name(capsys):
    code, _, err = _run(capsys, ["bench", "nonexistent"])
    assert code == 1
    assert "unknown benchmark" in err


def test_text_output_table_shape(capsys, fixture_dir):
    code, out, _ = _run(
        capsys,
        ["bnb", "--level", "0", "--eps", "1e-6", str(fixture_dir / "square1d.json")],
    )
    assert code == 0
    header = out.splitlines()[0]
    # a face is a box of the one worklist, so its time is not a column of its own
    assert header.split() == ["ID", "Ineq", "Sub", "Time", "Cutoff", "Mono", "Sub*", "Cutoff*", "Opt"]


def test_report_row_and_format():
    res = branch_and_bound(
        Polynomial(1, {(2,): 1}), (), Box((-1.0,), (1.0,)),
        BnbConfig(level="0", epsilon=1e-6),
    )
    row = report_row("square", "0", res)
    assert row["label"] == "square" and row["opt"] == pytest.approx(res.upper_bound)
    text = format_report([row])
    assert "Sub" in text and "square" in text.splitlines()[1]


def _write_problem(tmp_path, name, data):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return str(path)


def _linear_objective_problem(tmp_path):
    # minimise -x - y on [0,1]^2 subject to x + y <= 1; the optimum is -1
    return _write_problem(tmp_path, "lin", {
        "dimension": 2,
        "objective": [
            {"exponents": [1, 0], "coeff": -1}, {"exponents": [0, 1], "coeff": -1},
        ],
        "box": {"lower": [0, 0], "upper": [1, 1]},
        "constraints_linear": {"A": [[1, 1]], "b": [1]},
    })


def test_bnb_honours_linear_constraints(capsys, tmp_path):
    path = _linear_objective_problem(tmp_path)
    for level in ("0", "first", "1", "2"):
        code, out, _ = _run(
            capsys, ["bnb", "--level", level, "--max-boxes", "2000", "--output", "json", path]
        )
        sec = json.loads(out)["bnb"]
        assert code == (0 if sec["converged"] else 2)
        x, y = sec["witness"]
        assert x + y <= 1 + 1e-12
        assert sec["upper"] >= -1 - 1e-12
        if sec["converged"]:
            assert sec["upper"] == pytest.approx(-1.0, abs=1e-6)
        if level == "2":
            assert sec["converged"]
            assert sec["lower"] == pytest.approx(-1.0, abs=1e-12)
            assert sec["upper"] == pytest.approx(-1.0, abs=1e-12)


def test_relax_linear_constraints_rational(capsys, tmp_path):
    path = _linear_objective_problem(tmp_path)
    code, out, _ = _run(
        capsys, ["relax", "--level", "2", "--arith", "rational", "--output", "json", path]
    )
    assert code == 0
    report = json.loads(out)
    assert report["exact_bounds"]["p1"] == "-1"
    assert report["exact_bounds"]["p2"] == "-1"


# minimise x^2 + y^2 - xy/2 on [-1,1]^2 subject to y - x^2 - 1/2 <= 0 and
# -x - y <= -1/2; the linear row moves the optimum from 0 at (0, 0) to 3/32
# at (1/4, 1/4)
_CONSTRAINED_PROBLEM = {
    "dimension": 2,
    "objective": [
        {"exponents": [2, 0], "coeff": 1}, {"exponents": [0, 2], "coeff": 1},
        {"exponents": [1, 1], "coeff": "-1/2"},
    ],
    "box": {"lower": [-1, -1], "upper": [1, 1]},
    "constraints_poly": [[
        {"exponents": [0, 1], "coeff": 1}, {"exponents": [2, 0], "coeff": -1},
        {"exponents": [0, 0], "coeff": -0.5},
    ]],
    "constraints_linear": {"A": [[-1, -1]], "b": [-0.5]},
}


@pytest.mark.parametrize("arith", ["float", "rational"])
def test_loaded_constraints_are_every_constraint_of_the_file(capsys, tmp_path, arith):
    # a library caller that passes the loaded problem's constraints_poly gets
    # the CLI's answer, and its witness satisfies every row of the file; a
    # linear row kept apart from constraints_poly was once dropped here
    path = _write_problem(tmp_path, "constrained", _CONSTRAINED_PROBLEM)
    exact = arith == "rational"
    problem = load_problem(path, exact)
    cfg = BnbConfig(level="1", exact=exact)
    result = branch_and_bound(problem.objective, problem.constraints_poly, problem.box, cfg)
    code, out, _ = _run(capsys, ["bnb", "--level", "1", "--arith", arith, "--output", "json", path])
    sec = json.loads(out)["bnb"]
    assert code == 0 and result.converged and sec["converged"]
    assert [float(result.lower_bound), float(result.upper_bound)] == [sec["lower"], sec["upper"]]
    witness = [Fraction(v) for v in result.witness]
    if exact:
        assert sec["exact_bounds"] == {"lower": str(result.lower_bound), "upper": "3/32"}
        assert sec["witness"]["exact"] == [str(v) for v in witness]
    else:
        assert sec["witness"] == list(result.witness)
    x, y = witness
    assert y - x * x - Fraction(1, 2) <= 0 and -x - y <= Fraction(-1, 2)
    assert x * x + y * y - x * y / 2 == Fraction(result.upper_bound) == Fraction(3, 32)


@pytest.mark.parametrize("level", ["0", "1", "2"])
def test_bnb_prunes_infeasible_boxes(capsys, tmp_path, monkeypatch, level):
    # minimise x^2 + y^2 - x on [-1,1]^2 subject to x + 1/2 <= 0; optimum 3/4 at (-1/2, 0).
    # Contraction cuts the part where x > -1/2 off the root box; without
    # it, the boxes there close as infeasible
    path = _write_problem(tmp_path, "half", {
        "dimension": 2,
        "objective": [
            {"exponents": [2, 0], "coeff": 1}, {"exponents": [0, 2], "coeff": 1},
            {"exponents": [1, 0], "coeff": -1},
        ],
        "box": {"lower": [-1, -1], "upper": [1, 1]},
        "constraints_poly": [
            [{"exponents": [1, 0], "coeff": 1}, {"exponents": [0, 0], "coeff": 0.5}]
        ],
    })
    for sweeps in (contraction.SWEEPS, 0):
        monkeypatch.setattr(contraction, "SWEEPS", sweeps)
        code, out, _ = _run(capsys, ["bnb", "--level", level, "--output", "json", path])
        assert code == 0
        sec = json.loads(out)["bnb"]
        assert sec["converged"]
        assert sec["lower"] <= 0.75 <= sec["upper"] <= 0.75 + 1e-6
        assert sec["witness"] == pytest.approx([-0.5, 0.0], abs=1e-3)
        assert sec["witness"][0] <= -0.5
        stats = sec["stats"]
        if sweeps:
            assert stats["contracted"] > 0 and stats["infeasible_count"] == 0
        else:
            assert stats["infeasible_count"] > 0 and stats["contracted"] == stats["contraction_closures"] == 0


def test_bnb_infeasible_problem_is_a_clean_verdict(capsys, tmp_path):
    # x^2 + 2 <= 0 holds nowhere
    path = _write_problem(tmp_path, "empty", {
        "dimension": 1,
        "objective": [{"exponents": [1], "coeff": 1}],
        "box": {"lower": [-1], "upper": [1]},
        "constraints_poly": [
            [{"exponents": [2], "coeff": 1}, {"exponents": [0], "coeff": 2}]
        ],
    })
    code, out, _ = _run(capsys, ["bnb", "--level", "0", "--output", "json", path])
    assert code == 2
    sec = json.loads(out)["bnb"]
    assert sec["lower"] is None and sec["upper"] is None and sec["witness"] is None
    assert not sec["converged"]
    code, out, _ = _run(capsys, ["bnb", "--level", "0", path])
    assert code == 2
    assert "bounds: [-, -]" in out


def test_lyapunov_rational_mode_is_exact(capsys, fixture_dir):
    code, out, _ = _run(
        capsys,
        ["lyapunov", "--arith", "rational", "--output", "json", str(fixture_dir / "lyap1.json")],
    )
    assert code == 0
    verdict = json.loads(out)["verdict"]
    assert verdict["v_bound"] == 0 and verdict["vdot_bound"] == 0
    assert verdict["stable"] is True


def test_bench_rational_mode_is_exact(capsys):
    code, out, _ = _run(
        capsys,
        ["bench", "--level", "1", "--arith", "rational", "--output", "json", "square1d", "lyap1"],
    )
    assert code == 0
    rows = {r["label"]: r for r in json.loads(out)["results"]}
    assert rows["lyap1"]["v_bound"] == 0 and rows["lyap1"]["vdot_bound"] == 0
    assert rows["square1d"]["opt"] == 0
    # the root's screen offers x = 0 and contracts the root around it, and
    # the part cut away contributes the cutoff threshold 0 - eps (the float
    # 1e-9, exactly), the run's lower bound
    bounds = rows["square1d"]["exact_bounds"]
    assert bounds == {"lower": str(-Fraction(1e-9)), "upper": "0"}
    assert Fraction(bounds["lower"]) <= 0


@pytest.mark.parametrize("level", ["1", "2"])
def test_bnb_infeasible_lp_is_a_clean_verdict(capsys, tmp_path, level):
    # x^2 + 1 <= 0 holds nowhere, yet its coefficients 2, 0, 2 are not all
    # positive: only the LP (the middle cap is 1/2) shows it
    path = _write_problem(tmp_path, "empty_lp", {
        "dimension": 1,
        "objective": [{"exponents": [1], "coeff": 1}],
        "box": {"lower": [-1], "upper": [1]},
        "constraints_poly": [
            [{"exponents": [2], "coeff": 1}, {"exponents": [0], "coeff": 1}]
        ],
    })
    for arith in ("float", "rational"):
        code, out, _ = _run(
            capsys, ["bnb", "--level", level, "--arith", arith, "--output", "json", path]
        )
        assert code == 2
        sec = json.loads(out)["bnb"]
        assert sec["lower"] is None and sec["upper"] is None and sec["witness"] is None
        assert not sec["converged"]
        assert sec["stats"]["infeasible_count"] == 1
    code, out, _ = _run(capsys, ["relax", "--level", level, "--output", "json", path])
    assert code == 0
    assert json.loads(out)["bounds"]["p1" if level == "1" else "p2"] is None


def test_lp_work_in_json_reports(capsys, fixture_dir):
    path = str(fixture_dir / "himmelblau.json")
    code, out, _ = _run(capsys, ["relax", "--level", "2", "--output", "json", path])
    bounds = json.loads(out)["bounds"]
    assert bounds["p2_pivots"] > 0 and bounds["p2_iterations"] > 0
    for level, positive in (("2", True), ("0", False)):
        code, out, _ = _run(capsys, ["bnb", "--level", level, "--eps", "1e-3", "--output", "json", path])
        stats = json.loads(out)["bnb"]["stats"]
        assert (stats["lp_solves"] > 0) == positive
        assert (stats["lp_pivots"] > 0) == positive
        assert stats["lp_fallbacks"] == 0


def test_lyapunov_rational_mode_rejects_negative_certificate(capsys, tmp_path):
    # V = x^2 - 1e-10 is negative at the origin: the exact verdict rejects
    # it and reports the V bound exactly, -1/10^10
    path = tmp_path / "neg.json"
    path.write_text(json.dumps({
        "name": "neg", "dimension": 1, "variables": ["x"], "V": "x^2-0.0000000001",
        "odes": ["-x"], "region": {"lower": [-1], "upper": [1]},
    }))
    with pytest.warns(UserWarning):
        code, out, _ = _run(
            capsys, ["lyapunov", "--arith", "rational", "--output", "json", str(path)]
        )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["stable"] is False
    assert report["verdict"]["v_bound"] == -1e-10
    assert report["verdict"]["exact_bounds"] == {"v_bound": "-1/10000000000", "vdot_bound": "0"}
    with pytest.warns(UserWarning):
        _, out, _ = _run(capsys, ["lyapunov", "--arith", "rational", str(path)])
    assert "NOT verified" in out and "(= -1/10000000000)" in out


def test_bench_says_whose_verdict_expected_is(capsys):
    # lyap7's expected "pass" is the unrounded source certificate's; the
    # bundled rounded one is rejected, and the report says why
    code, out, _ = _run(capsys, ["bench", "--output", "json", "lyap7"])
    (row,) = json.loads(out)["results"]
    assert row["expected"] == "pass" and row["stable"] is False
    assert "unrounded source certificate" in row["note"] and "-1/5000" in row["note"]
    code, out, _ = _run(capsys, ["bench", "lyap7"])
    assert "DIFFERS" in out and "note: expected_verdict is that of the unrounded" in out


def test_lyapunov_rational_mode_keeps_a_vanishing_derivative_exact(capsys, tmp_path):
    # the harmonic oscillator conserves V = x^2 + y^2, so -dV/dt cancels to
    # the polynomial with no terms; its exact bound is still a Fraction
    path = tmp_path / "osc.json"
    path.write_text(json.dumps({
        "name": "osc", "dimension": 2, "variables": ["x", "y"], "V": "x^2+y^2",
        "odes": ["y", "-x"], "region": {"lower": [-1, -1], "upper": [1, 1]},
    }))
    code, out, _ = _run(
        capsys, ["lyapunov", "--arith", "rational", "--output", "json", str(path)]
    )
    assert code == 0
    verdict = json.loads(out)["verdict"]
    assert verdict["stable"] is True
    assert verdict["exact_bounds"] == {"v_bound": "0", "vdot_bound": "0"}


@pytest.mark.parametrize(
    "region, message",
    [({"lower": [None], "upper": [1]}, "bad coefficient None"), (None, "missing key 'region'")],
    ids=["null bound", "no region"],
)
def test_lyapunov_bad_region_is_a_clean_error(capsys, tmp_path, region, message):
    data = {"name": "bad", "dimension": 1, "variables": ["x"], "V": "x^2", "odes": ["-x"]}
    if region is not None:
        data["region"] = region
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    for arith in ("float", "rational"):
        code, out, err = _run(capsys, ["lyapunov", "--arith", arith, str(path)])
        assert code == 1 and out == ""
        assert err.startswith("error:") and message in err and "Traceback" not in err


_CLEAN_PROBLEM = {
    "dimension": 1,
    "objective": [{"exponents": [2], "coeff": 1}],
    "box": {"lower": [-1], "upper": [1]},
}


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("box", [[-1], [1]], '"box" must be an object'),
        ("box", {"lower": -1, "upper": 1}, '"box" must be an object'),
        ("objective", {"exponents": [2], "coeff": 1}, "list of term objects"),
        ("objective", [[2, 1]], "list of term objects"),
        ("dimension", [1], '"dimension" must be an integer'),
        ("constraints_poly", 5, '"constraints_poly" must be a list'),
        ("constraints_poly", [{"exponents": [1], "coeff": 1}], "list of term objects"),
        ("constraints_linear", [[1]], '"constraints_linear" must be an object'),
        ("constraints_linear", {"A": [1], "b": [1]}, '"constraints_linear" must be an object'),
        ("epsilon", "x", '"epsilon" must be a number'),
        # exponents once read with int(): 2.5 and "2" as 2, true as 1
        ("objective", [{"exponents": [2.5], "coeff": 1}], "must be non-negative integers"),
        ("objective", [{"exponents": ["2"], "coeff": 1}], "must be non-negative integers"),
        ("objective", [{"exponents": [True], "coeff": 1}], "must be non-negative integers"),
        # once a ZeroDivisionError traceback
        ("objective", [{"exponents": [2], "coeff": "1/0"}], "bad coefficient '1/0'"),
        ("box", {"lower": ["1/0"], "upper": [1]}, "bad coefficient '1/0'"),
        ("constraints_linear", {"A": [["1/0"]], "b": [1]}, "bad coefficient '1/0'"),
        # once a TypeError traceback, a run with epsilon 1 and an echoed true
        ("dimension", True, '"dimension" must be an integer'),
        ("epsilon", True, '"epsilon" must be a number'),
        ("known_optimum", True, '"known_optimum" must be a number'),
        # once echoed as a Python repr: "problem {'a': 1}"
        ("name", {"a": 1}, '"name" must be a string'),
        ("name", [1], '"name" must be a string'),
    ],
    ids=[
        "box as a list", "box bounds as numbers", "objective as one term", "terms as lists",
        "dimension as a list", "constraints as a number", "constraint as one term",
        "linear constraints as a list", "linear row as a number", "epsilon as a string",
        "float exponent", "string exponent", "bool exponent", "zero denominator coefficient",
        "zero denominator box bound", "zero denominator linear entry", "bool dimension",
        "bool epsilon", "bool known optimum", "name as an object", "name as a list",
    ],
)
def test_bnb_wrongly_shaped_problem_is_a_clean_error(capsys, tmp_path, key, value, message):
    path = _write_problem(tmp_path, "bad", {**_CLEAN_PROBLEM, key: value})
    code, out, err = _run(capsys, ["bnb", path])
    assert code == 1 and out == ""
    assert err.startswith("error:") and message in err and "Traceback" not in err


def test_file_epsilon_is_used_when_present(capsys, tmp_path):
    # a file's epsilon of 0 was once replaced by 1e-6; --eps 0 is an error too
    path = _write_problem(tmp_path, "eps", {**_CLEAN_PROBLEM, "epsilon": 0})
    for argv in (["bnb", path], ["bnb", "--eps", "0", _write_problem(tmp_path, "ok", _CLEAN_PROBLEM)]):
        code, out, err = _run(capsys, argv)
        assert code == 1 and out == "" and err == "error: epsilon must be positive\n"
    # --eps overrides the file's value
    code, out, _ = _run(capsys, ["bnb", "--eps", "1e-6", path])
    assert code == 0 and "converged: True" in out


# "variables" left out: one dimension defaults to x
_CLEAN_CASE = {
    "dimension": 1, "V": "x^2", "odes": ["-x"],
    "region": {"lower": [-1], "upper": [1]},
}


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("region", [[-1], [1]], '"region" must be an object'),
        ("V", 5, "a polynomial must be a string, got 5"),
        ("odes", "-x", '"odes" must be a list of strings'),
        ("odes", [3], "a polynomial must be a string, got 3"),
        ("dimension", [1], '"dimension" must be an integer'),
        ("variables", 5, '"variables" must be a list of names'),
        ("variables", [0], '"variables" must be a list of names'),
        # powers once read as x^2 + 1/2, x - 1 and x
        ("V", "x^2.5", "cannot parse polynomial"),
        ("V", "x^-1", "cannot parse polynomial"),
        ("V", "x^", "cannot parse polynomial"),
        # once read as 23x^2
        ("V", "2 3x^2", "whitespace inside a term"),
        # once a ZeroDivisionError traceback
        ("region", {"lower": ["1/0"], "upper": [1]}, "bad coefficient '1/0'"),
        # once read as dimension 1
        ("dimension", True, '"dimension" must be an integer'),
        # once blamed on a "variables" key the file does not have
        ("dimension", 4, '"variables" is required for dimension 4 > 3'),
        # once read as x_1^2 and verified, and as "unknown variable 'x'"
        ("variables", ["x", "x"], "1 distinct single letters"),
        ("variables", ["xy"], "1 distinct single letters"),
        ("variables", ["x", "y"], "1 distinct single letters"),
        ("odes", ["-x", "-x"], "vector field length does not match dimension"),
        # once echoed as a Python repr, or compared with "pass" whatever it was
        ("name", [1], '"name" must be a string'),
        ("note", 5, '"note" must be a string'),
        ("expected_verdict", "yes", '"expected_verdict" must be "pass" or "fail"'),
        ("expected_verdict", True, '"expected_verdict" must be "pass" or "fail"'),
    ],
    ids=[
        "region as a list", "V as a number", "odes as a string", "ode as a number",
        "dimension as a list", "variables as a number", "variable as a number",
        "fractional power", "negative power", "power without digits", "space inside a term",
        "zero denominator region bound", "bool dimension", "four variables unnamed",
        "repeated variable",
        "two-letter variable", "too many variables", "too many odes", "name as a list",
        "note as a number", "unknown verdict", "bool verdict",
    ],
)
def test_lyapunov_wrongly_shaped_case_is_a_clean_error(capsys, tmp_path, key, value, message):
    path = _write_problem(tmp_path, "bad", {**_CLEAN_CASE, key: value})
    code, out, err = _run(capsys, ["lyapunov", path])
    assert code == 1 and out == ""
    assert err.startswith("error:") and message in err and "Traceback" not in err


@pytest.mark.parametrize("dim", [0, -1])
@pytest.mark.parametrize("arith", ["float", "rational"])
def test_dimension_below_one_is_a_clean_error(capsys, tmp_path, arith, dim):
    # once an IndexError traceback (lyapunov), "point length mismatch" in
    # float and p0 = 3 in rational (relax), and a box "dimension" mismatch
    problem = _write_problem(tmp_path, "p", {
        "dimension": dim, "objective": [{"exponents": [], "coeff": 3}],
        "box": {"lower": [], "upper": []},
    })
    case = _write_problem(tmp_path, "c", {
        "dimension": dim, "V": "-1", "odes": [], "variables": [],
        "region": {"lower": [], "upper": []},
    })
    for mode, path in (("relax", problem), ("bnb", problem), ("lyapunov", case)):
        code, out, err = _run(capsys, [mode, "--arith", arith, path])
        assert code == 1 and out == ""
        assert err == f'error: "dimension" must be a positive integer, got {dim}\n'


def test_bnb_reports_early_stops(capsys, fixture_dir):
    # boxes whose bound reaches the incumbent cutoff before the full level-2
    # cut loop ends stop there, and the JSON report counts them
    path = str(fixture_dir / "himmelblau.json")
    code, out, _ = _run(capsys, ["bnb", "--level", "2", "--output", "json", path])
    assert code == 0
    stats = json.loads(out)["bnb"]["stats"]
    assert 0 < stats["early_stops"] <= stats["subdivisions"] + stats["edge_subdivisions"]
    # closures by reason sit beside the cutoff, monotone and infeasible counts
    assert stats["infeasible_count"] == 0 and stats["min_width_count"] == 0
    assert stats["budget_count"] == 0
    # and the cut loop's work beside the LP counters
    assert stats["cut_rounds"] > 0 and stats["rows_activated"] > 0


def test_bench_loads_the_registry_once(capsys, monkeypatch):
    # one load in the run's field serves the names and every case
    import bernpop.lyapunov as lyap_mod

    real, calls = lyap_mod.benchmark_registry, []

    def counted(exact=False):
        calls.append(exact)
        return real(exact)

    monkeypatch.setattr(lyap_mod, "benchmark_registry", counted)
    for arith, exact in (("float", False), ("rational", True)):
        calls.clear()
        names = ["unitsq", "square1d", "lyap1", "lyap3"]
        code, out, _ = _run(capsys, ["bench", "--arith", arith, "--output", "json", *names])
        assert code == 0 and calls == [exact]
        assert [r["label"] for r in json.loads(out)["results"]] == names


def _one_variable_problem(tmp_path, terms, bound):
    return _write_problem(tmp_path, "big", {
        "dimension": 1,
        "objective": [{"exponents": [e], "coeff": c} for e, c in terms],
        "box": {"lower": [-bound], "upper": [bound]},
    })


@pytest.mark.parametrize(
    "terms, bound, level, output",
    [
        ([(2, 1), (0, -1)], 1e200, "0", "text"),  # once an OverflowError traceback
        ([(2, 1e300)], 1e10, "2", "text"),  # once "bounds: [inf, 0]  converged: True"
        ([(2, 1e300)], 1e10, "2", "json"),  # once "Out of range float values"
        ([(2, 1e300), (1, -1e300)], 1e10, "0", "text"),  # once a NaN warning, then a bad split
    ],
    ids=["box overflow", "infinite bound", "infinite bound json", "nan tensor"],
)
def test_float_overflow_is_a_clean_error(capsys, tmp_path, terms, bound, level, output):
    path = _one_variable_problem(tmp_path, terms, bound)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, ["bnb", "--level", level, "--output", output, path])
        assert code == 1 and out == ""
        assert err.startswith("error:") and "--arith rational" in err
        # the run the message points to solves the problem exactly
        code, out, err = _run(capsys, ["bnb", "--level", "0", "--arith", "rational", path])
        assert code == 0 and err == ""


def test_float_overflow_in_a_certificate_is_a_clean_error(capsys, tmp_path):
    region = {"lower": [-1e200], "upper": [1e200]}
    path = _write_problem(tmp_path, "big", {**_CLEAN_CASE, "region": region})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, ["lyapunov", path])
        assert code == 1 and out == ""
        assert err.startswith("error:") and "--arith rational" in err
        code, out, _ = _run(capsys, ["lyapunov", "--arith", "rational", path])
        assert code == 0 and "verified" in out


def test_exact_result_beyond_binary64_is_reported(capsys, tmp_path):
    # min of 1e300 x^2 on [1e10, 2e10] is 10^320, beyond binary64: it once
    # ended in "error: integer division result too large for a float"
    path = _write_problem(tmp_path, "big", {
        "dimension": 1,
        "objective": [{"exponents": [2], "coeff": 1e300}],
        "box": {"lower": [1e10], "upper": [2e10]},
    })
    exact = str(10**320)
    code, out, err = _run(capsys, ["bnb", "--level", "0", "--arith", "rational", "--output", "json", path])
    assert code == 0 and err == ""
    sec = json.loads(out, parse_constant=_reject_non_finite)["bnb"]
    assert sec["lower"] is None and sec["upper"] is None
    assert sec["exact_bounds"] == {"lower": exact, "upper": exact}
    assert sec["witness"] == {"float": [1e10], "exact": ["10000000000"]}
    code, out, err = _run(capsys, ["bnb", "--level", "0", "--arith", "rational", path])
    assert code == 0 and err == "" and f"bounds: [{exact}, {exact}]" in out
    code, out, err = _run(capsys, ["relax", "--level", "0", "--arith", "rational", "--output", "json", path])
    report = json.loads(out, parse_constant=_reject_non_finite)
    assert code == 0 and report["bounds"]["p0"] is None and report["exact_bounds"]["p0"] == exact
    code, out, err = _run(capsys, ["relax", "--level", "0", "--arith", "rational", path])
    assert code == 0 and err == "" and f"p0 = {exact}" in out


def _reject_non_finite(name):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.mark.parametrize("arith", ["float", "rational"])
def test_exhausted_bnb_prints_strict_json(capsys, fixture_dir, arith):
    # a budget that cut an edge subproblem off before its first box once
    # printed a lower bound of -Infinity
    path = str(fixture_dir / "himmelblau.json")
    argv = ["bnb", "--level", "0", "--max-boxes", "22", "--arith", arith, "--output", "json", path]
    code, out, _ = _run(capsys, argv)
    assert code == 2
    sec = json.loads(out, parse_constant=_reject_non_finite)["bnb"]
    assert not sec["converged"] and sec["lower"] <= 0.0 <= sec["upper"]
    assert sec["stats"]["budget_count"] > 0


def test_non_finite_report_value_is_a_clean_error(capsys, monkeypatch, fixture_dir):
    import bernpop.bnb as bnb_mod

    real = bnb_mod.branch_and_bound

    def non_finite(*args, **kwargs):
        res = real(*args, **kwargs)
        res.lower_bound = float("-inf")
        return res

    monkeypatch.setattr(bnb_mod, "branch_and_bound", non_finite)
    path = str(fixture_dir / "unitsq.json")
    code, out, err = _run(capsys, ["bnb", "--output", "json", path])
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
