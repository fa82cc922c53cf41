import json
from pathlib import Path

import pytest

from bernpop.cli import main
from bernpop.problems import canonical_json


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
    for col in ("ID", "Ineq", "Sub", "Time", "Cutoff", "Mono", "Sub*", "Cutoff*", "Time*", "Opt"):
        assert col in header


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


@pytest.mark.parametrize("level", ["0", "1", "2"])
def test_bnb_prunes_infeasible_boxes(capsys, tmp_path, level):
    # minimise x^2 + y^2 - x on [-1,1]^2 subject to x + 1/2 <= 0; optimum 3/4 at (-1/2, 0)
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
    code, out, _ = _run(capsys, ["bnb", "--level", level, "--output", "json", path])
    assert code == 0
    sec = json.loads(out)["bnb"]
    assert sec["converged"]
    assert sec["lower"] <= 0.75 <= sec["upper"] <= 0.75 + 1e-6
    assert sec["witness"] == pytest.approx([-0.5, 0.0], abs=1e-3)
    assert sec["witness"][0] <= -0.5
    assert sec["stats"]["infeasible_count"] > 0


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
