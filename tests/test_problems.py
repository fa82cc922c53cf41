import json
from fractions import Fraction

import pytest

from bernpop.problems import (
    canonical_json,
    load_fixture,
    load_problem,
    lyapunov_fixture_names,
    parse_coeff,
    poly_from_terms,
    pop_fixture_names,
    read_json_object,
)


def test_parse_coeff_string_rational():
    assert parse_coeff("1/3", exact=True) == Fraction(1, 3)
    assert parse_coeff("1/3") == pytest.approx(1 / 3)
    assert parse_coeff(-11, exact=True) == Fraction(-11)
    assert parse_coeff(0.5, exact=True) == Fraction(1, 2)


def test_parse_coeff_rejects_junk():
    with pytest.raises(ValueError):
        parse_coeff(None)
    with pytest.raises(ValueError):
        parse_coeff("abc")


def test_poly_from_terms_merges_and_validates():
    p = poly_from_terms(
        2,
        [
            {"exponents": [1, 0], "coeff": 1},
            {"exponents": [1, 0], "coeff": 2},
        ],
    )
    assert p.terms == {(1, 0): 3.0}
    with pytest.raises(ValueError):
        poly_from_terms(2, [{"exponents": [1], "coeff": 1}])


def test_load_problem_full_schema():
    data = {
        "dimension": 2,
        "objective": [{"exponents": [2, 0], "coeff": 1}],
        "box": {"lower": [0, 0], "upper": [1, 1]},
        "constraints_poly": [[{"exponents": [1, 0], "coeff": 1}]],
        "constraints_linear": {"A": [[1, 1]], "b": [1]},
    }
    prob = load_problem(data)
    assert prob.objective.terms == {(2, 0): 1.0}
    assert len(prob.constraints_poly) == 2
    assert prob.constraints_poly[1].terms == {(0, 0): -1.0, (1, 0): 1.0, (0, 1): 1.0}


def test_linear_rows_load_as_polynomial_constraints():
    data = {
        "dimension": 2,
        "objective": [{"exponents": [2, 0], "coeff": 1}],
        "box": {"lower": [0, 0], "upper": [1, 1]},
        "constraints_poly": [[{"exponents": [1, 0], "coeff": 1}]],
        "constraints_linear": {"A": [[0.1, -2], [0, 3]], "b": ["1/3", 0]},
    }
    poly_g, row1, row2 = load_problem(data, exact=True).constraints_poly
    assert poly_g.terms == {(1, 0): 1}
    assert row1.terms == {(1, 0): Fraction(1, 10), (0, 1): -2, (0, 0): Fraction(-1, 3)}
    assert all(isinstance(c, Fraction) for c in row1.terms.values())
    assert row2.terms == {(0, 1): 3}
    assert row1.degree == (1, 1) and row2.degree == (0, 1)


def test_load_problem_missing_key():
    with pytest.raises(ValueError):
        load_problem({"dimension": 1})


def test_load_problem_dimension_mismatch():
    data = {
        "dimension": 2,
        "objective": [{"exponents": [2, 0], "coeff": 1}],
        "box": {"lower": [0], "upper": [1]},
    }
    with pytest.raises(ValueError):
        load_problem(data)


def test_bundled_fixture_names():
    assert set(pop_fixture_names()) >= {
        "himmelblau",
        "motzkin3",
        "algebraic4",
        "unitsq",
        "square1d",
    }
    assert lyapunov_fixture_names() == [f"lyap{k}" for k in range(1, 10)]


def test_himmelblau_fixture_contents():
    prob = load_problem(load_fixture("himmelblau"))
    assert prob.box.lower == (-5.0, -5.0) and prob.box.upper == (5.0, 5.0)
    assert prob.known_optimum == 0.0
    assert prob.objective.eval((3.0, 2.0)) == pytest.approx(0.0)


def test_registry_known_optima():
    assert load_problem(load_fixture("motzkin3")).known_optimum == 0.0
    alg = load_problem(load_fixture("algebraic4"))
    assert alg.known_optimum == -1.0
    assert alg.box.lower == (-0.1,) * 4
    assert alg.objective.eval((0.0,) * 4) == pytest.approx(-1.0)


def test_canonical_json_roundtrip():
    doc = {"b": [1, 2], "a": {"y": 0.5, "x": None}}
    once = canonical_json(doc)
    again = canonical_json(json.loads(once))
    assert once == again


def test_canonical_json_rejects_non_finite_values():
    for value in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError):
            canonical_json({"lower": value})


def test_read_json_object_from_path_text_or_dict(tmp_path):
    path = tmp_path / "case.json"
    path.write_text('{"a": 1}')
    assert read_json_object(str(path), "case file") == ({"a": 1}, "case")
    assert read_json_object(path, "case file") == ({"a": 1}, "case")
    assert read_json_object({"a": 1}, "case file") == ({"a": 1}, None)
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="case file must contain a JSON object"):
        read_json_object(path, "case file")
    # a string is always a path, never JSON text
    with pytest.raises(FileNotFoundError):
        read_json_object('{"a": 1}', "case file")
