import warnings
from fractions import Fraction

import pytest

from bernpop.lyapunov import (
    STABILITY_TOL,
    LyapunovCase,
    benchmark_registry,
    certify_nonnegative,
    default_config,
    load_lyapunov_case,
    verify_lyapunov,
)
from bernpop.poly import Box, Polynomial, lie_derivative
from bernpop.problems import load_fixture
from conftest import cross_check_appendix_derivatives


@pytest.fixture(scope="module")
def registry():
    return benchmark_registry()


def test_registry_has_nine_cases(registry):
    assert sorted(registry["lyapunov"]) == [f"lyap{k}" for k in range(1, 10)]
    expected = {"lyap2": "fail", "lyap8": "fail"}
    for name, case in registry["lyapunov"].items():
        assert case.expected_verdict == expected.get(name, "pass")
        assert case.region.lower == (-1.0,) * case.v.dimension
        assert case.v.eval((0.0,) * case.v.dimension) == 0


def test_first_case_flow_derivative_matches_print(registry):
    reports = {r["name"]: r for r in cross_check_appendix_derivatives(registry, tol=1e-9)}
    assert reports["lyap1"]["match"]
    assert reports["lyap3"]["match"]
    assert reports["lyap4"]["match"]
    assert reports["lyap5"]["match"]


def test_transcription_glitch_is_reported_not_trusted(registry):
    # the printed derivative of case 9 drops one factor in a -x*z^4 term;
    # the report flags it and the verifier works off the recomputed one
    reports = {r["name"]: r for r in cross_check_appendix_derivatives(registry)}
    assert not reports["lyap9"]["match"]
    diffs = reports["lyap9"]["diffs"]
    assert (1, 0, 4) in diffs
    case = registry["lyapunov"]["lyap9"]
    vdot = lie_derivative(case.v, case.odes)
    assert vdot.terms[(1, 0, 4)] == pytest.approx(-1.0)


def test_certify_simple_nonnegative():
    p = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0})
    run = certify_nonnegative(p, Box((-1.0, -1.0), (1.0, 1.0)))
    assert run.lower_bound >= -STABILITY_TOL


def test_certify_zero_polynomial_exactly():
    # the field comes from the configuration, not from the coefficients:
    # a polynomial with no terms still gets a Fraction bound in exact mode
    cfg = default_config()
    cfg.exact = True
    box = Box((Fraction(-1),) * 2, (Fraction(1),) * 2)
    run = certify_nonnegative(Polynomial.zero(2), box, cfg)
    assert run.lower_bound == 0 and isinstance(run.lower_bound, Fraction)
    assert run.verified_boxes == run.nodes == 1


def test_certify_detects_negative_values():
    p = Polynomial(1, {(2,): 1.0, (0,): -0.5})  # x^2 - 0.5
    run = certify_nonnegative(p, Box((-1.0,), (1.0,)))
    assert run.lower_bound <= -0.5 + 1e-9


def test_verify_case1_stable(registry):
    verdict = verify_lyapunov(registry["lyapunov"]["lyap1"])
    assert verdict.stable
    assert verdict.v_bound >= -STABILITY_TOL
    assert verdict.vdot_bound >= -STABILITY_TOL


def test_verify_case2_rejected_with_published_obstacle(registry):
    verdict = verify_lyapunov(registry["lyapunov"]["lyap2"])
    assert not verdict.stable
    assert verdict.v_bound == pytest.approx(-0.0625, abs=1e-9)
    assert verdict.vdot_bound >= -STABILITY_TOL


def test_verify_case3_stable(registry):
    verdict = verify_lyapunov(registry["lyapunov"]["lyap3"])
    assert verdict.stable


def test_verify_case8_rejected(registry):
    verdict = verify_lyapunov(registry["lyapunov"]["lyap8"])
    assert not verdict.stable
    assert verdict.v_bound <= -10.97


def test_ode_system_validation():
    # one vector-field component per variable, each in every variable
    with pytest.raises(ValueError):
        lie_derivative(Polynomial.variable(2, 0), (Polynomial.variable(2, 0),))
    with pytest.raises(ValueError):
        lie_derivative(Polynomial.variable(1, 0), (Polynomial.variable(2, 0),))


def test_nonzero_at_origin_warns():
    v = Polynomial(1, {(2,): 1.0, (0,): 1.0})
    case = LyapunovCase(
        name="shifted",
        odes=(Polynomial(1, {(1,): -1.0}),),
        v=v,
        region=Box((-1.0,), (1.0,)),
        expected_verdict="pass",
    )
    with pytest.warns(UserWarning):
        verify_lyapunov(case)


def test_budget_exhaustion_reports_conservative_bound():
    p = Polynomial(2, {(2, 0): 1.0, (1, 1): -0.8, (0, 2): 1.0})
    cfg = default_config(max_boxes=2)
    run = certify_nonnegative(p, Box((-1.0, -1.0), (1.0, 1.0)), cfg)
    assert run.exhausted
    assert run.lower_bound <= 0.0


# V = x^2 - 1e-10 is negative at the origin, by 1/10^10
_NEGATIVE_AT_ORIGIN = {
    "name": "neg", "dimension": 1, "variables": ["x"], "V": "x^2-0.0000000001",
    "odes": ["-x"], "region": {"lower": [-1], "upper": [1]},
}


def test_exact_verdict_is_a_proof():
    # exact mode closes boxes and judges on bound >= 0, with no slack, and
    # keeps the bound a Fraction; float mode keeps its 1e-9 slack
    cfg = default_config()
    cfg.exact = True
    with pytest.warns(UserWarning):
        exact = verify_lyapunov(load_lyapunov_case(_NEGATIVE_AT_ORIGIN, exact=True), cfg)
    assert not exact.stable
    assert exact.v_bound == Fraction(-1, 10**10) and isinstance(exact.v_bound, Fraction)
    assert exact.vdot_bound == 0
    with pytest.warns(UserWarning):
        floating = verify_lyapunov(load_lyapunov_case(_NEGATIVE_AT_ORIGIN))
    assert floating.stable and floating.v_bound == pytest.approx(-1e-10)


def test_exact_certification_on_float_box_computes_in_fractions():
    # x^2 - xy/2 + y^2 on [-1, 1]^2: the float region is converted to
    # Fractions (exactly), so the bound is the Fraction-region one, -1/128
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    p = x * x - (x * y).scale(Fraction(1, 2)) + y * y
    cfg = default_config()
    cfg.exact = True
    on_floats = certify_nonnegative(p, Box((-1.0, -1.0), (1.0, 1.0)), cfg)
    on_fractions = certify_nonnegative(p, Box((Fraction(-1),) * 2, (Fraction(1),) * 2), cfg)
    assert isinstance(on_floats.lower_bound, Fraction)
    assert on_floats.lower_bound == on_fractions.lower_bound == Fraction(-1, 128)
    assert (on_floats.nodes, on_floats.verified_boxes, on_floats.stalled_boxes) == (
        on_fractions.nodes, on_fractions.verified_boxes, on_fractions.stalled_boxes
    )


def test_exact_verdict_on_float_data_is_exact_in_that_data():
    # lyap7 read in floats and verified exactly: V and f are converted to
    # Fractions before dV/dt is formed, so the bounds are those of the
    # Fraction(c) case, not of a float-rounded dV/dt
    floats = load_lyapunov_case(load_fixture("lyap7"))
    fractions = LyapunovCase(
        floats.name,
        tuple(f.convert(Fraction) for f in floats.odes),
        floats.v.convert(Fraction), floats.region, floats.expected_verdict,
    )
    cfg = default_config()
    cfg.exact = True
    got, want = verify_lyapunov(floats, cfg), verify_lyapunov(fractions, cfg)
    assert isinstance(got.vdot_bound, Fraction) and isinstance(got.v_bound, Fraction)
    assert (got.v_bound, got.vdot_bound, got.stable) == (want.v_bound, want.vdot_bound, want.stable)
    assert got.vdot_bound == pytest.approx(-2.0000000000042e-4, rel=1e-12)


# V = x^2 - 1e-13 is negative at the origin, by less than float mode's 1e-12
_SLIGHTLY_NEGATIVE_AT_ORIGIN = dict(_NEGATIVE_AT_ORIGIN, V="x^2-0.0000000000001")


@pytest.mark.parametrize("exact", [False, True])
def test_exact_mode_warns_on_any_nonzero_value_at_origin(exact):
    # exact mode warns on any V(0) != 0 and rejects V; float mode keeps
    # both its 1e-12 warning threshold and its 1e-9 verdict slack
    cfg = default_config()
    cfg.exact = exact
    case = load_lyapunov_case(_SLIGHTLY_NEGATIVE_AT_ORIGIN, exact)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        verdict = verify_lyapunov(case, cfg)
    messages = [str(w.message) for w in caught]
    assert messages == (["neg: V(0) = -1/10000000000000, expected 0"] if exact else [])
    assert verdict.stable is not exact


def test_region_bounds_parse_as_problem_boxes_do():
    # decimals read exactly in rational mode, "p/q" strings in both modes
    data = dict(_NEGATIVE_AT_ORIGIN, region={"lower": ["-1/3"], "upper": [0.1]})
    exact = load_lyapunov_case(data, exact=True).region
    assert exact == Box((Fraction(-1, 3),), (Fraction(1, 10),))
    assert load_lyapunov_case(data).region == Box((-1 / 3,), (0.1,))


@pytest.mark.parametrize(
    "region",
    [None, {"lower": [None], "upper": [1]}, {"upper": [1]}],
    ids=["no region", "null", "no lower"],
)
def test_bad_region_is_a_value_error(region):
    data = {k: v for k, v in _NEGATIVE_AT_ORIGIN.items() if k != "region"}
    if region is not None:
        data["region"] = region
    for exact in (False, True):
        with pytest.raises(ValueError):
            load_lyapunov_case(data, exact)


@pytest.mark.parametrize("exact", [False, True])
def test_level2_certification_builds_one_cut_matrix(monkeypatch, exact):
    # every box of a level-2 run shares one cut matrix, as branch-and-bound's
    # boxes do; it was once rebuilt for each box
    import bernpop.lyapunov
    import bernpop.relax

    build, calls = bernpop.relax.build_cut_matrix, []

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(bernpop.relax, "build_cut_matrix", counted)
    monkeypatch.setattr(bernpop.lyapunov, "build_cut_matrix", counted, raising=False)
    cfg = default_config()
    cfg.level, cfg.exact = "2", exact
    p = Polynomial(2, {(2, 0): 1.0, (1, 1): -0.8, (0, 2): 1.0})
    run = certify_nonnegative(p, Box((-1.0, -1.0), (1.0, 1.0)), cfg)
    assert run.nodes > 1 and calls == [((2, 2), exact)]
