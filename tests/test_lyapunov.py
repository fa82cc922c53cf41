from fractions import Fraction

import pytest

from bernpop.lyapunov import (
    STABILITY_TOL,
    LyapunovCase,
    OdeSystem,
    benchmark_registry,
    certify_nonnegative,
    default_config,
    load_lyapunov_case,
    verify_lyapunov,
)
from bernpop.poly import Box, Polynomial, lie_derivative
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
    vdot = lie_derivative(case.v, case.system.f)
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
    with pytest.raises(ValueError):
        OdeSystem(2, (Polynomial.variable(2, 0),))
    with pytest.raises(ValueError):
        OdeSystem(1, (Polynomial.variable(2, 0),))


def test_nonzero_at_origin_warns():
    v = Polynomial(1, {(2,): 1.0, (0,): 1.0})
    case = LyapunovCase(
        name="shifted",
        system=OdeSystem(1, (Polynomial(1, {(1,): -1.0}),)),
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
