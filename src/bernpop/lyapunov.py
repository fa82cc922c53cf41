"""Lyapunov-certificate verification and the bundled benchmark registry.

A candidate certificate V for dx/dt = f(x) proves asymptotic stability of
the origin on a region R when  min_R V >= 0  and  min_R -dV/dt >= 0.  Both
minima are lower-bounded by a certification-mode branch-and-bound with
zero-centered splitting, which decomposes R around the equilibrium where
the bounds have the best chance of being exact.

Certification differs from optimization in one way: since V(0) = 0, a box
touching the equilibrium can have a small negative relaxation bound that
improves like h^2 under bisection without ever certifying nonnegativity.
Chasing such boxes proves nothing, so a box whose bound has not improved
faster than the quadratic rate over two generations is abandoned and its
bound reported as the certification obstacle.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Optional

from .bernstein import BernsteinForm, field, upper_bounds
from .bernstein import to_bernstein  # noqa: F401  (unused; perfbench/spans.py traces this binding)
from .bnb import MIN_BOX_WIDTH, SPLIT_ZERO, BnbConfig, relaxation_tensors, split_boxes
from .poly import Box, Polynomial, lie_derivative
from .poly import to_unit_box  # noqa: F401  (unused; perfbench/spans.py traces this binding)
from .problems import (
    checked,
    load_fixture,
    load_problem,
    lyapunov_fixture_names,
    parse_box,
    parse_dimension,
    poly_from_text,
    pop_fixture_names,
    read_json_object,
)
from .relax import LEVEL_2, LEVEL_FIRST, bound_at_level, build_cut_matrix

# a float-mode certificate counts as verified once both bounds clear this
# precision; exact mode needs both bounds >= 0
STABILITY_TOL = 1e-9

# minimal per-two-generations improvement factor; h^2 scaling of a
# quadratic equilibrium gap is exactly 4 per two bisections
_STALL_FACTOR = 4


@dataclass(frozen=True)
class LyapunovCase:
    name: str
    odes: tuple  # the vector field f, one polynomial per variable
    v: Polynomial
    region: Box
    expected_verdict: str  # "pass" | "fail"
    note: Optional[str] = None  # what the fixture says about its verdict


@dataclass
class VerificationRun:
    lower_bound: object  # a Fraction in exact mode
    nodes: int
    verified_boxes: int
    stalled_boxes: int
    elapsed: float
    exhausted: bool


@dataclass
class Verdict:
    v_bound: object
    vdot_bound: object
    stable: bool
    v_run: VerificationRun
    vdot_run: VerificationRun


def default_config(max_boxes: int = 50_000) -> BnbConfig:
    """Certification reads a config's ``level``, ``max_boxes`` and ``exact``
    only: it splits at zero and closes boxes on ``STABILITY_TOL``."""
    return BnbConfig(level=LEVEL_FIRST, max_boxes=max_boxes)


def certify_nonnegative(p: Polynomial, region: Box, cfg: Optional[BnbConfig] = None) -> VerificationRun:
    """Lower-bound ``p`` over ``region`` for certification purposes.

    Boxes are resolved as verified, stalled (bound still negative but
    improving no faster than the equilibrium rate), or split further.
    ``p`` and ``region`` are first converted into the field of
    ``cfg.exact``.  In exact mode a box is verified on bound >= 0, a
    proof; float mode keeps a slack of ``STABILITY_TOL`` until its bounds
    carry a rounding error radius.  The returned lower bound is
    the minimum over resolved boxes (a Fraction in exact mode), so a stall
    reports the obstacle that blocked certification.
    """
    if cfg is None:
        cfg = default_config()
    F = field(cfg.exact)  # floats convert to Fractions exactly
    p = p.convert(F.of)
    region = Box(tuple(map(F.of, region.lower)), tuple(map(F.of, region.upper)))
    start = time.perf_counter()
    run = VerificationRun(0.0, 0, 0, 0, 0.0, False)
    lower = None
    threshold = -F.tol(STABILITY_TOL)
    # the region's Bernstein form is the only conversion; every other box
    # gets its form by splitting its parent's
    (root,) = relaxation_tensors(p, (), region, exact=F.exact)
    u = upper_bounds(p.degree, exact=F.exact)
    cuts = None if cfg.level != LEVEL_2 else build_cut_matrix(p.degree, F.exact)
    # depth-first entries: (lower corner, upper corner, form, gray ancestor
    # bounds, guaranteed parent bound); the history restarts once a box
    # lies in a single orthant, because the zero-decomposition splits
    # before that are structural, not chasing
    stack: list[tuple] = [(region.lower, region.upper, root, (), None)]
    while stack:
        if run.nodes >= cfg.max_boxes:
            run.exhausted = True
            for *_, guaranteed in stack:
                fallback = -float("inf") if guaranteed is None else guaranteed
                if lower is None or fallback < lower:
                    lower = fallback
            break
        box_lower, box_upper, bf, hist, _ = stack.pop()
        run.nodes += 1
        outcome = bound_at_level(bf, cfg.level, u=u, cuts=cuts)
        bound = outcome.bound
        straddles = any(lo < 0 < hi for lo, hi in zip(box_lower, box_upper))
        if bound >= threshold:
            run.verified_boxes += 1
        elif not straddles and len(hist) >= 2 and bound <= hist[-2] / _STALL_FACTOR:
            run.stalled_boxes += 1
        elif max(hi - lo for lo, hi in zip(box_lower, box_upper)) <= MIN_BOX_WIDTH:
            run.stalled_boxes += 1
        else:
            child_hist = () if straddles else hist + (bound,)
            # the box's one form, split as a stack of one
            children = split_boxes([(box_lower, box_upper)], bf.numer[None, None], SPLIT_ZERO)
            for lo, hi, block, factor in children:
                stack.append((lo, hi, BernsteinForm(block[0], bf.den * factor), child_hist, bound))
            continue
        if lower is None or bound < lower:
            lower = bound
    run.lower_bound = F.zero if lower is None else lower
    run.elapsed = time.perf_counter() - start
    return run


def verify_lyapunov(case: LyapunovCase, cfg: Optional[BnbConfig] = None) -> Verdict:
    """Check min V >= 0 and min -dV/dt >= 0 over the region: exactly in
    exact mode, within ``STABILITY_TOL`` in float mode.  V and the vector
    field are converted into the field of ``cfg.exact`` before dV/dt is
    formed, so an exact verdict on float data is exact in that data."""
    if cfg is None:
        cfg = default_config()
    F = field(cfg.exact)
    v = case.v.convert(F.of)
    v0 = v.eval(tuple(0 for _ in range(v.dimension)))
    if abs(v0) > F.tol(1e-12):
        warnings.warn(f"{case.name}: V(0) = {v0}, expected 0")
    vdot = lie_derivative(v, [f.convert(F.of) for f in case.odes])
    v_run = certify_nonnegative(v, case.region, cfg)
    vdot_run = certify_nonnegative(-vdot, case.region, cfg)
    tol = F.tol(STABILITY_TOL)
    stable = v_run.lower_bound >= -tol and vdot_run.lower_bound >= -tol
    return Verdict(
        v_bound=v_run.lower_bound,
        vdot_bound=vdot_run.lower_bound,
        stable=stable,
        v_run=v_run,
        vdot_run=vdot_run,
    )


# ---------------------------------------------------------------------------
# registry


def load_lyapunov_case(source, exact: bool = False) -> LyapunovCase:
    """A case from a fixture dict or a JSON file path, with plain-text polynomials."""
    data, _ = read_json_object(source, "Lyapunov case file")
    try:
        dim = parse_dimension(data)
        if dim > 3 and "variables" not in data:
            raise ValueError(f'"variables" is required for dimension {dim} > 3')
        variables = data.get("variables", ["x", "y", "z"][:dim])
        letters = isinstance(variables, list) and all(
            isinstance(v, str) and len(v) == 1 and v.isascii() and v.isalpha() for v in variables
        )
        if not letters or len(set(variables)) != len(variables) or len(variables) != dim:
            what = f'"variables" must be a list of names, {dim} distinct single letters'
            raise ValueError(f"{what}, got {variables!r}")
        v = poly_from_text(data["V"], variables, exact)
        odes = checked(data["odes"], list, '"odes" must be a list of strings')
        if len(odes) != dim:
            raise ValueError("vector field length does not match dimension")
        f = tuple(poly_from_text(ode, variables, exact) for ode in odes)
        region = parse_box(data, "region", exact)
    except KeyError as missing:
        raise ValueError(f"Lyapunov case file is missing key {missing}") from None
    verdict = data.get("expected_verdict", "pass")
    if verdict not in ("pass", "fail"):
        raise ValueError(f'"expected_verdict" must be "pass" or "fail", got {verdict!r}')
    return LyapunovCase(
        name=checked(data.get("name", "case"), str, '"name" must be a string'),
        odes=f,
        v=v,
        region=region,
        expected_verdict=verdict,
        note=checked(data.get("note"), (str, type(None)), '"note" must be a string'),
    )


def benchmark_registry(exact: bool = False) -> dict:
    """Every bundled benchmark: box-minimization problems under "pop" and
    certificate checks under "lyapunov"."""
    pops = {name: load_problem(load_fixture(name), exact) for name in pop_fixture_names()}
    lyap = {
        name: load_lyapunov_case(load_fixture(name), exact)
        for name in lyapunov_fixture_names()
    }
    return {"pop": pops, "lyapunov": lyap}

