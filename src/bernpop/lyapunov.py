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
from .bnb import MIN_BOX_WIDTH, SPLIT_ZERO, BnbConfig, relaxation_tensors, split_node
from .poly import Box, Polynomial, lie_derivative
from .poly import to_unit_box  # noqa: F401  (unused; perfbench/spans.py traces this binding)
from .problems import (
    checked,
    load_fixture,
    load_problem,
    lyapunov_fixture_names,
    parse_box,
    poly_from_text,
    pop_fixture_names,
    read_json_object,
)
from .relax import LEVEL_FIRST, bound_at_level

# a float-mode certificate counts as verified once both bounds clear this
# precision; exact mode needs both bounds >= 0
STABILITY_TOL = 1e-9

# minimal per-two-generations improvement factor; h^2 scaling of a
# quadratic equilibrium gap is exactly 4 per two bisections
_STALL_FACTOR = 4


@dataclass(frozen=True)
class OdeSystem:
    dimension: int
    f: tuple

    def __post_init__(self):
        if len(self.f) != self.dimension:
            raise ValueError("vector field length does not match dimension")
        for component in self.f:
            if component.dimension != self.dimension:
                raise ValueError("vector field component dimension mismatch")


@dataclass(frozen=True)
class LyapunovCase:
    name: str
    system: OdeSystem
    v: Polynomial
    region: Box
    expected_verdict: str  # "pass" | "fail"
    printed_vdot: Optional[Polynomial] = None
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
    # the region's coefficient tensor is the only conversion; every other
    # box gets its tensor by splitting its parent's
    (root,) = relaxation_tensors(p, (), region, exact=F.exact)
    u = upper_bounds(p.degree, exact=F.exact)
    # depth-first entries: (box, tensor, gray ancestor bounds, guaranteed
    # parent bound); the history restarts once a box lies in a single
    # orthant, because the zero-decomposition splits before that are
    # structural, not chasing
    stack: list[tuple[Box, object, tuple, object]] = [(region, root, (), None)]
    while stack:
        if run.nodes >= cfg.max_boxes:
            run.exhausted = True
            for _, _, _, guaranteed in stack:
                fallback = -float("inf") if guaranteed is None else guaranteed
                if lower is None or fallback < lower:
                    lower = fallback
            break
        box, tensor, hist, _ = stack.pop()
        run.nodes += 1
        outcome = bound_at_level(BernsteinForm(tensor), cfg.level, u=u)
        bound = outcome.bound
        straddles = any(lo < 0 < hi for lo, hi in zip(box.lower, box.upper))
        if bound >= threshold:
            run.verified_boxes += 1
        elif not straddles and len(hist) >= 2 and bound <= hist[-2] / _STALL_FACTOR:
            run.stalled_boxes += 1
        elif box.width(box.widest_axis()) <= MIN_BOX_WIDTH:
            run.stalled_boxes += 1
        else:
            child_hist = () if straddles else hist + (bound,)
            for child, (child_tensor,) in split_node(box, (tensor,), SPLIT_ZERO):
                stack.append((child, child_tensor, child_hist, bound))
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
    vdot = lie_derivative(v, [f.convert(F.of) for f in case.system.f])
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
    """Build a case from a fixture dict, JSON text or JSON file with
    plain-text polys."""
    data, _ = read_json_object(source, "Lyapunov case file")
    try:
        dim = checked(data["dimension"], int, '"dimension" must be an integer')
        variables = data.get("variables", ["x", "y", "z"][:dim])
        for name in checked(variables, list, '"variables" must be a list of names'):
            checked(name, str, '"variables" must be a list of names')
        v = poly_from_text(data["V"], variables, exact)
        odes = checked(data["odes"], list, '"odes" must be a list of strings')
        f = tuple(poly_from_text(ode, variables, exact) for ode in odes)
        region = parse_box(data, "region", exact)
    except KeyError as missing:
        raise ValueError(f"Lyapunov case file is missing key {missing}") from None
    printed = None
    if data.get("printed_vdot"):
        printed = poly_from_text(data["printed_vdot"], variables, exact)
    return LyapunovCase(
        name=data.get("name", "case"),
        system=OdeSystem(dim, f),
        v=v,
        region=region,
        expected_verdict=data.get("expected_verdict", "pass"),
        printed_vdot=printed,
        note=data.get("note"),
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

