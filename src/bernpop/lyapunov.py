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
from fractions import Fraction
from typing import Optional

from .bernstein import BernsteinForm, to_bernstein, upper_bounds
from .bnb import SPLIT_ZERO, BnbConfig, split_node
from .poly import AffineMap, Box, Polynomial, lie_derivative, to_unit_box
from .problems import (
    load_fixture,
    load_problem,
    lyapunov_fixture_names,
    poly_from_text,
    pop_fixture_names,
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
    return BnbConfig(
        level=LEVEL_FIRST,
        epsilon=STABILITY_TOL,
        max_boxes=max_boxes,
        split=SPLIT_ZERO,
    )


def certify_nonnegative(p: Polynomial, region: Box, cfg: Optional[BnbConfig] = None) -> VerificationRun:
    """Lower-bound ``p`` over ``region`` for certification purposes.

    Boxes are resolved as verified, stalled (bound still negative but
    improving no faster than the equilibrium rate), or split further.  In
    exact mode a box is verified on bound >= 0, a proof; float mode keeps
    a slack of epsilon (bound >= -epsilon) until its bounds carry a
    rounding error radius.  The returned lower bound is the minimum over
    resolved boxes (a Fraction in exact mode), so a stall reports the
    obstacle that blocked certification.
    """
    if cfg is None:
        cfg = default_config()
    if cfg.exact:  # floats convert exactly; the splits take the box's field
        region = Box(tuple(map(Fraction, region.lower)), tuple(map(Fraction, region.upper)))
    start = time.perf_counter()
    run = VerificationRun(0.0, 0, 0, 0, 0.0, False)
    lower = None
    threshold = 0 if cfg.exact else -cfg.epsilon
    # the region's coefficient tensor is the only conversion; every other
    # box gets its tensor by splitting its parent's
    root = to_bernstein(to_unit_box(p, region)[0], exact=cfg.exact).tensor
    u = upper_bounds(p.degree, exact=cfg.exact)
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
        outcome = bound_at_level(
            BernsteinForm(tensor), cfg.level, u=u,
            mapping=AffineMap.from_box(box), exact=cfg.exact,
        )
        bound = outcome.bound
        straddles = any(lo < 0 < hi for lo, hi in zip(box.lower, box.upper))
        if bound >= threshold:
            run.verified_boxes += 1
        elif not straddles and len(hist) >= 2 and bound <= hist[-2] / _STALL_FACTOR:
            run.stalled_boxes += 1
        elif box.width(box.widest_axis()) <= cfg.min_box_width:
            run.stalled_boxes += 1
        else:
            child_hist = () if straddles else hist + (bound,)
            for child, (child_tensor,) in split_node(box, (tensor,), SPLIT_ZERO):
                stack.append((child, child_tensor, child_hist, bound))
            continue
        if lower is None or bound < lower:
            lower = bound
    if lower is None:
        lower = 0
    run.lower_bound = lower if cfg.exact else float(lower)
    run.elapsed = time.perf_counter() - start
    return run


def verify_lyapunov(case: LyapunovCase, cfg: Optional[BnbConfig] = None) -> Verdict:
    """Check min V >= 0 and min -dV/dt >= 0 over the region: exactly in
    exact mode, within ``STABILITY_TOL`` in float mode."""
    if cfg is None:
        cfg = default_config()
    origin = tuple(0 for _ in range(case.v.dimension))
    if abs(float(case.v.eval(origin))) > 1e-12:
        warnings.warn(f"{case.name}: V(0) = {case.v.eval(origin)}, expected 0")
    vdot = lie_derivative(case.v, case.system.f)
    v_run = certify_nonnegative(case.v, case.region, cfg)
    vdot_run = certify_nonnegative(-vdot, case.region, cfg)
    tol = 0 if cfg.exact else STABILITY_TOL
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
    """Build a case from a fixture dict or JSON file with plain-text polys."""
    import json
    from pathlib import Path

    if isinstance(source, (str, Path)) and Path(str(source)).exists():
        data = json.loads(Path(source).read_text())
    elif isinstance(source, str):
        data = json.loads(source)
    else:
        data = source
    dim = int(data["dimension"])
    variables = data.get("variables", ["x", "y", "z"][:dim])
    v = poly_from_text(data["V"], variables, exact)
    f = tuple(poly_from_text(ode, variables, exact) for ode in data["odes"])
    region = Box(
        tuple(Fraction(b) if exact else float(b) for b in data["region"]["lower"]),
        tuple(Fraction(b) if exact else float(b) for b in data["region"]["upper"]),
    )
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

