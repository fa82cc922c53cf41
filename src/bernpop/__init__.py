"""Bernstein-basis LP relaxations and branch-and-bound for polynomial
optimization over boxes, with a Lyapunov-certificate verification mode."""

from .poly import AffineMap, Box, Polynomial, lie_derivative, parse_polynomial
from .bernstein import BernsteinForm, to_bernstein, upper_bounds
from .simplex import LPSolution
from .relax import (
    CutMatrix,
    RelaxationOutcome,
    build_cut_matrix,
    first_lp_bound,
    relax0,
    relax1,
    relax2_iterative,
)
from .bnb import BnbConfig, BnbResult, BnbStats, branch_and_bound
from .lyapunov import (
    LyapunovCase,
    OdeSystem,
    Verdict,
    benchmark_registry,
    verify_lyapunov,
)

__all__ = [
    "AffineMap",
    "BernsteinForm",
    "BnbConfig",
    "BnbResult",
    "BnbStats",
    "Box",
    "CutMatrix",
    "LPSolution",
    "LyapunovCase",
    "OdeSystem",
    "Polynomial",
    "RelaxationOutcome",
    "Verdict",
    "benchmark_registry",
    "branch_and_bound",
    "build_cut_matrix",
    "first_lp_bound",
    "lie_derivative",
    "parse_polynomial",
    "relax0",
    "relax1",
    "relax2_iterative",
    "to_bernstein",
    "upper_bounds",
    "verify_lyapunov",
]
