"""Bernstein-basis LP relaxations and branch-and-bound for polynomial
optimization over boxes, with a Lyapunov-certificate verification mode."""

from .poly import Box, Polynomial, lie_derivative, parse_polynomial
from .bernstein import BernsteinForm, to_bernstein, upper_bounds
from .simplex import LPSolution
from .relax import (
    CutMatrix,
    RelaxationOutcome,
    bound_at_level,
    build_cut_matrix,
    first_lp_bound,
    relax0,
)
from .bnb import BnbConfig, BnbResult, BnbStats, branch_and_bound
from .lyapunov import (
    LyapunovCase,
    Verdict,
    benchmark_registry,
    verify_lyapunov,
)

__all__ = [
    "BernsteinForm",
    "BnbConfig",
    "BnbResult",
    "BnbStats",
    "Box",
    "CutMatrix",
    "LPSolution",
    "LyapunovCase",
    "Polynomial",
    "RelaxationOutcome",
    "Verdict",
    "benchmark_registry",
    "bound_at_level",
    "branch_and_bound",
    "build_cut_matrix",
    "first_lp_bound",
    "lie_derivative",
    "parse_polynomial",
    "relax0",
    "to_bernstein",
    "upper_bounds",
    "verify_lyapunov",
]
