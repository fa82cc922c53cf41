import random
from fractions import Fraction

import numpy as np
import pytest

from bernpop import simplex
from bernpop.bernstein import to_bernstein, upper_bounds
from bernpop.poly import Box, Polynomial, to_unit_box
from bernpop.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, solve


def test_min_over_interval():
    lp = LinearProgram(c=[1.0], lower=[0.0], upper=[1.0])
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.value == pytest.approx(0.0)


def test_max_via_negation():
    lp = LinearProgram(c=[-1.0], lower=[0.0], upper=[3.0])
    sol = solve(lp)
    assert sol.value == pytest.approx(-3.0)


def test_unbounded():
    lp = LinearProgram(c=[-1.0], lower=[0.0], upper=[None])
    assert solve(lp).status == UNBOUNDED


def test_infeasible():
    lp = LinearProgram(
        c=[1.0], a_ub=[[1.0]], b_ub=[1.0], a_eq=[[1.0]], b_eq=[2.0],
        lower=[0.0], upper=[None],
    )
    assert solve(lp).status == INFEASIBLE


def test_equality_and_inequality_mix():
    # min x + y st x + y = 1, x - y <= 0, 0 <= x,y <= 1 -> value 1
    lp = LinearProgram(
        c=[1.0, 1.0],
        a_ub=[[1.0, -1.0]],
        b_ub=[0.0],
        a_eq=[[1.0, 1.0]],
        b_eq=[1.0],
        lower=[0.0, 0.0],
        upper=[1.0, 1.0],
    )
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.value == pytest.approx(1.0)
    assert sol.z[0] + sol.z[1] == pytest.approx(1.0)
    assert sol.z[0] <= sol.z[1] + 1e-9


def test_negative_lower_bounds():
    lp = LinearProgram(
        c=[1.0, 2.0],
        a_ub=[[1.0, 1.0]],
        b_ub=[1.0],
        lower=[-1.0, -2.0],
        upper=[5.0, 5.0],
    )
    sol = solve(lp)
    assert sol.value == pytest.approx(-5.0)


def test_level1_shell_for_two_squares():
    # the level-1 LP for (2z1-1)^2 + (2z2-1)^2 at degree (2,2) has value -0.5
    p = Polynomial(2, {(2, 0): 1, (0, 2): 1})
    q, _ = to_unit_box(p, Box((-1.0, -1.0), (1.0, 1.0)))
    bf = to_bernstein(q, (2, 2))
    u = upper_bounds((2, 2))
    lp = LinearProgram(
        c=list(bf.coeffs),
        a_eq=[[1.0] * 9],
        b_eq=[1.0],
        lower=[0.0] * 9,
        upper=list(u),
    )
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.value == pytest.approx(-0.5, abs=1e-9)


def test_knapsack_against_greedy(rng):
    # min c.z, sum z = 1, 0 <= z <= u is a fractional knapsack
    for _ in range(25):
        n = rng.randint(2, 8)
        c = [rng.uniform(-5, 5) for _ in range(n)]
        u = [rng.uniform(0.2, 1.5) for _ in range(n)]
        if sum(u) < 1.2:
            u[0] += 1.2
        lp = LinearProgram(
            c=c, a_eq=[[1.0] * n], b_eq=[1.0], lower=[0.0] * n, upper=list(u)
        )
        sol = solve(lp)
        assert sol.status == OPTIMAL
        remaining, greedy = 1.0, 0.0
        for i in sorted(range(n), key=lambda i: (c[i], i)):
            take = min(u[i], remaining)
            greedy += take * c[i]
            remaining -= take
            if remaining <= 1e-12:
                break
        assert sol.value == pytest.approx(greedy, abs=1e-8)


def _random_feasible_lp(rng, exact=False):
    n = rng.randint(2, 5)
    m = rng.randint(1, 3)
    point = [rng.uniform(0, 1) for _ in range(n)]
    a_ub = [[rng.uniform(-2, 2) for _ in range(n)] for _ in range(m)]
    b_ub = [sum(a * x for a, x in zip(row, point)) + rng.uniform(0.1, 1) for row in a_ub]
    c = [rng.uniform(-3, 3) for _ in range(n)]
    if exact:
        # the very same data, read exactly
        return LinearProgram(
            c=[Fraction(v) for v in c],
            a_ub=[[Fraction(v) for v in row] for row in a_ub],
            b_ub=[Fraction(v) for v in b_ub],
            lower=[Fraction(0)] * n,
            upper=[Fraction(2)] * n,
        )
    return LinearProgram(c=c, a_ub=a_ub, b_ub=b_ub, lower=[0.0] * n, upper=[2.0] * n)


def test_weak_duality_on_random_lps(rng):
    for _ in range(100):
        lp = _random_feasible_lp(rng)
        sol = solve(lp)
        assert sol.status == OPTIMAL
        assert sol.dual_bound <= sol.value + 1e-6
        assert sol.dual_bound == pytest.approx(sol.value, abs=1e-6)


def test_exact_matches_float(rng):
    for _ in range(20):
        seed = rng.randint(0, 10**9)
        lp_f = _random_feasible_lp(random.Random(seed))
        lp_q = _random_feasible_lp(random.Random(seed), exact=True)
        sol_f = solve(lp_f)
        sol_q = solve(lp_q, exact=True)
        assert sol_f.status == OPTIMAL and sol_q.status == OPTIMAL
        assert abs(float(sol_q.value) - sol_f.value) <= 1e-6


def test_exact_solution_is_rational():
    lp = LinearProgram(
        c=[Fraction(1), Fraction(-1)],
        a_ub=[[Fraction(1), Fraction(1)]],
        b_ub=[Fraction(3, 2)],
        lower=[Fraction(0), Fraction(0)],
        upper=[Fraction(1), Fraction(1)],
    )
    sol = solve(lp, exact=True)
    assert sol.status == OPTIMAL
    assert sol.value == Fraction(-1)
    assert all(isinstance(v, Fraction) for v in sol.z)


def test_primal_invariants_at_optimum(rng):
    for _ in range(30):
        lp = _random_feasible_lp(rng)
        sol = solve(lp)
        assert sol.status == OPTIMAL
        for row, rhs in zip(lp.a_ub, lp.b_ub):
            assert sum(a * z for a, z in zip(row, sol.z)) <= rhs + 1e-8
        for z, lo, hi in zip(sol.z, lp.lower, lp.upper):
            assert lo - 1e-8 <= z <= hi + 1e-8


# -- the warm-started dual simplex (CutLP) ----------------------------------


def _cut_lp(c, u, exact=False):
    from bernpop.relax import _greedy_knapsack

    _, z, last = _greedy_knapsack(c, u, exact)
    return simplex.CutLP(c, u, z, last, exact)


@pytest.mark.parametrize("exact", [False, True])
def test_cut_lp_reoptimizes_in_place(exact):
    F = Fraction if exact else float
    c = [F(3), F(1), F(2)]
    u = [F(1), F(1, 2) if exact else 0.5, F(1)]
    lp = _cut_lp(c, u, exact)  # greedy: z = (0, 1/2, 1/2), value 3/2
    lp.append_rows([([F(0), F(0), F(1)], F(1, 4) if exact else 0.25)])
    sol = solve(lp, exact)
    assert sol.status == OPTIMAL and sol.iterations > 0
    assert sol.value == pytest.approx(F(7, 4) if exact else 1.75)  # z = (1/4, 1/2, 1/4)
    lp.append_rows([([F(1), F(0), F(0)], F(0))])  # now z0 = 0 too: nothing fits
    assert solve(lp, exact).status == INFEASIBLE
    if exact:
        assert isinstance(sol.value, Fraction)


def test_cut_lp_exact_image_keeps_rows():
    lp = _cut_lp([3.0, 1.0, 2.0], [1.0, 0.5, 1.0])
    lp.append_rows([([0.0, 0.0, 1.0], 0.1)])
    image = lp.exact_image()
    assert image.exact and image.row_count == 1
    t = Fraction(0.1)  # the exact image of the float rhs
    assert solve(image).value == 3 * (Fraction(1, 2) - t) + Fraction(1, 2) + 2 * t


def test_cut_lp_fallback_is_counted_and_cold(monkeypatch):
    # a failed dual-feasibility check hands the same rows to the two-phase engine
    lp = _cut_lp([3.0, 1.0, 2.0], [1.0, 0.5, 1.0])
    lp.append_rows([([0.0, 0.0, 1.0], 0.25)])
    monkeypatch.setattr(simplex.CutLP, "_dual_feasible", lambda self: False)
    sol = solve(lp)
    assert sol.status == OPTIMAL and sol.value == pytest.approx(1.75)
    assert lp.fallbacks == 1
    lp.append_rows([([0.0, 1.0, 0.0], 0.25)])  # later solves stay cold
    assert solve(lp).value == pytest.approx(0.5 * 3 + 0.25 + 0.25 * 2)
    assert lp.fallbacks == 1


def _loop_ratio_test(eng, entering, direction, d_b):
    """The per-row loop the vectorised ratio test replaced (reference)."""
    t_best, leave_pos, leave_to_upper = np.inf, -1, False
    span = eng.hi[entering] - eng.lo[entering]
    if np.isfinite(span):
        t_best = span
    for pos in range(eng.m):
        step = direction * d_b[pos]
        j = eng.basis[pos]
        if step > simplex._PIVOT_TOL and np.isfinite(eng.lo[j]):
            t, to_upper = (eng.value[j] - eng.lo[j]) / step, False
        elif step < -simplex._PIVOT_TOL and np.isfinite(eng.hi[j]):
            t, to_upper = (eng.hi[j] - eng.value[j]) / (-step), True
        else:
            continue
        if t < t_best - 1e-12 or (
            abs(t - t_best) <= 1e-12 and (leave_pos < 0 or j < eng.basis[leave_pos])
        ):
            t_best, leave_pos, leave_to_upper = t, pos, to_upper
    return t_best, leave_pos, leave_to_upper


def test_vectorised_ratio_test_matches_loop(rng):
    nprng = np.random.default_rng(7)
    for _ in range(300):
        eng = simplex._FloatEngine(_random_feasible_lp(rng))
        eng.value = nprng.uniform(-1, 3, eng.n_total)
        eng.basis = nprng.permutation(eng.n_total)[: eng.m]
        # exact ties and zero steps are the cases a rule change would show
        eng.value[eng.basis[::2]] = 1.0
        d_b = nprng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], eng.m)
        entering = int(nprng.integers(eng.n_total))
        direction = float(nprng.choice([-1.0, 1.0]))
        got = eng._ratio_test(entering, direction, d_b)
        want = _loop_ratio_test(eng, entering, direction, d_b)
        assert (got[1], got[2]) == (want[1], want[2])
        assert got[0] == want[0] or (np.isinf(got[0]) and np.isinf(want[0]))


def test_numpy_is_the_only_runtime_dependency():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import bernpop, bernpop.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
