import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from bernpop import simplex
from bernpop.bernstein import field, to_bernstein, upper_bounds
from bernpop.poly import Box, Polynomial, to_unit_box
from bernpop.relax import _greedy_knapsack
from bernpop.simplex import INFEASIBLE, OPTIMAL, solve
from conftest import assert_lp_duality, one_shot_lp, row_block


def _cut_lp(c, u, exact=False):
    _, z, last = _greedy_knapsack(c, u, field(exact))
    return simplex.CutLP(c, u, z, last, field(exact))


def _random_lp(rng):
    """Exact data of a feasible LP: costs, caps, and rows that the known
    point ``z0`` (sum z0 = 1, z0 <= u) satisfies with some slack."""
    n = rng.randint(2, 6)
    weights = [rng.randint(1, 9) for _ in range(n)]
    z0 = [Fraction(w, sum(weights)) for w in weights]
    u = [min(Fraction(1), v + Fraction(rng.randint(1, 8), 16)) for v in z0]
    c = [Fraction(rng.randint(-24, 24), 8) for _ in range(n)]
    return c, u, _rows_around(rng, z0, rng.randint(1, 3)), z0


def _rows_around(rng, z0, count):
    """``count`` random rows that ``z0`` satisfies with some slack."""
    rows = []
    for _ in range(count):
        a = [Fraction(rng.randint(-8, 8), 4) for _ in range(len(z0))]
        rows.append((a, sum(x * y for x, y in zip(a, z0)) + Fraction(rng.randint(1, 8), 16)))
    return rows


def _float_data(c, u, rows):
    rows = [([float(v) for v in a], float(b)) for a, b in rows]
    return [float(v) for v in c], [float(v) for v in u], rows


def test_infeasible():
    # sum z = 1 cannot hold below a row that caps the whole mass at 1/2
    for exact in (False, True):
        F = Fraction if exact else float
        lp = _cut_lp([F(1), F(2)], [F(1), F(1)], exact)
        lp.append_rows([[F(1), F(1)]], [F(1) / 2])
        assert solve(lp).status == INFEASIBLE


def test_equality_and_inequality_mix():
    # min x + y st x + y = 1, x - y <= 0, 0 <= x,y <= 1 -> value 1
    lp = _cut_lp([1.0, 1.0], [1.0, 1.0])
    lp.append_rows([[1.0, -1.0]], [0.0])
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.value == pytest.approx(1.0)
    assert sol.z[0] + sol.z[1] == pytest.approx(1.0)
    assert sol.z[0] <= sol.z[1] + 1e-9


def test_level1_shell_for_two_squares():
    # the level-1 LP for (2z1-1)^2 + (2z2-1)^2 at degree (2,2) has value -0.5
    p = Polynomial(2, {(2, 0): 1, (0, 2): 1})
    q, _ = to_unit_box(p, Box((-1.0, -1.0), (1.0, 1.0)))
    bf = to_bernstein(q, (2, 2))
    sol = solve(_cut_lp(bf.tensor.ravel().tolist(), upper_bounds((2, 2)).tolist()))
    assert sol.status == OPTIMAL
    assert sol.value == pytest.approx(-0.5, abs=1e-9)


def test_knapsack_against_greedy(rng):
    # a row that halves the greedy's basic variable is the greedy with that
    # cap halved (infeasible once the caps sum below one): the dual simplex
    # must re-optimise to it
    for _ in range(25):
        n = rng.randint(2, 8)
        c = [rng.uniform(-5, 5) for _ in range(n)]
        u = [rng.uniform(0.2, 1.5) for _ in range(n)]
        if sum(u) < 1.2:
            u[0] += 1.2
        lp = _cut_lp(c, u)
        _, z, last = _greedy_knapsack(c, u, field(False))
        cap = z[last] / 2
        lp.append_rows([[float(j == last) for j in range(n)]], [cap])
        sol = solve(lp)
        tighter = [cap if j == last else v for j, v in enumerate(u)]
        if sum(tighter) < 1:
            assert sol.status == INFEASIBLE
            continue
        assert sol.status == OPTIMAL
        assert sol.value == pytest.approx(_greedy_knapsack(c, tighter, field(False))[0], abs=1e-8)


def test_weak_duality_on_random_lps(rng):
    # the exact optimum carries a duality certificate, and no feasible
    # point (here the one the rows were built around) beats it
    for _ in range(50):
        c, u, rows, z0 = _random_lp(rng)
        lp, sol = one_shot_lp(c, u, rows, exact=True)
        assert_lp_duality(lp, sol)
        assert sol.value <= sum(x * y for x, y in zip(c, z0))


def test_exact_matches_float(rng):
    for _ in range(20):
        c, u, rows, _ = _random_lp(rng)
        _, sol_q = one_shot_lp(c, u, rows, exact=True)
        _, sol_f = one_shot_lp(*_float_data(c, u, rows))
        assert sol_f.status == OPTIMAL and sol_q.status == OPTIMAL
        assert abs(float(sol_q.value) - sol_f.value) <= 1e-9


def test_exact_solution_is_rational():
    F = Fraction
    lp = _cut_lp([F(1), F(-1), F(0)], [F(1), F(1, 2), F(1)], exact=True)
    lp.append_rows([[F(0), F(1), F(1)]], [F(3, 4)])  # z0 must take 1/4
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.value == Fraction(-1, 4)
    assert all(isinstance(v, Fraction) for v in sol.z)


def test_primal_invariants_at_optimum(rng):
    for _ in range(30):
        c, u, rows = _float_data(*_random_lp(rng)[:3])
        _, sol = one_shot_lp(c, u, rows)
        assert sol.status == OPTIMAL
        for row, rhs in rows:
            assert sum(a * z for a, z in zip(row, sol.z)) <= rhs + 1e-8
        for z, hi in zip(sol.z, u):
            assert -1e-8 <= z <= hi + 1e-8
        assert sum(sol.z) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("exact", [False, True])
def test_cut_lp_reoptimizes_in_place(exact):
    F = Fraction if exact else float
    c = [F(3), F(1), F(2)]
    u = [F(1), F(1, 2) if exact else 0.5, F(1)]
    lp = _cut_lp(c, u, exact)  # greedy: z = (0, 1/2, 1/2), value 3/2
    lp.append_rows([[F(0), F(0), F(1)]], [F(1, 4) if exact else 0.25])
    sol = solve(lp)
    assert sol.status == OPTIMAL and sol.iterations > 0
    assert sol.value == pytest.approx(F(7, 4) if exact else 1.75)  # z = (1/4, 1/2, 1/4)
    if exact:
        assert_lp_duality(lp, sol)
    lp.append_rows([[F(1), F(0), F(0)]], [F(0)])  # now z0 = 0 too: nothing fits
    assert solve(lp).status == INFEASIBLE
    if exact:
        assert isinstance(sol.value, Fraction)


def _count_refactors(monkeypatch) -> list:
    calls = []
    real = simplex.CutLP._refactor

    def counting(self):
        calls.append(self)
        real(self)

    monkeypatch.setattr(simplex.CutLP, "_refactor", counting)
    return calls


def test_float_solve_factorizes_once_to_confirm(monkeypatch):
    # the inverse a solve starts from is the last solve's confirmed one,
    # which appended rows leave as it is: a solve refactorizes only to
    # confirm its optimum after pivoting, and one with no pivots not at all
    calls = _count_refactors(monkeypatch)
    lp = _cut_lp([3.0, 1.0, 2.0], [1.0, 0.5, 1.0])
    lp.append_rows([[0.0, 0.0, 1.0]], [0.25])
    sol = solve(lp)
    assert sol.status == OPTIMAL and 0 < sol.iterations < 64 and len(calls) == 1
    lp.append_rows([[1.0, 1.0, 1.0]], [1.0])  # redundant: sum z = 1 already
    sol = solve(lp)
    assert sol.status == OPTIMAL and sol.iterations == 0 and len(calls) == 1
    assert sol.value == pytest.approx(1.75)


def test_float_refactor_inverts_only_the_tight_block(monkeypatch):
    # 40 redundant rows stay loose, and at the optimum z = (0.35, 0.4, 0.25)
    # the rows z2 <= 0.25 and z1 <= 0.4 are tight: the refactorization
    # inverts W over those two and the unit-mass row, 3 x 3 of 43 rows
    blocks = []
    real = simplex.CutLP._refactor

    def spying(self):
        real(self)
        blocks.append((self.w_inv.shape, sorted(self.tight.tolist()), self.row_count))

    monkeypatch.setattr(simplex.CutLP, "_refactor", spying)
    lp = _cut_lp([3.0, 1.0, 2.0], [1.0, 0.5, 1.0])
    loose = ([[1.0, 1.0, 1.0]] * 20, [2.0] * 20)
    lp.append_rows(*loose)
    lp.append_rows([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]], [0.25, 0.4])
    lp.append_rows([[1.0, 2.0, 3.0]] * 20, [4.0] * 20)
    sol = solve(lp)
    assert sol.status == OPTIMAL and sol.iterations > 0
    assert sol.value == pytest.approx(1.95) and sol.z == pytest.approx([0.35, 0.4, 0.25])
    assert blocks == [((3, 3), [0, 21, 22], 42)]


def test_exact_pivots_and_values_are_pinned(monkeypatch):
    # exact pivots follow Bland's rule on exact values, so however the
    # basis is stored, these append/solve rounds take the same pivots to
    # the same Fractions; the figures were recorded from the engine that
    # kept the whole m x m basis inverse, and the rounds take every kind
    # of pivot (a slack or a structural leaving, a slack or one entering)
    kinds = set()
    real = simplex.CutLP._pivot

    def spying(self, leaving, q, *args):
        kinds.add((leaving >= self.n, q >= self.n))
        return real(self, leaving, q, *args)

    monkeypatch.setattr(simplex.CutLP, "_pivot", spying)
    rng = random.Random(1729)
    pivots, record = 0, []
    for _ in range(50):
        c, u, rows, z0 = _random_lp(rng)
        rows += _rows_around(rng, z0, rng.randint(3, 8))
        lp = _cut_lp(c, u, exact=True)
        while rows:
            size = rng.randint(1, 3)
            block, rows = rows[:size], rows[size:]
            lp.append_rows(*row_block(block))
            sol = solve(lp)
            pivots += sol.iterations
            record.append(f"{sol.status} {sol.value} {sol.iterations}")
    digest = hashlib.sha256("\n".join(record).encode()).hexdigest()
    assert (pivots, len(record)) == (138, 208)
    assert digest == "f00051fca85d309d9c1c86eebee80f2c43c9fdef5878539db5b7a9be57991dbe"
    assert record[:2] == ["optimal -909/896 1", "optimal -909/896 0"]
    assert len(kinds) == 4


def test_duality_holds_after_rounds_of_appends(rng):
    # several append/solve rounds on one LP: the exact one carries a
    # duality certificate at every final basis, and the float one, which
    # starts each solve from the last inverse, keeps its value
    for _ in range(20):
        c, u, rows, z0 = _random_lp(rng)
        rows += _rows_around(rng, z0, 4)
        exact_lp, float_lp = _cut_lp(c, u, exact=True), _cut_lp(*_float_data(c, u, [])[:2])
        for row in rows:
            exact_lp.append_rows(*row_block([row]))
            float_lp.append_rows(*row_block(_float_data([], [], [row])[2]))
            want, got = solve(exact_lp), solve(float_lp)
            assert_lp_duality(exact_lp, want)
            assert got.status == OPTIMAL
            assert got.value == pytest.approx(float(want.value), rel=1e-9, abs=1e-9)


def test_cut_lp_exact_image_keeps_rows():
    lp = _cut_lp([3.0, 1.0, 2.0], [1.0, 0.5, 1.0])
    lp.append_rows([[0.0, 0.0, 1.0]], [0.1])
    image = lp.exact_image()
    assert image.exact and image.row_count == 1
    t = Fraction(0.1)  # the exact image of the float rhs
    sol = solve(image)
    assert sol.value == 3 * (Fraction(1, 2) - t) + Fraction(1, 2) + 2 * t
    assert_lp_duality(image, sol)


def _count_exact_images(monkeypatch) -> list:
    calls = []
    real = simplex.CutLP.exact_image

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(simplex.CutLP, "exact_image", counting)
    return calls


def _fallback_instance(rng):
    c, u, rows = _float_data(*_random_lp(rng)[:3])
    lp = _cut_lp(c, u)
    lp.append_rows(*row_block(rows))
    want = solve(lp.exact_image())  # before any check is forced to fail
    return lp, want


def test_cut_lp_fallback_is_counted_and_cold(monkeypatch, rng):
    # a float solve that keeps failing its dual-feasibility check is redone
    # from the greedy start with every row at once, then, failing again,
    # answered by the exact image; one fallback either way
    lp, want = _fallback_instance(rng)
    images = _count_exact_images(monkeypatch)
    monkeypatch.setattr(simplex.CutLP, "_dual_feasible", lambda self: False)
    sol = solve(lp)
    assert sol.status == OPTIMAL and lp.fallbacks == 1 and len(images) == 1
    assert sol.value == pytest.approx(float(want.value), rel=1e-9, abs=1e-12)
    assert isinstance(sol.value, float) and all(isinstance(v, float) for v in sol.z)


def test_cut_lp_fallback_restarts_before_the_exact_image(monkeypatch, rng):
    # when only the warm solve fails, the fresh restart answers: the exact
    # image, far slower on big LPs, is never solved
    for _ in range(10):
        lp, want = _fallback_instance(rng)
        images = _count_exact_images(monkeypatch)
        real = simplex.CutLP._dual_feasible
        failed = []

        def first_fails(self):
            if not failed:
                failed.append(True)
                return False
            return real(self)

        monkeypatch.setattr(simplex.CutLP, "_dual_feasible", first_fails)
        sol = solve(lp)
        monkeypatch.undo()
        assert sol.status == OPTIMAL and lp.fallbacks == 1 and not images
        assert sol.value == pytest.approx(float(want.value), rel=1e-9, abs=1e-12)
        # the rebuilt LP keeps its rows, and later solves run warm again
        lp.append_rows([[1.0] * lp.n], [1.0])  # redundant: sum z = 1 already
        assert solve(lp).value == pytest.approx(sol.value, rel=1e-9, abs=1e-12)
        assert lp.fallbacks == 1


def test_float_infeasibility_is_the_exact_images_verdict(monkeypatch):
    # a float solve that ends infeasible skips the restart and returns the
    # exact image's verdict, here infeasibility too; no fallback is counted
    images = _count_exact_images(monkeypatch)
    lp = _cut_lp([1.0, 2.0], [1.0, 1.0])
    lp.append_rows([[1.0, 1.0]], [0.5])
    sol = solve(lp)
    assert sol.status == INFEASIBLE and len(images) == 1 and lp.fallbacks == 0


def test_exact_solve_at_its_pivot_cap_raises(monkeypatch):
    # Bland's rule cannot cycle, so an exact solve that reaches its pivot
    # cap (here: pivots that change nothing) is an engine fault, not a status
    monkeypatch.setattr(simplex.CutLP, "_pivot", lambda self, *args: True)
    F = Fraction
    lp = _cut_lp([F(3), F(1), F(2)], [F(1), F(1, 2), F(1)], exact=True)
    lp.append_rows([[0, 0, 1]], [F(1, 4)])
    with pytest.raises(RuntimeError, match="pivot cap"):
        solve(lp)


def _loop_entering(lp, leaving, alpha):
    """The per-candidate loop the vectorised dual ratio test stands for
    (reference): the smallest ratio, ties within 1e-12 to the largest
    |alpha| and then the smallest index; exact ties to the smallest index."""
    up = lp.x[leaving] < 0
    tol = 0 if lp.exact else simplex._PIVOT_TOL
    ratios = {}
    for j in range(len(alpha)):
        if lp.is_basic[j] or lp.hi[j] == 0:
            continue
        sign = (-1 if lp.at_upper[j] else 1) * (1 if up else -1)
        if not sign * alpha[j] < -tol:
            continue
        dd = -lp.d[j] if lp.at_upper[j] else lp.d[j]
        ratios[j] = dd / abs(alpha[j]) if lp.exact else max(dd, 0.0) / abs(alpha[j])
    if not ratios:
        return None
    low = min(ratios.values())
    if lp.exact:
        return min(j for j, v in ratios.items() if v == low)
    ties = [j for j, v in ratios.items() if v <= low + 1e-12]
    return max(ties, key=lambda j: (abs(alpha[j]), -j))


def test_vectorised_ratio_test_matches_loop(rng):
    nprng = np.random.default_rng(7)
    for trial in range(300):
        exact = trial % 2 == 1
        c, u, rows, _ = _random_lp(rng)
        if not exact:
            c, u, rows = _float_data(c, u, rows)
        lp = _cut_lp(c, u, exact)
        lp.append_rows(*row_block(rows))
        cols = len(lp.x)
        # random states; exact ties and zero entries are the cases a rule
        # change would show
        basis = nprng.permutation(cols)[: lp.row_count + 1]
        lp.is_basic = np.isin(np.arange(cols), basis)
        lp.at_upper = ~lp.is_basic & nprng.choice([False, True], cols) & (lp.hi < np.inf)
        values = [-1, Fraction(-1, 2), 0, Fraction(1, 2), 1]

        def pick(k):
            return [values[i] if exact else float(values[i]) for i in nprng.integers(5, size=k)]

        lp.d = np.array(pick(cols), dtype=object if exact else float)
        alpha = np.array(pick(cols), dtype=object if exact else float)
        leaving = int(basis[nprng.integers(len(basis))])
        lp.x[leaving] = pick(1)[0] - (Fraction(1, 4) if exact else 0.25)
        assert lp._entering(leaving, alpha) == _loop_entering(lp, leaving, alpha)


def test_numpy_is_the_only_runtime_dependency():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import bernpop, bernpop.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
