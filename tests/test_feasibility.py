import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qnsem.feasibility import EQ, GE, LE, check_point, make_row, solve_feasibility


def test_simple_feasible_system():
    rows = [
        make_row({"x": 1, "y": 1}, EQ, 1),
        make_row({"x": 1}, LE, Fraction(1, 3)),
    ]
    result = solve_feasibility(["x", "y"], rows)
    assert result.feasible
    assert check_point(rows, result.point) == 0.0
    assert result.point["x"] + result.point["y"] == 1


def test_equality_inconsistency_yields_verified_certificate():
    rows = [
        make_row({"x": 1, "y": 1}, EQ, 1),
        make_row({"x": 1}, EQ, Fraction(1, 2)),
        make_row({"y": 1}, EQ, Fraction(1, 4)),
    ]
    result = solve_feasibility(["x", "y"], rows)
    assert not result.feasible
    assert result.certificate is not None and result.certificate.verify(rows)


def test_bound_driven_infeasibility():
    # x + y = 3 cannot hold with both variables in [0,1]
    rows = [make_row({"x": 1, "y": 1}, EQ, 3)]
    result = solve_feasibility(["x", "y"], rows)
    assert not result.feasible


def test_inequality_only_system():
    rows = [
        make_row({"x": 1, "y": -1}, GE, Fraction(1, 2)),
        make_row({"y": 1}, GE, Fraction(1, 4)),
    ]
    result = solve_feasibility(["x", "y"], rows)
    assert result.feasible
    assert result.point["x"] - result.point["y"] >= Fraction(1, 2)
    assert result.point["y"] >= Fraction(1, 4)


def test_infeasible_inequalities():
    rows = [
        make_row({"x": 1}, GE, Fraction(3, 4)),
        make_row({"x": 1}, LE, Fraction(1, 4)),
    ]
    assert not solve_feasibility(["x"], rows).feasible


def test_float_backend_agrees():
    rows = [
        make_row({"x": 1, "y": 1, "z": 1}, EQ, 1),
        make_row({"x": 1, "y": -1}, GE, 0),
    ]
    exact = solve_feasibility(["x", "y", "z"], rows, exact=True)
    floaty = solve_feasibility(["x", "y", "z"], rows, exact=False)
    assert exact.feasible and floaty.feasible
    assert check_point(rows, floaty.point) <= 1e-9
    bad = [make_row({"x": 1}, EQ, 2)]
    assert not solve_feasibility(["x"], bad, exact=False).feasible


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("pin", [-1e-12, 1 + 1e-12])
def test_pin_just_outside_the_box_is_infeasible(exact, pin):
    # the pin leaves no free variable, so the box alone decides: both back
    # ends must reject it exactly, with no tolerance
    result = solve_feasibility(["x"], [make_row({"x": 1}, EQ, pin)], exact=exact)
    assert not result.feasible and result.point is None


def test_float_solve_with_no_free_variable_does_not_import_scipy():
    # the pin leaves nothing for HiGHS to solve, so the float back end must
    # answer without paying for the scipy import; a fresh interpreter shows
    # what it loads
    script = (
        "import json, sys\n"
        "from fractions import Fraction\n"
        "from qnsem.feasibility import EQ, make_row, solve_feasibility\n"
        "r = solve_feasibility(['x'], [make_row({'x': 1}, EQ, Fraction(1, 2))], exact=False)\n"
        "print(json.dumps([r.feasible, r.point, sorted(m for m in sys.modules if m.startswith('scipy'))]))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    feasible, point, scipy_modules = json.loads(done.stdout.splitlines()[-1])
    assert feasible and point == {"x": 0.5}
    assert scipy_modules == []


@pytest.mark.parametrize("status", [1, 4])
def test_float_phase_without_highs_verdict_solves_exactly(monkeypatch, status):
    # HiGHS stopping at its iteration limit (1) or on numerical trouble (4)
    # says nothing about feasibility; only status 2 means infeasible
    import scipy.optimize

    calls = []

    def stalled(*args, **kwargs):
        calls.append(status)
        return scipy.optimize.OptimizeResult(status=status, success=False, x=None, message="stalled")

    monkeypatch.setattr(scipy.optimize, "linprog", stalled)
    rows = [
        make_row({"x": 1, "y": 1, "z": 1}, EQ, 1),
        make_row({"x": 1, "y": -1}, GE, Fraction(1, 2)),
    ]
    result = solve_feasibility(["x", "y", "z"], rows, exact=False)
    assert calls == [status]
    assert result.feasible
    assert check_point(rows, result.point) == 0.0


def _holds(row, point) -> bool:
    value = row.evaluate(point)
    return {EQ: value == row.rhs, LE: value <= row.rhs, GE: value >= row.rhs}[row.rel]


def _solve_square(planes):
    """The unique solution of n exact equations in n unknowns, or None."""
    n = len(planes)
    m = [list(a) + [b] for a, b in planes]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col] / m[col][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [m[i][n] / m[i][i] for i in range(n)]


def _box(variables):
    return [make_row({v: 1}, rel, b) for v in variables for rel, b in ((GE, 0), (LE, 1))]


def _vertex_oracle(variables, rows) -> bool:
    """Feasibility in the box [0,1]^n by exact vertex enumeration.

    The box is bounded, so a nonempty feasible set has a vertex, and every
    vertex is the unique solution of n tight constraints among the rows and
    the bounds.
    """
    n = len(variables)
    bounds = _box(variables)
    planes = [
        ([row.coeff_map().get(v, Fraction(0)) for v in variables], row.rhs) for row in rows + bounds
    ]
    for subset in itertools.combinations(planes, n):
        x = _solve_square(subset)
        if x is not None and all(_holds(row, dict(zip(variables, x))) for row in rows + bounds):
            return True
    return False


def _random_system(rnd: random.Random):
    """At most 3 variables and 6 rows of small integer coefficients, with
    degenerate draws: duplicate rows, zero right-hand sides, and rows that
    pin one variable to 1 and another to 0 together."""
    variables = [f"x{j}" for j in range(rnd.randint(1, 3))]
    rows = []
    for _ in range(rnd.randint(1, 6)):
        kind = rnd.random()
        if rows and kind < 0.15:
            rows.append(rnd.choice(rows))
        elif kind < 0.3:
            v, w = rnd.choice(variables), rnd.choice(variables)
            rows.append(make_row({v: 1, w: -1} if v != w else {v: 1}, GE, 1))
        else:
            coeffs = {v: rnd.randint(-3, 3) for v in variables}
            rhs = 0 if rnd.random() < 0.3 else Fraction(rnd.randint(-3, 4), rnd.randint(1, 3))
            rows.append(make_row(coeffs, rnd.choice((EQ, LE, GE)), rhs))
    return variables, rows


def test_exact_solver_matches_vertex_enumeration():
    rnd = random.Random(20261018)
    verdicts = []
    for _ in range(400):
        variables, rows = _random_system(rnd)
        result = solve_feasibility(variables, rows, exact=True)
        expected = _vertex_oracle(variables, rows)
        assert result.feasible == expected, (variables, rows)
        if result.feasible:
            assert check_point(rows + _box(variables), result.point) == 0.0
        elif result.certificate is not None:
            assert result.certificate.verify(rows)
        verdicts.append(result.feasible)
    assert 100 < sum(verdicts) < 300


def test_check_point_reports_violation():
    rows = [make_row({"x": 1}, LE, Fraction(1, 2))]
    assert check_point(rows, {"x": Fraction(3, 4)}) == pytest.approx(0.25)


def test_make_row_validation():
    with pytest.raises(ValueError, match="relation"):
        make_row({"x": 1}, "<", 0)
