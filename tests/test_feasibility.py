import itertools
import math
import random
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from qnsem import feasibility, fixtures, oml
from qnsem.feasibility import (
    Certificate, FeasibilityResult, Row, check_point, make_row, solve_feasibility, to_fraction,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "perfbench"))
import known  # noqa: E402  (the benchmark's lattice builders)
import workloads  # noqa: E402


def test_row_is_an_equality():
    row = make_row({"x": 1, "y": 0}, Fraction(1, 2), "half")
    assert Row._fields == ("coeffs", "rhs", "label") and Row.rel == row.rel == "=="
    assert row == (((("x", Fraction(1)),), Fraction(1, 2), "half"))


def test_simple_feasible_system():
    rows = [
        make_row({"x": 1, "y": 1}, 1),
        make_row({"x": 3}, 1),
    ]
    result = solve_feasibility(["x", "y"], rows)
    assert result.feasible
    assert check_point(rows, result.point) == 0.0
    assert result.point == {"x": Fraction(1, 3), "y": Fraction(2, 3)}


def test_equality_inconsistency_yields_verified_certificate():
    rows = [
        make_row({"x": 1, "y": 1}, 1),
        make_row({"x": 1}, Fraction(1, 2)),
        make_row({"y": 1}, Fraction(1, 4)),
    ]
    result = solve_feasibility(["x", "y"], rows)
    assert not result.feasible
    assert result.certificate is not None and result.certificate.verify(rows)


def test_bound_driven_infeasibility():
    # x + y = 3 cannot hold with both variables in [0,1]
    rows = [make_row({"x": 1, "y": 1}, 3)]
    result = solve_feasibility(["x", "y"], rows)
    assert not result.feasible
    assert result.certificate is None and result.detail == "bounded phase is infeasible"


def test_free_variable_bounded_through_two_pivots():
    # the pivots are x = 7/4 - z and y = 5/4 - z over the free z: z = 0,
    # where the bounded phase starts, breaks both upper bounds, and the box
    # leaves 3/4 <= z <= 1
    rows = [
        make_row({"x": 1, "y": -1}, Fraction(1, 2)),
        make_row({"y": 1, "z": 1}, Fraction(5, 4)),
    ]
    result = solve_feasibility(["x", "y", "z"], rows)
    assert result.feasible and check_point(rows, result.point) == 0.0
    assert all(0 <= v <= 1 for v in result.point.values())
    assert Fraction(3, 4) <= result.point["z"] <= 1


def test_pivot_bounds_that_conflict_are_infeasible():
    # the pivots are x = 9/4 - z and y = 3/2 - z over the free z, and
    # x <= 1 needs z >= 5/4; the equalities alone are consistent
    rows = [
        make_row({"x": 1, "y": -1}, Fraction(3, 4)),
        make_row({"y": 1, "z": 1}, Fraction(3, 2)),
    ]
    result = solve_feasibility(["x", "y", "z"], rows)
    assert not result.feasible
    assert result.certificate is None and result.detail == "bounded phase is infeasible"


@pytest.mark.parametrize("pin", [-1e-12, 1 + 1e-12])
def test_pin_just_outside_the_box_is_infeasible(pin):
    # the pin leaves no free variable, so the box alone decides: the solver
    # must reject it exactly, with no tolerance
    result = solve_feasibility(["x"], [make_row({"x": 1}, pin)])
    assert not result.feasible and result.point is None


class Inequality(NamedTuple):
    """A test-side row ``lhs <= rhs`` or ``lhs >= rhs`` (``rel``).  The
    solver takes equalities only; the references below take these too, as
    the oracle of systems with inequality rows."""

    coeffs: tuple[tuple[str, Fraction], ...]
    rel: str
    rhs: Fraction
    label: str = ""
    evaluate = Row.evaluate


def inequality(coeffs, rel: str, rhs, label: str = "") -> Inequality:
    assert rel in ("<=", ">=")
    row = make_row(coeffs, rhs, label)
    return Inequality(row.coeffs, rel, row.rhs, label)


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


def _in_box(point) -> bool:
    return all(0 <= x <= 1 for x in point.values())


def _holds(row, point) -> bool:
    value = row.evaluate(point)
    return {"==": value == row.rhs, "<=": value <= row.rhs, ">=": value >= row.rhs}[row.rel]


def _vertex_oracle(variables, rows) -> bool:
    """Feasibility in the box [0,1]^n by exact vertex enumeration.

    The box is bounded, so a nonempty feasible set has a vertex, and every
    vertex is the unique solution of n tight constraints among the rows and
    the bounds x_v = 0, x_v = 1.
    """
    n = len(variables)
    bounds = [([Fraction(v == w) for w in variables], Fraction(b)) for v in variables for b in (0, 1)]
    planes = [([dict(row.coeffs).get(v, Fraction(0)) for v in variables], row.rhs) for row in rows] + bounds
    for subset in itertools.combinations(planes, n):
        x = _solve_square(subset)
        if x is not None:
            point = dict(zip(variables, x))
            if _in_box(point) and all(_holds(row, point) for row in rows):
                return True
    return False


def _row(coeffs, rel: str, rhs):
    return make_row(coeffs, rhs) if rel == "==" else inequality(coeffs, rel, rhs)


def _random_system(rnd: random.Random, relations=("==",), max_rows=4):
    """At most 3 variables and ``max_rows`` rows of small integer
    coefficients and relations drawn from ``relations``, with degenerate
    draws: duplicate rows, zero right-hand sides, and rows x_v - x_w = 1
    (or >= 1) that pin one variable to 1 and another to 0 together."""
    variables = [f"x{j}" for j in range(rnd.randint(1, 3))]
    rows = []
    for _ in range(rnd.randint(1, max_rows)):
        kind = rnd.random()
        if rows and kind < 0.15:
            rows.append(rnd.choice(rows))
        elif kind < 0.3:
            v, w = rnd.choice(variables), rnd.choice(variables)
            rows.append(_row({v: 1, w: -1} if v != w else {v: 1}, relations[-1], 1))
        else:
            coeffs = {v: rnd.randint(-3, 3) for v in variables}
            rhs = 0 if rnd.random() < 0.3 else Fraction(rnd.randint(-3, 4), rnd.randint(1, 3))
            rows.append(_row(coeffs, rnd.choice(relations), rhs))
    return variables, rows


def test_exact_solver_matches_vertex_enumeration():
    rnd = random.Random(20261018)
    verdicts = Counter()
    for _ in range(400):
        variables, rows = _random_system(rnd)
        result = solve_feasibility(variables, rows)
        expected = _vertex_oracle(variables, rows)
        assert result.feasible == expected, (variables, rows)
        if result.feasible:
            assert check_point(rows, result.point) == 0.0 and _in_box(result.point)
        elif result.certificate is not None:
            assert result.certificate.verify(rows)
        verdicts[result.feasible, result.detail.split(" ")[0]] += 1
    # feasible, certified and bounded-phase verdicts all occur
    assert verdicts[True, ""] > 100 and verdicts[False, "equality"] > 100 and verdicts[False, "bounded"] > 50


def test_reference_solver_matches_vertex_enumeration_with_inequalities():
    # the reference is the oracle of systems with inequality rows (see
    # test_oml.legal_rows_oracle), so it is checked on such systems too
    rnd = random.Random(20261018)
    verdicts = Counter()
    for _ in range(400):
        variables, rows = _random_system(rnd, ("==", "<=", ">="), 6)
        result = reference_solve(variables, rows)
        assert result.feasible == _vertex_oracle(variables, rows), (variables, rows)
        if result.feasible:
            assert reference_check_point(rows, result.point) == 0.0 and _in_box(result.point)
        verdicts[result.feasible, result.detail.split(" ")[0]] += 1
    # an inequality that reduces to 0 <= b < 0 is a verdict of its own
    assert verdicts[True, ""] > 100 and verdicts[False, "bounded"] > 100 and verdicts[False, "row"] > 40


def test_check_point_reports_violation():
    # |lhs - rhs| on either side
    rows = [make_row({"x": 1}, Fraction(1, 2)), make_row({"x": 1, "y": 1}, 1)]
    assert check_point(rows, {"x": Fraction(3, 4), "y": Fraction(1, 4)}) == pytest.approx(0.25)
    assert check_point(rows, {"x": Fraction(1, 4), "y": Fraction(3, 4)}) == pytest.approx(0.25)
    assert check_point(rows, {"x": Fraction(1, 2), "y": 0}) == pytest.approx(0.5)


@pytest.mark.parametrize("bad", [
    float("nan"), float("inf"), float("-inf"), np.float64("nan"),
    pytest.param(np.float32("nan"), id="float32-nan"),
    pytest.param(np.float32("-inf"), id="float32-inf"),
    pytest.param(Decimal("nan"), id="decimal-nan"),
    pytest.param(Decimal("inf"), id="decimal-inf"),
])
def test_check_point_non_finite_is_maximal_violation(bad):
    rows = [make_row({"x": 1}, Fraction(1, 4)), make_row({"x": 1, "y": 1}, 1)]
    assert check_point(rows, {"x": Fraction(1, 4), "y": bad}) == math.inf
    assert check_point(rows, {"x": bad, "y": 0.75}) == math.inf


@pytest.mark.parametrize("bad", ["0.5", None, [0.5]], ids=["str", "none", "list"])
def test_check_point_value_that_is_no_real_number_is_maximal_violation(bad):
    # "0.5" was read through float() as 1/2, and None raised TypeError
    rows = [make_row({"x": 1}, Fraction(1, 2)), make_row({"x": 1, "y": 1}, 1)]
    assert check_point(rows, {"x": bad, "y": Fraction(1, 2)}) == math.inf
    assert check_point(rows, {"x": Fraction(1, 2), "y": bad}) == math.inf


def test_check_point_reads_any_real_number():
    # a Rational exactly, any other number through float()
    rows = [make_row({"x": 1, "y": 1}, 1), make_row({"x": 2, "y": -2}, -1)]
    for x, y in [(np.float32(0.25), 0.75), (Decimal("0.25"), Decimal("0.75")), (Fraction(1, 4), Fraction(3, 4)),
                 (1 / 4, np.float64(3 / 4))]:
        assert check_point(rows, {"x": x, "y": y}) == 0.0, (x, y)
    # these satisfy the first row only and miss the second by |2x - 2y + 1|
    for x, y, gap in [(np.int64(0), True, 1), (Fraction(1, 3), Fraction(2, 3), 1 / 3),
                      (1 / 3, np.float64(2 / 3), 1 / 3)]:
        assert check_point(rows[:1], {"x": x, "y": y}) == 0.0, (x, y)
        assert check_point(rows, {"x": x, "y": y}) == gap, (x, y)
    assert check_point(rows, {"x": np.float32(0.5), "y": np.float32(0.75)}) == pytest.approx(1 / 2)


@pytest.mark.parametrize("shift", ["negative", "past-the-end"])
def test_certificate_refuses_a_row_index_outside_the_rows(shift):
    # shifting every index by -len(rows) names the same rows through
    # Python's negative indexing, and by +len(rows) names none
    lattice = fixtures.nostate_lattice()
    certificate = oml.find_state(lattice).certificate
    rows = oml.state_constraints(lattice)[1]
    assert certificate.verify(rows)
    offset = -len(rows) if shift == "negative" else len(rows)
    moved = Certificate(tuple((k + offset, m) for k, m in certificate.multipliers), certificate.combined_rhs)
    assert not moved.verify(rows)


def loop_check_point(rows, point):
    """``check_point`` reading every coordinate through ``to_fraction``, as
    it did before int and Fraction coordinates were taken as they are: the
    reference for that shortcut."""
    value = {}
    for k, v in point.items():
        x = to_fraction(v, 10**15)
        if x is None:
            return math.inf
        value[k] = x
    worst = Fraction(0)
    for row in rows:
        worst = max(worst, abs(row.evaluate(value) - row.rhs))
    return float(worst)


def _as_any_type(rnd: random.Random, x: Fraction):
    """x as an int, bool, numpy int64 or Decimal where that type holds it
    exactly, else as a Fraction, float, numpy float32 or Decimal quotient."""
    if x.denominator == 1 and rnd.random() < 0.6:
        exact = [int, np.int64, lambda n: Decimal(int(n))] + ([bool] if x in (0, 1) else [])
        return rnd.choice(exact)(x.numerator)
    return rnd.choice((Fraction, float, np.float32, lambda f: Decimal(f.numerator) / Decimal(f.denominator)))(x)


def test_check_point_matches_the_to_fraction_loop_on_mixed_coordinates():
    # points of random values and solved points, each coordinate cast to a
    # random type, now and then one NaN or infinity
    rnd = random.Random(2801)
    draws = (
        lambda: rnd.randint(-1, 2), lambda: rnd.random() < 0.5, lambda: _rational(rnd), lambda: rnd.random(),
        lambda: np.float32(rnd.random()), lambda: np.int64(rnd.randint(-1, 2)),
        lambda: Decimal(rnd.randint(0, 16)) / 16, lambda: Decimal(str(rnd.random())),
    )
    non_finite = (math.nan, math.inf, -math.inf, np.float32("nan"), Decimal("inf"))
    seen = Counter()
    for _ in range(600):
        variables = [f"x{j}" for j in range(rnd.randint(1, 6))]
        rows = _random_rows(rnd, variables)
        solved = solve_feasibility(variables, rows).point
        if solved is not None and rnd.random() < 0.5:
            point = {v: _as_any_type(rnd, x) for v, x in solved.items()}
        else:
            point = {v: rnd.choice(draws)() for v in variables}
        if rnd.random() < 0.1:
            point[rnd.choice(variables)] = rnd.choice(non_finite)
        got = check_point(rows, point)
        assert got == loop_check_point(rows, point), (rows, point)
        seen[0.0 if got == 0 else math.inf if got == math.inf else 1.0] += 1
    assert all(seen[k] > 20 for k in (0.0, 1.0, math.inf)), seen


def test_make_row_and_evaluate_read_values_as_fraction_does():
    raw = {"a": 1.0, "b": "0", "c": Fraction(-2), "d": "1/3", "e": np.int64(2), "f": 0.5, "g": True}
    row = make_row(raw, 0.0)
    expected = tuple(sorted((v, Fraction(c)) for v, c in raw.items() if Fraction(c) != 0))
    assert row.coeffs == expected and row.rhs == 0
    assert all(type(c) is Fraction for _, c in row.coeffs) and type(row.rhs) is Fraction
    point = {"a": 1, "c": Fraction(1, 2), "d": 0.75, "e": "1/4", "f": np.float64(1.0), "g": Fraction(3, 2)}
    expected = sum((c * Fraction(point[v]) for v, c in row.coeffs), Fraction(0))
    assert row.evaluate(point) == expected


# ---------------------------------------------------------------------------
# the Fraction solver the integer arithmetic replaced, kept as the reference:
# every decision (pivot per row, Bland's entering and leaving choice, ratio
# ties, the duplicate filter) and every number must come out the same.  It
# also takes ``Inequality`` rows, substituted into the bounded phase, and so
# serves as the oracle of systems with inequality rows


def reference_presolve(variables, rows):
    var_index = {v: i for i, v in enumerate(variables)}
    pivots = {}
    for i, row in enumerate(rows):
        if row.rel != "==":
            continue
        coeffs = {}
        for v, c in row.coeffs:
            coeffs[var_index[v]] = coeffs.get(var_index[v], Fraction(0)) + c
        rhs = row.rhs
        combo = {i: Fraction(1)}
        for p in sorted(set(coeffs) & set(pivots)):
            factor = coeffs.pop(p)
            expr, prhs, pcombo = pivots[p]
            for v, c in expr.items():
                coeffs[v] = coeffs.get(v, Fraction(0)) + factor * c
            rhs -= factor * prhs
            for r, m in pcombo.items():
                combo[r] = combo.get(r, Fraction(0)) - factor * m
        coeffs = {v: c for v, c in coeffs.items() if c != 0}
        combo = {r: m for r, m in combo.items() if m != 0}
        if not coeffs:
            if rhs != 0:
                return None, None, Certificate(tuple(sorted(combo.items())), rhs)
            continue
        p = min(coeffs)
        factor = coeffs.pop(p)
        expr = {v: -c / factor for v, c in coeffs.items()}
        prhs = rhs / factor
        pcombo = {r: m / factor for r, m in combo.items()}
        for q in list(pivots):
            qexpr, qrhs, qcombo = pivots[q]
            if p not in qexpr:
                continue
            f = qexpr.pop(p)
            for v, c in expr.items():
                qexpr[v] = qexpr.get(v, Fraction(0)) + f * c
            merged = dict(qcombo)
            for r, m in pcombo.items():
                merged[r] = merged.get(r, Fraction(0)) + f * m
            pivots[q] = (
                {v: c for v, c in qexpr.items() if c != 0},
                qrhs + f * prhs,
                {r: m for r, m in merged.items() if m != 0},
            )
        pivots[p] = (expr, prhs, pcombo)
    return pivots, var_index, None


def reference_substitute(row, pivots, var_index):
    coeffs = {}
    for v, c in row.coeffs:
        coeffs[var_index[v]] = coeffs.get(var_index[v], Fraction(0)) + c
    rhs = row.rhs
    for p in sorted(set(coeffs) & set(pivots)):
        factor = coeffs.pop(p)
        expr, prhs = pivots[p][0], pivots[p][1]
        for v, c in expr.items():
            coeffs[v] = coeffs.get(v, Fraction(0)) + factor * c
        rhs -= factor * prhs
    return {v: c for v, c in coeffs.items() if c != 0}, rhs


def reference_exact_phase(ineqs, free_vars):
    order = sorted(free_vars)
    cols = {v: j for j, v in enumerate(order)}
    n = len(order)
    tab = []
    rhs = []
    for coeffs, b in ineqs:
        vec = [Fraction(0)] * n + [Fraction(-1)]
        for v, c in coeffs.items():
            vec[cols[v]] = c
        tab.append(vec)
        rhs.append(b)
    for j in range(n):
        vec = [Fraction(0)] * n + [Fraction(-1)]
        vec[j] = Fraction(1)
        tab.append(vec)
        rhs.append(Fraction(1))
    if all(b >= 0 for b in rhs):
        return {v: Fraction(0) for v in order}
    if n == 0:
        return None
    nonbasic = list(range(1, n + 1)) + [0]
    basic = list(range(n + 1, n + 1 + len(tab)))

    def pivot(r, s):
        inv = 1 / tab[r][s]
        prow = [c * inv for c in tab[r]]
        prow[s] = inv
        prhs = rhs[r] * inv
        nonzero = [(j, c) for j, c in enumerate(prow) if c != 0 and j != s]
        for i, row in enumerate(tab):
            f = row[s]
            if i == r or f == 0:
                continue
            for j, c in nonzero:
                row[j] -= f * c
            row[s] = -f * inv
            rhs[i] -= f * prhs
        tab[r], rhs[r] = prow, prhs
        basic[r], nonbasic[s] = nonbasic[s], basic[r]

    r0 = min(range(len(tab)), key=lambda i: (rhs[i], i))
    pivot(r0, n)
    while rhs[r0] != 0:
        goal = tab[r0]
        entering = [j for j in range(n + 1) if goal[j] > 0]
        if not entering:
            return None
        s = min(entering, key=nonbasic.__getitem__)
        r = min(
            (i for i in range(len(tab)) if tab[i][s] > 0),
            key=lambda i: (rhs[i] / tab[i][s], basic[i]),
        )
        pivot(r, s)
        if r == r0:
            break
    point = {v: Fraction(0) for v in order}
    for i, b in enumerate(basic):
        if 1 <= b <= n:
            point[order[b - 1]] = rhs[i]
    return point


def reference_solve(variables, rows):
    rows = list(rows)
    pivots, var_index, cert = reference_presolve(variables, rows)
    if cert is not None:
        return FeasibilityResult(False, None, cert, "equality rows are inconsistent")
    free_vars = [i for i in range(len(variables)) if i not in pivots]
    ineqs = []
    for row in rows:
        if row.rel == "==":
            continue
        coeffs, rhs = reference_substitute(row, pivots, var_index)
        if row.rel == ">=":
            coeffs = {v: -c for v, c in coeffs.items()}
            rhs = -rhs
        if not coeffs:
            if rhs < 0:
                return FeasibilityResult(False, None, None, f"row {row.label!r} reduces to 0 <= {rhs}")
            continue
        ineqs.append((coeffs, rhs))
    for p, (expr, prhs, _combo) in pivots.items():
        ineqs.append(({v: -c for v, c in expr.items()}, prhs))
        ineqs.append((dict(expr), Fraction(1) - prhs))
    unique = {}
    for coeffs, rhs in ineqs:
        unique.setdefault((frozenset(coeffs.items()), rhs), (coeffs, rhs))
    ineqs = list(unique.values())
    point_free = reference_exact_phase(ineqs, free_vars)
    if point_free is None:
        return FeasibilityResult(False, None, None, "bounded phase is infeasible")
    names = list(variables)
    point = {names[v]: val for v, val in point_free.items()}
    for p, (expr, prhs, _combo) in pivots.items():
        point[names[p]] = prhs + sum((c * point_free[v] for v, c in expr.items()), Fraction(0))
    return FeasibilityResult(True, point, None)


def reference_check_point(rows, point):
    frac_point = {k: Fraction(v) if not isinstance(v, float) else Fraction(v).limit_denominator(10**15)
                  for k, v in point.items()}
    worst = Fraction(0)
    for row in rows:
        gap = sum((c * frac_point[v] for v, c in row.coeffs), Fraction(0)) - row.rhs
        if row.rel == "==":
            worst = max(worst, abs(gap))
        elif row.rel == "<=":
            worst = max(worst, max(Fraction(0), gap))
        else:
            worst = max(worst, max(Fraction(0), -gap))
    return float(worst)


def _typed(value):
    """A value with its type, dict keys in order, for comparing outputs."""
    if isinstance(value, dict):
        return [(k, _typed(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_typed(v) for v in value]
    if isinstance(value, Certificate):
        return ("certificate", _typed(value.multipliers), _typed(value.combined_rhs))
    return (type(value).__name__, value)


def _pivot_map(pivots):
    """Pivot maps by value: the integer presolve holds ints where integral."""
    if pivots is None:
        return None
    return [(p, list(expr.items()), rhs, list(combo.items())) for p, (expr, rhs, combo) in pivots.items()]


def _assert_same_as_reference(variables, rows):
    ref_pivots, _, ref_cert = reference_presolve(variables, rows)
    pivots, new_cert = feasibility._presolve(variables, rows)
    # every pivot with its row combination, or the same certificate
    assert _pivot_map(pivots) == _pivot_map(ref_pivots)
    assert _typed(new_cert) == _typed(ref_cert)
    new = solve_feasibility(variables, rows)
    ref = reference_solve(variables, rows)
    assert (new.feasible, new.detail) == (ref.feasible, ref.detail)
    assert _typed(new.point) == _typed(ref.point)
    assert _typed(new.certificate) == _typed(ref.certificate)
    if new.feasible:
        assert check_point(rows, new.point) == reference_check_point(rows, ref.point)
    return new


def _benchmark_lattices():
    lattices = [known.boolean(n) for n in workloads.BOOLEAN_ATOMS]
    lattices += [known.mo(n) for n in workloads.MO_SIZES]
    lattices += [known.chain(k) for k in sorted({*workloads.CHAIN_BLOCKS, 8})]
    return {data.name: data for data in [*lattices, known.state_free(REPO_ROOT)]}


BENCHMARK_LATTICES = _benchmark_lattices()


@pytest.mark.parametrize("name", list(BENCHMARK_LATTICES))
def test_integer_solver_matches_fraction_reference_on_lattices(name):
    data = BENCHMARK_LATTICES[name]
    lattice = oml.FiniteOML(data.elements, data.pairs, data.ortho, "0", "1")
    names, rows = oml.state_constraints(lattice)
    pins = known.infeasible_pins(data, np.random.default_rng(len(data)))
    pin_rows = [make_row({e: 1}, v, f"pin:{e}") for e, v in pins.items()]
    plain = _assert_same_as_reference(names, rows)
    assert plain.feasible == (name != "state-free")
    pinned = _assert_same_as_reference(names, rows + pin_rows)
    assert not pinned.feasible
    if plain.feasible:
        # a point that misses rows by thirds and by float noise
        moved = {k: v + Fraction(1, 3) if i % 3 == 0 else v for i, (k, v) in enumerate(plain.point.items())}
        noisy = {k: float(v) + 1e-10 * (i % 5) for i, (k, v) in enumerate(plain.point.items())}
        for point in (moved, noisy):
            assert check_point(rows, point) == reference_check_point(rows, point) > 0


def test_lattice_search_workload_passes_its_checks():
    # the benchmark reads Row and Certificate (``known.check_certificate``
    # reads ``row.rel``): every lattice_search job run once and checked as
    # a benchmark pass checks it
    built = workloads.lattice_search(0, REPO_ROOT)
    built.selfcheck()
    assert {job.cls for job in built.jobs} == {"lattice", "legal_exact", "legal_float", "ks"}
    for job in built.jobs:
        job.check(job.run())


def _rational(rnd: random.Random):
    return Fraction(rnd.randint(-4, 5), rnd.choice((1, 1, 2, 3, 5)))


def _random_rows(rnd: random.Random, variables):
    """Rows with 0/+-1/+-2 coefficients and now and then a rational one,
    self-complement rows {x: 2} = 1, rational right-hand sides."""
    rows = []
    for k in range(rnd.randint(1, 9)):
        kind = rnd.random()
        if rows and kind < 0.1:
            rows.append(rnd.choice(rows))
            continue
        if kind < 0.25:
            rows.append(make_row({rnd.choice(variables): 2}, 1, f"self-complement:{k}"))
            continue
        coeffs = {}
        for v in rnd.sample(variables, rnd.randint(1, len(variables))):
            coeffs[v] = _rational(rnd) if rnd.random() < 0.1 else rnd.choice((-2, -1, -1, 1, 1, 2))
        rhs = rnd.choice((0, 1, _rational(rnd)))
        rows.append(make_row(coeffs, rhs, f"row:{k}"))
    return rows


def _random_point(rnd: random.Random, variables):
    draws = (lambda: _rational(rnd), lambda: rnd.randint(0, 1), lambda: rnd.random(), lambda: rnd.choice((0.5, 1.0)))
    return {v: rnd.choice(draws)() for v in variables}


def test_integer_solver_matches_fraction_reference_on_random_systems():
    rnd = random.Random(1968)
    seen = Counter()
    for _ in range(250):
        variables = [f"x{j}" for j in range(rnd.randint(1, 6))]
        rows = _random_rows(rnd, variables)
        result = _assert_same_as_reference(variables, rows)
        seen[result.feasible, result.detail.split(" ")[0]] += 1
        if result.feasible and any(v.denominator > 1 for v in result.point.values()):
            seen["fractional point"] += 1
        for _ in range(3):
            point = _random_point(rnd, variables)
            assert check_point(rows, point) == reference_check_point(rows, point)
    # feasible, certified and bounded-phase verdicts all occur
    assert seen[True, ""] > 40 and seen["fractional point"] > 10
    assert seen[False, "equality"] > 20 and seen[False, "bounded"] > 10


def test_exact_phase_matches_fraction_reference_on_random_tableaux():
    # rational coefficients make non-unit pivots and ratio ties in the tableau
    rnd = random.Random(2007)
    verdicts = Counter()
    for _ in range(300):
        free = sorted(rnd.sample(range(8), rnd.randint(1, 5)))
        ineqs = []
        for _ in range(rnd.randint(1, 8)):
            coeffs = {v: rnd.choice((-2, -1, 1, 2, _rational(rnd))) for v in rnd.sample(free, rnd.randint(1, len(free)))}
            coeffs = {v: Fraction(c) for v, c in coeffs.items() if c != 0}
            if coeffs:
                ineqs.append((coeffs, _rational(rnd)))
        new = feasibility._exact_phase(ineqs, free)
        assert _typed(new) == _typed(reference_exact_phase([(dict(c), b) for c, b in ineqs], free))
        verdicts[new is not None] += 1
    assert verdicts[True] > 50 and verdicts[False] > 50
