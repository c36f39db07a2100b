import itertools
import math
import random
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qnsem import feasibility, oml
from qnsem.feasibility import EQ, GE, LE, Certificate, FeasibilityResult, check_point, make_row, solve_feasibility

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "perfbench"))
import known  # noqa: E402  (the benchmark's lattice builders)
import workloads  # noqa: E402


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


@pytest.mark.parametrize("pin", [-1e-12, 1 + 1e-12])
def test_pin_just_outside_the_box_is_infeasible(pin):
    # the pin leaves no free variable, so the box alone decides: the solver
    # must reject it exactly, with no tolerance
    result = solve_feasibility(["x"], [make_row({"x": 1}, EQ, pin)])
    assert not result.feasible and result.point is None


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
        result = solve_feasibility(variables, rows)
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


@pytest.mark.parametrize("bad", [
    float("nan"), float("inf"), float("-inf"), np.float64("nan"),
    pytest.param(np.float32("nan"), id="float32-nan"),
    pytest.param(np.float32("-inf"), id="float32-inf"),
    pytest.param(Decimal("nan"), id="decimal-nan"),
    pytest.param(Decimal("inf"), id="decimal-inf"),
])
def test_check_point_non_finite_is_maximal_violation(bad):
    rows = [make_row({"x": 1}, LE, Fraction(1, 2)), make_row({"x": 1, "y": 1}, EQ, 1)]
    assert check_point(rows, {"x": Fraction(1, 4), "y": bad}) == math.inf
    assert check_point(rows, {"x": bad, "y": 0.75}) == math.inf


def test_check_point_reads_any_real_number():
    # a Rational exactly, any other number through float()
    rows = [make_row({"x": 1, "y": 1}, EQ, 1), make_row({"x": 1}, LE, Fraction(1, 3))]
    for x, y in [(np.float32(0.25), 0.75), (Decimal("0.25"), Decimal("0.75")), (np.int64(0), True),
                 (Fraction(1, 3), Fraction(2, 3)), (1 / 3, np.float64(2 / 3))]:
        assert check_point(rows, {"x": x, "y": y}) == 0.0, (x, y)
    assert check_point(rows, {"x": np.float32(0.5), "y": np.float32(0.5)}) == pytest.approx(1 / 6)


def test_make_row_validation():
    with pytest.raises(ValueError, match="relation"):
        make_row({"x": 1}, "<", 0)


def test_make_row_and_evaluate_read_values_as_fraction_does():
    raw = {"a": 1.0, "b": "0", "c": Fraction(-2), "d": "1/3", "e": np.int64(2), "f": 0.5, "g": True}
    row = make_row(raw, LE, 0.0)
    expected = tuple(sorted((v, Fraction(c)) for v, c in raw.items() if Fraction(c) != 0))
    assert row.coeffs == expected and row.rhs == 0
    assert all(type(c) is Fraction for _, c in row.coeffs) and type(row.rhs) is Fraction
    point = {"a": 1, "c": Fraction(1, 2), "d": 0.75, "e": "1/4", "f": np.float64(1.0), "g": Fraction(3, 2)}
    expected = sum((c * Fraction(point[v]) for v, c in row.coeffs), Fraction(0))
    assert row.evaluate(point) == expected


# ---------------------------------------------------------------------------
# the Fraction solver the integer arithmetic replaced, kept as the reference:
# every decision (pivot per row, Bland's entering and leaving choice, ratio
# ties, the duplicate filter) and every number must come out the same


def reference_presolve(variables, rows):
    var_index = {v: i for i, v in enumerate(variables)}
    pivots = {}
    for i, row in enumerate(rows):
        if row.rel != EQ:
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
        if row.rel == EQ:
            continue
        coeffs, rhs = reference_substitute(row, pivots, var_index)
        if row.rel == GE:
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
        if row.rel == EQ:
            worst = max(worst, abs(gap))
        elif row.rel == LE:
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
    new_pivots, new_index, new_cert = feasibility._presolve(variables, rows)
    ref_pivots, ref_index, ref_cert = reference_presolve(variables, rows)
    assert _pivot_map(new_pivots) == _pivot_map(ref_pivots)
    assert new_index == ref_index and _typed(new_cert) == _typed(ref_cert)
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
    pin_rows = [make_row({e: 1}, EQ, v, f"pin:{e}") for e, v in pins.items()]
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


def _rational(rnd: random.Random):
    return Fraction(rnd.randint(-4, 5), rnd.choice((1, 1, 2, 3, 5)))


def _random_rows(rnd: random.Random, variables):
    """Rows with 0/+-1/+-2 coefficients and now and then a rational one,
    self-complement rows {x: 2} = 1, rational right-hand sides, EQ/LE/GE."""
    rows = []
    for k in range(rnd.randint(1, 9)):
        kind = rnd.random()
        if rows and kind < 0.1:
            rows.append(rnd.choice(rows))
            continue
        if kind < 0.25:
            rows.append(make_row({rnd.choice(variables): 2}, EQ, 1, f"self-complement:{k}"))
            continue
        coeffs = {}
        for v in rnd.sample(variables, rnd.randint(1, len(variables))):
            coeffs[v] = _rational(rnd) if rnd.random() < 0.1 else rnd.choice((-2, -1, -1, 1, 1, 2))
        rhs = rnd.choice((0, 1, _rational(rnd)))
        rows.append(make_row(coeffs, rnd.choice((EQ, EQ, LE, GE)), rhs, f"row:{k}"))
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
    # feasible, certified, bounded-phase and reduced-row verdicts all occur
    assert seen[True, ""] > 40 and seen["fractional point"] > 10
    assert seen[False, "equality"] > 20 and seen[False, "bounded"] > 10
    assert seen[False, "row"] > 2


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
