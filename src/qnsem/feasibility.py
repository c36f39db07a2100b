"""Small-scale linear feasibility over variables boxed to [0,1].

One exact presolve feeds two back ends.  The presolve runs Gaussian
elimination on the equality rows in rational arithmetic, so inconsistency is
detected exactly and comes with a row-combination certificate that can be
re-verified by direct arithmetic.  Consistent systems drop to a phase-one
feasibility problem over the remaining free variables, solved either exactly
or by scipy's HiGHS.  The exact back end is Chvatal's single-auxiliary phase
one with Bland's rule on the condensed tableau, in Fractions: one column per
free variable plus the auxiliary, none per slack, so a pivot costs
O(rows * free variables).  It imports no scipy.  HiGHS decides infeasibility
only through its infeasible status; when it stops without a verdict (an
iteration limit, numerical trouble), the same reduced system is solved
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

EQ, LE, GE = "==", "<=", ">="


@dataclass(frozen=True)
class Row:
    coeffs: tuple[tuple[str, Fraction], ...]
    rel: str
    rhs: Fraction
    label: str = ""

    def coeff_map(self) -> dict[str, Fraction]:
        return dict(self.coeffs)

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        return sum((c * Fraction(point[v]) for v, c in self.coeffs), Fraction(0))


def make_row(coeffs: Mapping[str, object], rel: str, rhs, label: str = "") -> Row:
    if rel not in (EQ, LE, GE):
        raise ValueError(f"bad relation {rel!r}")
    cleaned = tuple(sorted((v, f) for v, c in coeffs.items() if (f := Fraction(c)) != 0))
    return Row(cleaned, rel, Fraction(rhs), label)


@dataclass(frozen=True)
class Certificate:
    """Multipliers over the original equality rows combining to 0 = rhs != 0."""

    multipliers: tuple[tuple[int, Fraction], ...]
    combined_rhs: Fraction

    def verify(self, rows: Sequence[Row]) -> bool:
        total: dict[str, Fraction] = {}
        rhs = Fraction(0)
        for idx, mult in self.multipliers:
            row = rows[idx]
            if row.rel != EQ:
                return False
            for v, c in row.coeffs:
                total[v] = total.get(v, Fraction(0)) + mult * c
            rhs += mult * row.rhs
        return all(c == 0 for c in total.values()) and rhs != 0 and rhs == self.combined_rhs


@dataclass
class FeasibilityResult:
    feasible: bool
    point: dict[str, Fraction] | dict[str, float] | None = None
    certificate: Certificate | None = None
    detail: str = ""


def _presolve(variables: Sequence[str], rows: Sequence[Row]):
    """Exact elimination of the equality rows, tracking row combinations.

    Returns (pivots, var_index, certificate); pivots maps a variable index to
    (expression over free variable indices, constant, row combination), and a
    certificate replaces both when the equalities are inconsistent.
    """
    var_index = {v: i for i, v in enumerate(variables)}
    pivots: dict[int, tuple[dict[int, Fraction], Fraction, dict[int, Fraction]]] = {}
    for i, row in enumerate(rows):
        if row.rel != EQ:
            continue
        coeffs: dict[int, Fraction] = {}
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


def _substitute(row: Row, pivots, var_index) -> tuple[dict[int, Fraction], Fraction]:
    coeffs: dict[int, Fraction] = {}
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


def _exact_phase(ineqs, free_vars):
    """Exact feasibility of {A y <= b, 0 <= y <= 1} by Chvatal's phase one.

    The condensed (Tucker) tableau has one row per inequality, the upper
    bounds y <= 1 included, and one column per nonbasic variable: the free
    variables and one auxiliary x0 that relaxes every row to A y - x0 <= b.
    Row i reads ``basic_i = rhs_i - sum_j tab[i][j] * nonbasic_j``.  One
    pivot of x0 into the most violated row makes the dictionary feasible;
    Bland's rule then lowers x0 until it reaches zero (feasible) or cannot
    fall further (infeasible).  Variables are ordered x0 < y < slacks, so on
    ties x0 leaves first.  Returns a point over the free variable indices or
    None.
    """
    order = sorted(free_vars)
    cols = {v: j for j, v in enumerate(order)}
    n = len(order)
    tab: list[list[Fraction]] = []  # the last column is x0's, -1 in every row
    rhs: list[Fraction] = []
    for coeffs, b in ineqs:
        vec = [Fraction(0)] * n + [Fraction(-1)]
        for v, c in coeffs.items():
            vec[cols[v]] = c
        tab.append(vec)
        rhs.append(b)
    for j in range(n):  # upper bounds; lower bounds are nonnegativity
        vec = [Fraction(0)] * n + [Fraction(-1)]
        vec[j] = Fraction(1)
        tab.append(vec)
        rhs.append(Fraction(1))
    if all(b >= 0 for b in rhs):
        return {v: Fraction(0) for v in order}
    if n == 0:
        return None
    # variable ids: x0 is 0, free variable j is 1 + j, the slack of row i is 1 + n + i
    nonbasic = list(range(1, n + 1)) + [0]
    basic = list(range(n + 1, n + 1 + len(tab)))

    def pivot(r: int, s: int) -> None:
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
    pivot(r0, n)  # x0 enters at the most violated row; every rhs is now >= 0
    while rhs[r0] != 0:
        goal = tab[r0]
        entering = [j for j in range(n + 1) if goal[j] > 0]
        if not entering:
            return None  # min x0 > 0
        s = min(entering, key=nonbasic.__getitem__)
        r = min(
            (i for i in range(len(tab)) if tab[i][s] > 0),
            key=lambda i: (rhs[i] / tab[i][s], basic[i]),
        )
        pivot(r, s)
        if r == r0:
            break  # x0 left the basis at zero
    point = {v: Fraction(0) for v in order}
    for i, b in enumerate(basic):
        if 1 <= b <= n:
            point[order[b - 1]] = rhs[i]
    return point


def _float_phase(ineqs, free_vars):
    order = sorted(free_vars)
    if not order:  # every reduced row is a Fraction constant: decide it exactly
        return _exact_phase(ineqs, free_vars)
    from scipy.optimize import linprog

    cols = {v: j for j, v in enumerate(order)}
    a_ub, b_ub = [], []
    for coeffs, rhs in ineqs:
        vec = [0.0] * len(order)
        for v, c in coeffs.items():
            vec[cols[v]] = float(c)
        a_ub.append(vec)
        b_ub.append(float(rhs))
    res = linprog(
        c=[0.0] * len(order),
        A_ub=a_ub or None,
        b_ub=b_ub or None,
        bounds=[(0.0, 1.0)] * len(order),
        method="highs",
    )
    if res.status == 2:
        return None
    if not res.success:  # iteration limit or numerical trouble: no verdict from HiGHS
        return _exact_phase(ineqs, free_vars)
    return {v: Fraction(float(res.x[cols[v]])).limit_denominator(10**12) for v in order}


def solve_feasibility(
    variables: Sequence[str],
    rows: Sequence[Row],
    exact: bool = True,
) -> FeasibilityResult:
    """Decide feasibility of the rows with every variable boxed to [0,1]."""
    rows = list(rows)
    pivots, var_index, cert = _presolve(variables, rows)
    if cert is not None:
        if not cert.verify(rows):  # pragma: no cover - internal consistency
            raise RuntimeError("presolve produced an unverifiable certificate")
        return FeasibilityResult(False, None, cert, "equality rows are inconsistent")
    free_vars = [i for i in range(len(variables)) if i not in pivots]
    ineqs: list[tuple[dict[int, Fraction], Fraction]] = []
    for row in rows:
        if row.rel == EQ:
            continue
        coeffs, rhs = _substitute(row, pivots, var_index)
        if row.rel == GE:
            coeffs = {v: -c for v, c in coeffs.items()}
            rhs = -rhs
        if not coeffs:
            if rhs < 0:
                return FeasibilityResult(
                    False, None, None, f"row {row.label!r} reduces to 0 <= {rhs}"
                )
            continue
        ineqs.append((coeffs, rhs))
    for p, (expr, prhs, _combo) in pivots.items():
        ineqs.append(({v: -c for v, c in expr.items()}, prhs))  # pivot >= 0
        ineqs.append((dict(expr), Fraction(1) - prhs))  # pivot <= 1
    # exact duplicates add tableau rows and nothing else; in a lattice an
    # element and its complement reduce to the same pair of pivot bounds
    unique: dict[tuple, tuple[dict[int, Fraction], Fraction]] = {}
    for coeffs, rhs in ineqs:
        unique.setdefault((frozenset(coeffs.items()), rhs), (coeffs, rhs))
    ineqs = list(unique.values())
    if exact:
        point_free = _exact_phase(ineqs, free_vars)
    else:
        point_free = _float_phase(ineqs, free_vars)
    if point_free is None:
        return FeasibilityResult(False, None, None, "bounded phase is infeasible")
    names = list(variables)
    point: dict[str, Fraction] = {names[v]: val for v, val in point_free.items()}
    for p, (expr, prhs, _combo) in pivots.items():
        point[names[p]] = prhs + sum(
            (c * point_free[v] for v, c in expr.items()), Fraction(0)
        )
    if not exact:
        return FeasibilityResult(True, {k: float(v) for k, v in point.items()}, None)
    return FeasibilityResult(True, point, None)


def check_point(rows: Sequence[Row], point: Mapping[str, object]) -> float:
    """Maximum constraint violation at the point; exactly 0.0 for rational
    points satisfying every row."""
    frac_point = {k: Fraction(v) if not isinstance(v, float) else Fraction(v).limit_denominator(10**15) for k, v in point.items()}
    worst = Fraction(0)
    for row in rows:
        val = row.evaluate(frac_point)
        gap = val - row.rhs
        if row.rel == EQ:
            worst = max(worst, abs(gap))
        elif row.rel == LE:
            worst = max(worst, max(Fraction(0), gap))
        else:
            worst = max(worst, max(Fraction(0), -gap))
    return float(worst)
