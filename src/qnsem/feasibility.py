"""Small-scale linear feasibility over variables boxed to [0,1], in exact
rational arithmetic.

An exact presolve runs Gaussian elimination on the equality rows, so
inconsistency is detected exactly and comes with a row-combination
certificate that can be re-verified by direct arithmetic.  Consistent
systems drop to a phase-one feasibility problem over the remaining free
variables: Chvatal's single-auxiliary phase one with Bland's rule on the
condensed tableau, one column per free variable plus the auxiliary, none
per slack, so a pivot costs O(rows * free variables).

The arithmetic runs on Python ints (never fixed-width numpy integers, which
wrap).  The presolve keeps each row as integer numerators over one positive
denominator; lattice state rows have 0/+-1 coefficients, so almost every
pivot has denominator 1 and substitutes by int products.  The reduced rows,
the tableau and :func:`check_point` hold a number as an int where it is
integral and as a ``Fraction`` only where it is not.  ``Row``,
``Certificate`` and points carry ``Fraction`` values; only their conversion
at the boundary builds them.  Numbers given from outside (points, pins) are
read by :func:`to_fraction`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf, isfinite, lcm
from numbers import Rational
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

    def evaluate(self, point: Mapping[str, object]) -> int | Fraction:
        """The left-hand side at the point, exactly.

        Int and Fraction coordinates are used as they are, any other through
        ``Fraction()``; the sum is an int when every term is.
        """
        total = 0
        for v, c in self.coeffs:
            x = point[v]
            if x.__class__ is not int and x.__class__ is not Fraction:
                x = Fraction(x)
            total += (c.numerator if c.denominator == 1 else c) * x
        return total


# shared Fractions for the small integers rows are built from; a value equal to
# one of them (an int, a float, a Fraction) is read as that one
_SMALL = {c: Fraction(c) for c in range(-2, 3)}


def _fraction(x) -> Fraction:
    f = _SMALL.get(x)
    return Fraction(x) if f is None else f


def make_row(coeffs: Mapping[str, object], rel: str, rhs, label: str = "") -> Row:
    if rel not in (EQ, LE, GE):
        raise ValueError(f"bad relation {rel!r}")
    cleaned = tuple(sorted((v, f) for v, c in coeffs.items() if (f := _fraction(c))))
    return Row(cleaned, rel, _fraction(rhs), label)


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
    point: dict[str, Fraction] | None = None
    certificate: Certificate | None = None
    detail: str = ""


def _canonical(x):
    """x as an int when it is integral, else as a Fraction."""
    if x.__class__ is int:
        return x
    return x.numerator if x.denominator == 1 else x


def _quotient(a, b):
    """a / b, exactly; an int when it is integral."""
    if a.__class__ is int and b.__class__ is int:
        q, r = divmod(a, b)
        return q if r == 0 else Fraction(a, b)
    return _canonical(a / b)


def _scaled(row: Row, var_index) -> tuple[dict[int, int], int, int]:
    """The row as integer coefficients and right-hand side over one positive
    denominator."""
    den = lcm(row.rhs.denominator, *(c.denominator for _, c in row.coeffs))
    coeffs: dict[int, int] = {}
    for v, c in row.coeffs:
        k = var_index[v]
        coeffs[k] = coeffs.get(k, 0) + c.numerator * (den // c.denominator)
    return coeffs, row.rhs.numerator * (den // row.rhs.denominator), den


def _lowest_terms(expr: dict, rhs: int, combo: dict, den: int):
    """The same pivot with its numerators and denominator divided by their gcd."""
    g = gcd(den, rhs, *expr.values(), *combo.values())
    if g == 1:
        return expr, rhs, combo, den
    return (
        {v: c // g for v, c in expr.items()},
        rhs // g,
        {r: m // g for r, m in combo.items()},
        den // g,
    )


def _presolve(variables: Sequence[str], rows: Sequence[Row]):
    """Exact elimination of the equality rows, tracking row combinations.

    Returns (pivots, var_index, certificate); pivots maps a variable index to
    (expression over free variable indices, constant, row combination), and a
    certificate replaces both when the equalities are inconsistent.

    The elimination runs on integers: the working row and every pivot keep
    integer numerators over one positive denominator (a pivot's in lowest
    terms), so a pivot of denominator 1, the usual case, substitutes with
    plain int products.  The pivots come out as ints where integral, else
    Fractions.
    """
    var_index = {v: i for i, v in enumerate(variables)}
    # p -> (expr, rhs, combo, den): x_p = (rhs + sum expr[v] x_v) / den
    pivots: dict[int, tuple[dict[int, int], int, dict[int, int], int]] = {}
    for i, row in enumerate(rows):
        if row.rel != EQ:
            continue
        coeffs, rhs, den = _scaled(row, var_index)
        combo = {i: den}  # the working row is sum combo[r] * row r, over den
        for p in sorted(coeffs.keys() & pivots.keys()):
            factor = coeffs.pop(p)
            expr, prhs, pcombo, pden = pivots[p]
            if pden != 1:
                coeffs = {v: c * pden for v, c in coeffs.items()}
                combo = {r: m * pden for r, m in combo.items()}
                rhs *= pden
                den *= pden
            for v, c in expr.items():
                coeffs[v] = coeffs.get(v, 0) + factor * c
            rhs -= factor * prhs
            for r, m in pcombo.items():
                combo[r] = combo.get(r, 0) - factor * m
        coeffs = {v: c for v, c in coeffs.items() if c}
        combo = {r: m for r, m in combo.items() if m}
        if not coeffs:
            if rhs != 0:
                multipliers = tuple(sorted((r, Fraction(m, den)) for r, m in combo.items()))
                return None, None, Certificate(multipliers, Fraction(rhs, den))
            continue
        p = min(coeffs)
        factor = coeffs.pop(p)  # the row's denominator cancels in x_p
        if factor > 0:
            expr, prhs, pcombo = {v: -c for v, c in coeffs.items()}, rhs, combo
        else:
            expr, prhs, pcombo = coeffs, -rhs, {r: -m for r, m in combo.items()}
        pden = abs(factor)
        if pden != 1:
            expr, prhs, pcombo, pden = _lowest_terms(expr, prhs, pcombo, pden)
        for q in list(pivots):
            qexpr, qrhs, qcombo, qden = pivots[q]
            if p not in qexpr:
                continue
            f = qexpr.pop(p)
            if pden != 1:
                qexpr = {v: c * pden for v, c in qexpr.items()}
                qcombo = {r: m * pden for r, m in qcombo.items()}
                qrhs *= pden
                qden *= pden
            for v, c in expr.items():
                qexpr[v] = qexpr.get(v, 0) + f * c
            for r, m in pcombo.items():
                qcombo[r] = qcombo.get(r, 0) + f * m
            q_entry = (
                {v: c for v, c in qexpr.items() if c},
                qrhs + f * prhs,
                {r: m for r, m in qcombo.items() if m},
                qden,
            )
            pivots[q] = _lowest_terms(*q_entry) if qden != 1 else q_entry
        pivots[p] = (expr, prhs, pcombo, pden)
    return {p: _divided(*entry) for p, entry in pivots.items()}, var_index, None


def _divided(expr: dict, rhs: int, combo: dict, den: int):
    """A pivot with every number divided by den: ints where integral."""
    if den == 1:
        return expr, rhs, combo
    return (
        {v: _quotient(c, den) for v, c in expr.items()},
        _quotient(rhs, den),
        {r: _quotient(m, den) for r, m in combo.items()},
    )


def _substitute(row: Row, pivots, var_index) -> tuple[dict[int, object], object]:
    coeffs, rhs, den = _scaled(row, var_index)
    for p in sorted(coeffs.keys() & pivots.keys()):
        factor = coeffs.pop(p)
        expr, prhs = pivots[p][0], pivots[p][1]
        for v, c in expr.items():
            coeffs[v] = coeffs.get(v, 0) + factor * c
        rhs -= factor * prhs
    return {v: _quotient(c, den) for v, c in coeffs.items() if c}, _quotient(rhs, den)


def _exact_phase(ineqs, free_vars):
    """Exact feasibility of {A y <= b, 0 <= y <= 1} by Chvatal's phase one.

    The condensed (Tucker) tableau has one row per inequality, the upper
    bounds y <= 1 included, and one column per nonbasic variable: the free
    variables and one auxiliary x0 that relaxes every row to A y - x0 <= b.
    Row i reads ``basic_i = rhs_i - sum_j tab[i][j] * nonbasic_j``.  One
    pivot of x0 into the most violated row makes the dictionary feasible;
    Bland's rule then lowers x0 until it reaches zero (feasible) or cannot
    fall further (infeasible).  Variables are ordered x0 < y < slacks, so on
    ties x0 leaves first.  Entries are ints where integral, else Fractions.
    Returns a point (Fractions) over the free variable indices or None.
    """
    order = sorted(free_vars)
    cols = {v: j for j, v in enumerate(order)}
    n = len(order)
    tab: list[list] = []  # the last column is x0's, -1 in every row
    rhs: list = []
    for coeffs, b in ineqs:
        vec = [0] * n + [-1]
        for v, c in coeffs.items():
            vec[cols[v]] = _canonical(c)
        tab.append(vec)
        rhs.append(_canonical(b))
    for j in range(n):  # upper bounds; lower bounds are nonnegativity
        vec = [0] * n + [-1]
        vec[j] = 1
        tab.append(vec)
        rhs.append(1)
    if all(b >= 0 for b in rhs):
        return {v: Fraction(0) for v in order}
    if n == 0:
        return None
    # variable ids: x0 is 0, free variable j is 1 + j, the slack of row i is 1 + n + i
    nonbasic = list(range(1, n + 1)) + [0]
    basic = list(range(n + 1, n + 1 + len(tab)))

    def pivot(r: int, s: int) -> None:
        inv = _quotient(1, tab[r][s])
        prow = [_canonical(c * inv) for c in tab[r]]
        prow[s] = inv
        prhs = _canonical(rhs[r] * inv)
        nonzero = [(j, c) for j, c in enumerate(prow) if c != 0 and j != s]
        for i, row in enumerate(tab):
            f = row[s]
            if i == r or f == 0:
                continue
            for j, c in nonzero:
                row[j] = _canonical(row[j] - f * c)
            row[s] = _canonical(-f * inv)
            rhs[i] = _canonical(rhs[i] - f * prhs)
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
            key=lambda i: (_quotient(rhs[i], tab[i][s]), basic[i]),
        )
        pivot(r, s)
        if r == r0:
            break  # x0 left the basis at zero
    point = {v: Fraction(0) for v in order}
    for i, b in enumerate(basic):
        if 1 <= b <= n:
            point[order[b - 1]] = Fraction(rhs[i])
    return point


def solve_feasibility(
    variables: Sequence[str],
    rows: Sequence[Row],
) -> FeasibilityResult:
    """Decide feasibility of the rows with every variable boxed to [0,1]."""
    rows = list(rows)
    pivots, var_index, cert = _presolve(variables, rows)
    if cert is not None:
        if not cert.verify(rows):  # pragma: no cover - internal consistency
            raise RuntimeError("presolve produced an unverifiable certificate")
        return FeasibilityResult(False, None, cert, "equality rows are inconsistent")
    free_vars = [i for i in range(len(variables)) if i not in pivots]
    ineqs: list[tuple[dict[int, object], object]] = []
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
                    False, None, None, f"row {row.label!r} reduces to 0 <= {Fraction(rhs)}"
                )
            continue
        ineqs.append((coeffs, rhs))
    for p, (expr, prhs, _combo) in pivots.items():
        ineqs.append(({v: -c for v, c in expr.items()}, prhs))  # pivot >= 0
        ineqs.append((dict(expr), 1 - prhs))  # pivot <= 1
    # exact duplicates add tableau rows and nothing else; in a lattice an
    # element and its complement reduce to the same pair of pivot bounds
    # (an int and the equal Fraction hash and compare alike)
    unique: dict[tuple, tuple[dict[int, object], object]] = {}
    for coeffs, rhs in ineqs:
        unique.setdefault((frozenset(coeffs.items()), rhs), (coeffs, rhs))
    ineqs = list(unique.values())
    point_free = _exact_phase(ineqs, free_vars)
    if point_free is None:
        return FeasibilityResult(False, None, None, "bounded phase is infeasible")
    names = list(variables)
    point: dict[str, Fraction] = {names[v]: val for v, val in point_free.items()}
    free_value = {v: _canonical(val) for v, val in point_free.items()}
    for p, (expr, prhs, _combo) in pivots.items():
        point[names[p]] = Fraction(prhs + sum(c * free_value[v] for v, c in expr.items()))
    return FeasibilityResult(True, point, None)


def to_fraction(value, max_denominator: int) -> Fraction | None:
    """A number given from outside, as a Fraction; None when it is not finite.

    A ``numbers.Rational`` (int, bool, Fraction, a numpy integer) is read
    exactly.  Any other number (float, numpy float32, Decimal) goes through
    ``float(value)`` and is read as the nearest fraction with denominator at
    most ``max_denominator``.
    """
    if isinstance(value, Rational):
        return Fraction(value)
    x = float(value)
    return Fraction(x).limit_denominator(max_denominator) if isfinite(x) else None


def check_point(rows: Sequence[Row], point: Mapping[str, object]) -> float:
    """Maximum constraint violation at the point; exactly 0.0 for rational
    points satisfying every row, and ``math.inf`` for a point with a NaN or
    infinite coordinate.

    Coordinates are read by :func:`to_fraction` with denominators up to
    10**15; every sum is exact.
    """
    value = {}
    for k, v in point.items():
        x = to_fraction(v, 10**15)
        if x is None:
            return inf
        value[k] = _canonical(x)
    worst = 0
    for row in rows:
        gap = row.evaluate(value) - _canonical(row.rhs)
        if row.rel == EQ:
            gap = abs(gap)
        elif row.rel != LE:
            gap = -gap
        if gap > worst:
            worst = gap
    return float(worst)
