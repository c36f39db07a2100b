"""Small-scale feasibility of linear equalities over variables boxed to
[0,1], in exact rational arithmetic; the box, left implicit, is the only
inequality.

An exact presolve runs Gaussian elimination on the rows, so inconsistency
is detected exactly and comes with a row-combination certificate that can
be re-verified by direct arithmetic: the elimination tracks the row
combination behind every pivot.  Consistent systems drop to a phase-one
problem over the free variables whose only rows are the box bounds of the
pivots and of the free variables: Chvatal's single-auxiliary phase one with
Bland's rule on the condensed tableau, one column per free variable plus
the auxiliary, none per slack, so a pivot costs O(rows * free variables).

The arithmetic runs on Python ints (never fixed-width numpy integers, which
wrap).  The presolve keeps each row as integer numerators over one positive
denominator; lattice state rows have 0/+-1 coefficients, so almost every
pivot has denominator 1 and substitutes by int products.  The reduced rows,
the tableau and :func:`check_point` hold a number as an int where it is
integral and as a ``Fraction`` only where it is not.  ``Row``,
``Certificate`` and points carry ``Fraction`` values; only their conversion
at the boundary builds them.  Numbers given from outside (points, pins) are
read by :func:`to_fraction`, except that :func:`check_point` takes an int or
Fraction coordinate as it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import gcd, inf, isfinite, lcm
from numbers import Rational, Real
from typing import Mapping, NamedTuple, Sequence


class Row(NamedTuple):
    """The equality sum(c * x_v for v, c in coeffs) == rhs; ``rel`` is always "==", not a field."""

    coeffs: tuple[tuple[str, Fraction], ...]
    rhs: Fraction
    label: str = ""
    rel = "=="

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


def make_row(coeffs: Mapping[str, object], rhs, label: str = "") -> Row:
    """The equality row ``sum coeffs[v] * x_v == rhs``: each number read by
    ``Fraction()``, the terms sorted by variable, zero terms dropped."""
    cleaned = tuple(sorted((v, f) for v, c in coeffs.items() if (f := _fraction(c))))
    return Row(cleaned, _fraction(rhs), label)


@dataclass(frozen=True)
class Certificate:
    """Multipliers over the original equality rows combining to 0 = rhs != 0;
    a row index outside the rows does not verify."""

    multipliers: tuple[tuple[int, Fraction], ...]
    combined_rhs: Fraction

    def verify(self, rows: Sequence[Row]) -> bool:
        total: dict[str, Fraction] = {}
        rhs = Fraction(0)
        for idx, mult in self.multipliers:
            if not 0 <= idx < len(rows):  # a negative index would wrap around
                return False
            for v, c in rows[idx].coeffs:
                total[v] = total.get(v, Fraction(0)) + mult * c
            rhs += mult * rows[idx].rhs
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
    """Exact elimination of the rows.

    Returns (pivots, certificate); pivots maps a variable index to
    (expression over free variable indices, constant, row combination), with
    ints where integral, else Fractions, and the certificate replaces them
    when the rows are inconsistent: the row combination of the first row
    that reduces to 0 = rhs != 0.
    """
    pivots, failure = _eliminate(rows, {v: i for i, v in enumerate(variables)})
    if failure is not None:
        rhs, combo, den = failure
        multipliers = tuple(sorted((r, Fraction(m, den)) for r, m in combo.items()))
        return None, Certificate(multipliers, Fraction(rhs, den))
    return {p: _divided(*entry) for p, entry in pivots.items()}, None


def _eliminate(rows: Sequence[Row], var_index):
    """Gaussian elimination of the rows, in order, up to the first
    inconsistent one.

    Returns (pivots, failure).  pivots maps p to (expr, rhs, combo, den):
    x_p = (rhs + sum expr[v] x_v) / den, and combo[r] / den is the
    multiplier of row r in the row combination that gives it.  failure is
    (rhs, combo, den) for the first row that reduces to 0 = rhs / den != 0,
    else None.

    The elimination runs on integers: the working row and every pivot keep
    integer numerators over one positive denominator (a pivot's in lowest
    terms), so a pivot of denominator 1, the usual case, substitutes with
    plain int products.  ``holders[v]`` holds every pivot whose expression
    may contain v, so a new pivot is substituted into those alone.
    """
    pivots: dict[int, tuple[dict[int, int], int, dict[int, int], int]] = {}
    holders: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
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
                return pivots, (rhs, combo, den)
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
        for q in holders.pop(p, ()):
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
                holders.setdefault(v, set()).add(q)
            for r, m in pcombo.items():
                qcombo[r] = qcombo.get(r, 0) + f * m
            q_entry = (
                {v: c for v, c in qexpr.items() if c},
                qrhs + f * prhs,
                {r: m for r, m in qcombo.items() if m},
                qden,
            )
            pivots[q] = _lowest_terms(*q_entry) if qden != 1 else q_entry
        for v in expr:
            holders.setdefault(v, set()).add(p)
        pivots[p] = (expr, prhs, pcombo, pden)
    return pivots, None


def _divided(expr: dict, rhs: int, combo: dict, den: int):
    """A pivot with every number divided by den: ints where integral."""
    if den == 1:
        return expr, rhs, combo
    return (
        {v: _quotient(c, den) for v, c in expr.items()},
        _quotient(rhs, den),
        {r: _quotient(m, den) for r, m in combo.items()},
    )


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
    rhs: list = [_canonical(b) for _, b in ineqs]
    if all(b >= 0 for b in rhs):  # the upper bounds' rows read 1
        return {v: Fraction(0) for v in order}
    n = len(order)
    if n == 0:
        return None
    cols = {v: j for j, v in enumerate(order)}
    tab: list[list] = []  # the last column is x0's, -1 in every row
    for coeffs, _ in ineqs:
        vec = [0] * n + [-1]
        for v, c in coeffs.items():
            vec[cols[v]] = _canonical(c)
        tab.append(vec)
    for j in range(n):  # upper bounds; lower bounds are nonnegativity
        vec = [0] * n + [-1]
        vec[j] = 1
        tab.append(vec)
        rhs.append(1)
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
    """Decide feasibility of the equality rows with every variable boxed to
    [0,1]."""
    rows = list(rows)
    pivots, cert = _presolve(variables, rows)
    if cert is not None:
        if not cert.verify(rows):  # pragma: no cover - internal consistency
            raise RuntimeError("presolve produced an unverifiable certificate")
        return FeasibilityResult(False, None, cert, "equality rows are inconsistent")
    free_vars = [i for i in range(len(variables)) if i not in pivots]
    # the bounds 0 <= pivot <= 1 over the free variables; exact duplicates
    # add tableau rows and nothing else, and in a lattice an element and its
    # complement reduce to the same pair (an int and the equal Fraction hash
    # and compare alike)
    unique: dict[tuple, tuple[dict[int, object], object]] = {}
    for expr, prhs, _combo in pivots.values():
        for coeffs, rhs in (({v: -c for v, c in expr.items()}, prhs), (expr, 1 - prhs)):
            unique.setdefault((frozenset(coeffs.items()), rhs), (coeffs, rhs))
    point_free = _exact_phase(list(unique.values()), free_vars)
    if point_free is None:
        return FeasibilityResult(False, None, None, "bounded phase is infeasible")
    names = list(variables)
    point: dict[str, Fraction] = {names[v]: val for v, val in point_free.items()}
    free_value = {v: _canonical(val) for v, val in point_free.items()}
    for p, (expr, prhs, _combo) in pivots.items():
        point[names[p]] = Fraction(prhs + sum(c * free_value[v] for v, c in expr.items()))
    return FeasibilityResult(True, point, None)


def to_fraction(value, max_denominator: int) -> Fraction | None:
    """A number given from outside, as a Fraction; None when it is not a
    finite real number (``numbers.Real`` or ``Decimal``).

    A ``numbers.Rational`` (int, bool, Fraction, a numpy integer) is read
    exactly, into Python ints: a Fraction built from a numpy integer keeps
    it as its numerator and wraps around in later products.  Any other real
    number (float, numpy float32, Decimal) goes through ``float(value)`` and
    is read as the nearest fraction with denominator at most
    ``max_denominator``.  Anything else, a string or None say, is not read.
    """
    if isinstance(value, Rational):
        return Fraction(int(value.numerator), int(value.denominator))
    if not isinstance(value, (Real, Decimal)):
        return None
    x = float(value)
    return Fraction(x).limit_denominator(max_denominator) if isfinite(x) else None


def check_point(rows: Sequence[Row], point: Mapping[str, object]) -> float:
    """The largest |lhs - rhs| over the rows at the point; exactly 0.0 for
    a rational point satisfying every row, and ``math.inf`` for a point with
    a coordinate that is not a finite real number (NaN, infinite, a string,
    None).  The box is not checked.

    An int or Fraction coordinate is read as it is; any other is read by
    :func:`to_fraction` with denominators up to 10**15.  Every sum is exact.
    """
    value = {}
    for k, v in point.items():
        if v.__class__ is int or v.__class__ is Fraction:
            value[k] = _canonical(v)
            continue
        x = to_fraction(v, 10**15)
        if x is None:
            return inf
        value[k] = _canonical(x)
    worst = 0
    for row in rows:
        gap = abs(row.evaluate(value) - _canonical(row.rhs))
        if gap > worst:
            worst = gap
    return float(worst)
