"""Non-deterministic matrices: finite and interval-valued truth tables whose
cells are sets of values, with the legality, validity, consequence, adequacy,
and refinement/expansion machinery built on top of them.

A matrix interprets each connective by a function from value tuples to
non-empty value sets; a *dynamic* valuation picks one member per compound
formula, a *static* one additionally agrees on same-connective compounds with
equal component values.  Deterministic matrices (all cells singletons) make
the two notions coincide.

Interval matrices over V = [0,1] interpret the binary connectives by cases on
a binary relation between the denoted propositions (orthogonal or not), so
legality checks for them need a relation oracle supplied by the caller.
:class:`Bindings` is the one denotation evaluator behind both oracles the
package ships: projectors (``quantum.ProjectorBindings``) and the elements of
a finite orthomodular lattice (``oml.LatticeBindings``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Generic, Iterable, Mapping, Sequence, TypeVar

import numpy as np

from .formulas import And, Atom, Formula, Not, Or, children, render, subformula_closure
from .linalg import DEFAULT_TOL
from .valuesets import (
    OPEN_SHIFT,
    FiniteValues,
    IntervalUnion,
    ValueSet,
    finite,
    interval,
    interval_union,
    point,
)

CONNECTIVE_ARITY = {"not": 1, "and": 2, "or": 2}

# Relation cases for interval-matrix binary tables.
ORTHOGONAL = "orthogonal"
NON_ORTHOGONAL = "non_orthogonal"
AMBIGUOUS = "ambiguous"

# Input cases keyed by designation: unary tables split by whether the input
# is designated, binary ones by both inputs ("du": designated left,
# undesignated right).
DESIGNATED = "designated"
UNDESIGNATED = "undesignated"
ANY = "any"


class RelationOracle:
    """Decides the relation case between the propositions denoted by two formulas."""

    def classify(self, left: Formula, right: Formula) -> str:  # pragma: no cover
        raise NotImplementedError


E = TypeVar("E")


class Bindings(RelationOracle, Generic[E]):
    """Maps atoms to lattice elements and compound formulas to the elements
    they denote, memoized per formula.

    Subclasses supply the lattice operations ``ortho(x)``, ``meet(x, y)``
    and ``join(x, y)`` on their element type, and ``classify`` on top of
    ``denote``.
    """

    def __init__(self, atoms: Mapping[str, E]):
        self.atoms = dict(atoms)
        self._cache: dict[Formula, E] = {}

    def denote(self, f: Formula) -> E:
        """The element ``f`` denotes, evaluating uncached subformulas
        children first (left before right) on an explicit stack."""
        cache = self._cache
        if f in cache:
            return cache[f]
        stack = [f]
        while stack:
            g = stack[-1]
            if g in cache:
                stack.pop()
            elif isinstance(g, Atom):
                if g.name not in self.atoms:
                    raise ValueError(f"unbound atom {g.name!r}")
                cache[g] = self.atoms[g.name]
                stack.pop()
            elif isinstance(g, Not):
                if g.child in cache:
                    cache[g] = self.ortho(cache[g.child])
                    stack.pop()
                else:
                    stack.append(g.child)
            elif not isinstance(g, (And, Or)):
                raise TypeError(f"not a formula: {g!r}")
            elif g.left not in cache:
                stack.append(g.left)
            elif g.right not in cache:
                stack.append(g.right)
            else:
                op = self.meet if isinstance(g, And) else self.join
                cache[g] = op(cache[g.left], cache[g.right])
                stack.pop()
        return cache[f]


# ---------------------------------------------------------------------------
# finite matrices


@dataclass(frozen=True)
class FiniteNMatrix:
    """Finite truth-value domain, designated subset, and set-valued tables."""

    values: tuple[str, ...]
    designated: frozenset[str]
    tables: Mapping[str, Mapping[tuple[str, ...], FiniteValues]]
    name: str = ""

    def __post_init__(self):
        vset = set(self.values)
        if len(self.values) != len(vset):
            raise ValueError("duplicate truth values")
        if not self.designated or not self.designated < vset:
            raise ValueError("designated values must be a non-empty proper subset")
        for conn, table in self.tables.items():
            arity = CONNECTIVE_ARITY.get(conn)
            if arity is None:
                raise ValueError(f"unknown connective {conn!r}")
            want = len(self.values) ** arity
            if len(table) != want:
                raise ValueError(f"table for {conn!r} has {len(table)} cells, expected {want}")
            for key, cell in table.items():
                if len(key) != arity or any(v not in vset for v in key):
                    raise ValueError(f"bad key {key!r} in table for {conn!r}")
                if not cell.labels <= vset:
                    raise ValueError(f"cell {conn}{key} leaves the value domain")

    def cell(self, conn: str, args: tuple[str, ...]) -> FiniteValues:
        return self.tables[conn][args]

    def is_designated(self, value: str) -> bool:
        return value in self.designated

    def cell_values_ordered(self, cell: FiniteValues) -> list[str]:
        order = {v: i for i, v in enumerate(self.values)}
        return sorted(cell.labels, key=order.__getitem__)

    def to_json(self) -> dict:
        return {
            "values": list(self.values),
            "designated": sorted(self.designated, key=self.values.index),
            "tables": {
                conn: {",".join(key): self.cell_values_ordered(cell) for key, cell in table.items()}
                for conn, table in self.tables.items()
            },
        }

    @staticmethod
    def from_json(obj: dict, name: str = "") -> "FiniteNMatrix":
        values = tuple(obj["values"])
        tables = {}
        for conn, table in obj["tables"].items():
            cells = {}
            for key, labels in table.items():
                parts = tuple(key.split(","))
                cells[parts] = finite(*labels)
            tables[conn] = cells
        return FiniteNMatrix(values, frozenset(obj["designated"]), tables, name)


def _table(values: Sequence[str], rows: Mapping[tuple[str, str], Iterable[str]]):
    return {key: finite(*labels) for key, labels in rows.items()}


def three_valued_matrix() -> FiniteNMatrix:
    """Three values {t, T, F}, designated {t}: the coarse image of the unit
    interval under certain / intermediate / impossible."""
    t, T, F = "t", "T", "F"
    or_rows = {
        (t, t): {t}, (t, T): {t}, (t, F): {t},
        (T, t): {t}, (T, T): {t, T}, (T, F): {t, T},
        (F, t): {t}, (F, T): {t, T}, (F, F): {t, T, F},
    }
    and_rows = {
        (t, t): {t, T, F}, (t, T): {F, T}, (t, F): {F},
        (T, t): {T, F}, (T, T): {T, F}, (T, F): {F},
        (F, t): {F}, (F, T): {F}, (F, F): {F},
    }
    not_rows = {(t,): {F}, (T,): {T}, (F,): {t}}
    return FiniteNMatrix(
        (t, T, F),
        frozenset({t}),
        {
            "or": _table((t, T, F), or_rows),
            "and": _table((t, T, F), and_rows),
            "not": _table((t, T, F), not_rows),
        },
        name="three-valued",
    )


def two_valued_matrix() -> FiniteNMatrix:
    """Two values {t, F}, designated {t}: the image of [0,1] under certain /
    not-certain."""
    t, F = "t", "F"
    or_rows = {(t, t): {t}, (t, F): {t}, (F, t): {t}, (F, F): {t, F}}
    and_rows = {(t, t): {t, F}, (t, F): {F}, (F, t): {F}, (F, F): {F}}
    not_rows = {(t,): finite(F), (F,): finite(t, F)}
    return FiniteNMatrix(
        (t, F),
        frozenset({t}),
        {"or": _table((t, F), or_rows), "and": _table((t, F), and_rows), "not": not_rows},
        name="two-valued",
    )


def classical_matrix() -> FiniteNMatrix:
    """Deterministic two-valued matrix with the classical truth tables."""
    t, F = "t", "F"
    or_rows = {(t, t): {t}, (t, F): {t}, (F, t): {t}, (F, F): {F}}
    and_rows = {(t, t): {t}, (t, F): {F}, (F, t): {F}, (F, F): {F}}
    not_rows = {(t,): finite(F), (F,): finite(t)}
    return FiniteNMatrix(
        (t, F),
        frozenset({t}),
        {"or": _table((t, F), or_rows), "and": _table((t, F), and_rows), "not": not_rows},
        name="classical",
    )


def is_deterministic(m: FiniteNMatrix) -> bool:
    return all(len(cell.labels) == 1 for table in m.tables.values() for cell in table.values())


# ---------------------------------------------------------------------------
# interval matrices


@dataclass(frozen=True)
class IntervalRule:
    """One table case: inputs in [0,1] to a closed subinterval of [0,1].

    ``lo`` and ``hi`` must be continuous and monotone in each argument, so
    the exact union of outputs over a box of inputs is the interval spanned
    by the corner evaluations.  They must also act elementwise on arrays of
    inputs (``np.minimum``, not ``min``), so one rule serves one valuation
    and a stack of them alike.
    """

    arity: int
    lo: Callable[..., float]
    hi: Callable[..., float]
    description: str

    def value_set(self, *args: float) -> IntervalUnion:
        """The cell at the inputs, clipped to [0,1] as one interval: an input
        just outside [0,1] (atoms are checked within a tolerance) may put the
        whole cell just outside."""
        lo, hi = self.lo(*args), self.hi(*args)
        if hi < lo:
            raise ValueError(f"rule '{self.description}' is empty at {args}")
        return interval(min(max(lo, 0.0), 1.0), max(min(hi, 1.0), 0.0))

    def hull(self, *boxes: tuple[float, float]) -> tuple[float, float]:
        """Exact union of outputs when each input ranges over its box."""
        if len(boxes) != self.arity:
            raise ValueError(f"rule has arity {self.arity}, got {len(boxes)} boxes")
        corners = [()]
        for lo, hi in boxes:
            corners = [c + (x,) for c in corners for x in ((lo,) if lo == hi else (lo, hi))]
        los = [self.lo(*c) for c in corners]
        his = [self.hi(*c) for c in corners]
        return float(max(0.0, min(los))), float(min(1.0, max(his)))


# Where each relation case may hold, as (orthogonal, non_orthogonal): an
# ambiguous pair may be either.
_RELATION_CASES = {
    ORTHOGONAL: (True, False),
    NON_ORTHOGONAL: (False, True),
    AMBIGUOUS: (True, True),
}

# Whether each input of a designation-keyed case is designated.
_DESIGNATION_PATTERNS = {
    DESIGNATED: (True,),
    UNDESIGNATED: (False,),
    "dd": (True, True),
    "du": (True, False),
    "ud": (False, True),
    "uu": (False, False),
}


@dataclass(frozen=True)
class IntervalNMatrix:
    """Truth values V = [0,1] with designated set D = [alpha, 1] and
    case-split interval rules per connective.

    The matrix alone decides which case of a table governs an input:
    ``rule_cases`` for a point or a stack of trials, ``case_boxes`` for a
    box of inputs; ``admits`` tests membership and ``cell`` names the
    governing interpretation set.
    """

    alpha: float
    tables: Mapping[str, Mapping[str, IntervalRule]]
    name: str = ""

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")

    def is_designated(self, x: float, tol: float = DEFAULT_TOL) -> bool:
        return x >= self.alpha - tol

    def designated_set(self) -> IntervalUnion:
        return interval(self.alpha, 1.0)

    def undesignated_set(self) -> IntervalUnion:
        return interval(0.0, max(0.0, self.alpha - OPEN_SHIFT))

    def rule_cases(self, conn: str, args, relation=(True, True), tol: float = DEFAULT_TOL) -> list:
        """Each rule of the connective's table, paired with whether it
        governs the inputs: a bool for scalar inputs, a mask for arrays of
        them (one entry per trial).

        Tables keyed by relation read ``relation``, the pair (orthogonal,
        non_orthogonal) of where each case may hold (see
        ``_RELATION_CASES``); tables keyed by input designation read the
        inputs within ``tol`` of the threshold and ignore the relation.
        ``case_boxes`` makes the same decision for boxes of inputs.
        """
        cases = []
        for case, rule in self.tables[conn].items():
            if case == ANY:
                applies = True
            elif case == ORTHOGONAL:
                applies = relation[0]
            elif case == NON_ORTHOGONAL:
                applies = relation[1]
            else:
                applies = True
                for x, designated in zip(args, _DESIGNATION_PATTERNS[case]):
                    applies = applies & (self.is_designated(x, tol) == designated)
            cases.append((rule, applies))
        return cases

    def case_boxes(self, case: str, boxes) -> tuple[tuple[float, float], ...] | None:
        """The part of the input boxes (one ``(lo, hi)`` per argument) the
        case governs, or None when it is empty: a designation-keyed case cuts
        each box to the designated or the undesignated interval, exactly."""
        sides = {True: self.designated_set().segments[0], False: self.undesignated_set().segments[0]}
        cut = list(boxes)
        for k, designated in enumerate(_DESIGNATION_PATTERNS.get(case, ())):
            (lo, hi), (side_lo, side_hi) = cut[k], sides[designated]
            cut[k] = (max(lo, side_lo), min(hi, side_hi))
        return None if any(lo > hi for lo, hi in cut) else tuple(cut)

    def cell(self, conn: str, args, relation=(True, True), tol: float = DEFAULT_TOL) -> IntervalUnion:
        """The union of the cells governing scalar inputs."""
        segments = []
        for rule, applies in self.rule_cases(conn, args, relation, tol):
            if applies:
                segments += rule.value_set(*args).segments
        return interval_union(segments)

    def admits(self, conn: str, value, args, relation=(True, True), tol: float = DEFAULT_TOL):
        """Whether ``value`` lies within ``tol`` of a cell governing the
        inputs: the legality test of one compound, elementwise over arrays
        of values, inputs and relation masks (one entry per trial)."""
        ok = np.zeros(np.shape(value), dtype=bool)
        for rule, applies in self.rule_cases(conn, args, relation, tol):
            # count_nonzero, not any: a scalar any costs a few microseconds
            if not np.count_nonzero(applies):
                continue
            lo, hi = rule.lo(*args), rule.hi(*args)
            empty = applies & (hi < lo)
            if np.count_nonzero(empty):
                where = f"trial {int(np.argmax(empty))}" if np.ndim(empty) else tuple(args)
                raise ValueError(f"rule '{rule.description}' is empty at {where}")
            # within tol of the cell [max(lo, 0), min(hi, 1)]
            ok |= applies & (lo - tol <= value) & (value <= hi + tol) & (-tol <= value) & (value <= 1.0 + tol)
        return ok

    def describe(self) -> dict:
        return {
            "name": self.name,
            "values": "[0,1]",
            "designated": f"[{self.alpha:g}, 1]",
            "tables": {
                conn: {case: rule.description for case, rule in table.items()}
                for conn, table in self.tables.items()
            },
        }


# ---------------------------------------------------------------------------
# valuations and legality


@dataclass(frozen=True)
class Valuation:
    """Assignment of values to a subformula-closed set of formulas."""

    values: Mapping[Formula, object]

    def __post_init__(self):
        for f in self.values:
            for c in children(f):
                if c not in self.values:
                    raise ValueError(
                        f"domain not closed under subformulas: {render(c)} missing "
                        f"(child of {render(f)})"
                    )

    def __getitem__(self, f: Formula):
        return self.values[f]

    def __contains__(self, f: Formula) -> bool:
        return f in self.values

    def domain(self) -> list[Formula]:
        return list(self.values)

    def items(self):
        return self.values.items()


@dataclass(frozen=True)
class LegalityViolation:
    formula: Formula
    value: object
    expected: ValueSet
    case: str | None = None

    def __str__(self):
        case = f" [{self.case}]" if self.case else ""
        return f"{render(self.formula)} = {self.value} not in {self.expected}{case}"


@dataclass(frozen=True)
class LegalityReport:
    violations: tuple[LegalityViolation, ...]
    ambiguous: tuple[tuple[Formula, Formula], ...]
    checked: int

    @property
    def ok(self) -> bool:
        return not self.violations


def _as_mapping(valuation) -> Mapping[Formula, object]:
    return valuation.values if isinstance(valuation, Valuation) else dict(valuation)


def is_dynamic_legal(
    valuation,
    matrix,
    oracle: RelationOracle | None = None,
    tol: float = DEFAULT_TOL,
) -> LegalityReport:
    """Check membership of every compound's value in its interpretation set.

    Finite matrices need no oracle.  Interval matrices consult ``oracle`` for
    the relation case of each binary compound; borderline pairs are recorded
    as ambiguous and accepted if the value fits either case.
    """
    mapping = _as_mapping(valuation)
    Valuation(mapping)  # closure check
    violations: list[LegalityViolation] = []
    ambiguous: list[tuple[Formula, Formula]] = []
    checked = 0

    if isinstance(matrix, FiniteNMatrix):
        for f, v in mapping.items():
            if isinstance(f, Atom):
                if v not in matrix.values:
                    violations.append(LegalityViolation(f, v, finite(*matrix.values)))
                continue
            checked += 1
            if isinstance(f, Not):
                cell = matrix.cell("not", (mapping[f.child],))
            else:
                conn = "and" if isinstance(f, And) else "or"
                cell = matrix.cell(conn, (mapping[f.left], mapping[f.right]))
            if not cell.contains(v):
                violations.append(LegalityViolation(f, v, cell))
        return LegalityReport(tuple(violations), (), checked)

    if not isinstance(matrix, IntervalNMatrix):
        raise TypeError(f"unsupported matrix type {type(matrix).__name__}")

    unit = interval(0.0, 1.0)
    for f, v in mapping.items():
        if isinstance(f, Atom):
            if not unit.contains(float(v), tol):
                violations.append(LegalityViolation(f, v, unit))
            continue
        checked += 1
        if isinstance(f, Not):
            conn, args, case, relation = "not", (float(mapping[f.child]),), None, (True, True)
        else:
            if oracle is None:
                raise ValueError("interval matrices need a relation oracle for binary compounds")
            conn = "and" if isinstance(f, And) else "or"
            case = oracle.classify(f.left, f.right)
            if case == AMBIGUOUS:
                ambiguous.append((f.left, f.right))
            args, relation = (float(mapping[f.left]), float(mapping[f.right])), _RELATION_CASES[case]
        if not matrix.admits(conn, float(v), args, relation, tol):
            violations.append(LegalityViolation(f, v, matrix.cell(conn, args, relation, tol), case))
    return LegalityReport(tuple(violations), tuple(ambiguous), checked)


@dataclass(frozen=True)
class StaticViolation:
    first: Formula
    second: Formula
    first_value: object
    second_value: object

    def __str__(self):
        return (
            f"{render(self.first)} = {self.first_value} but "
            f"{render(self.second)} = {self.second_value} with equal component values"
        )


@dataclass(frozen=True)
class StaticReport:
    violations: tuple[StaticViolation, ...]
    pairs_checked: int

    @property
    def ok(self) -> bool:
        return not self.violations


def _values_equal(x, y, tol: float) -> bool:
    if isinstance(x, str) or isinstance(y, str):
        return x == y
    return abs(float(x) - float(y)) <= tol


def is_static(valuation, matrix=None, tol: float = DEFAULT_TOL) -> StaticReport:
    """Find same-connective compound pairs with equal component values but
    different values: witnesses against the composability principle."""
    mapping = _as_mapping(valuation)
    Valuation(mapping)
    groups: dict[type, list[Formula]] = {}
    for f in mapping:
        if not isinstance(f, Atom):
            groups.setdefault(type(f), []).append(f)
    violations = []
    pairs = 0
    for kind, formulas in groups.items():
        for i in range(len(formulas)):
            for j in range(i + 1, len(formulas)):
                f, g = formulas[i], formulas[j]
                fc, gc = children(f), children(g)
                if not all(_values_equal(mapping[a], mapping[b], tol) for a, b in zip(fc, gc)):
                    continue
                pairs += 1
                if not _values_equal(mapping[f], mapping[g], tol):
                    violations.append(StaticViolation(f, g, mapping[f], mapping[g]))
    return StaticReport(tuple(violations), pairs)


# ---------------------------------------------------------------------------
# validity, consequence (finite matrices)


def _ordered_domain(formulas: Sequence[Formula]) -> list[Formula]:
    closure = subformula_closure(formulas)
    atoms = sorted((f for f in closure if isinstance(f, Atom)), key=lambda a: a.name)
    compounds = [f for f in closure if not isinstance(f, Atom)]
    return atoms + compounds


@dataclass(frozen=True)
class ConsequenceResult:
    holds: bool
    countermodel: Valuation | None

    def __bool__(self) -> bool:
        return self.holds


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class _ValueNetwork:
    """The legality constraints of dynamic valuations on an ordered domain.

    Node ``k`` of the domain has a value set ``doms[k]``, a bitmask over value
    indices (bit ``i`` for ``m.values[i]``).  Each compound is one table
    constraint between its value and its children's, with the matrix cells as
    bitmasks; atoms are unconstrained.  Gamma nodes start designated and
    delta nodes undesignated.  ``trail`` records every narrowing, so a search
    undoes a failed branch back to a mark.
    """

    def __init__(self, m: FiniteNMatrix, domain: list[Formula], gamma, delta):
        index = {v: i for i, v in enumerate(m.values)}

        def mask(labels) -> int:
            return sum(1 << index[v] for v in labels)

        def table(conn: str):
            cells = m.tables[conn]
            if conn == "not":
                return [mask(cells[(x,)].labels) for x in m.values]
            return [[mask(cells[(x, y)].labels) for y in m.values] for x in m.values]

        full, designated = (1 << len(m.values)) - 1, mask(m.designated)
        pos = {f: k for k, f in enumerate(domain)}
        self.doms = [full] * len(domain)
        for g in gamma:
            self.doms[pos[g]] &= designated
        for d in delta:
            self.doms[pos[d]] &= full & ~designated
        tables = {conn: table(conn) for conn in m.tables}
        self.scope: list[tuple[int, ...]] = []  # children of each node
        self.cells: list = []  # table of each compound
        self.watchers: list[list[int]] = [[] for _ in domain]  # constraints each node occurs in
        for k, f in enumerate(domain):
            if isinstance(f, Atom):
                conn, args = None, ()
            elif isinstance(f, Not):
                conn, args = "not", (pos[f.child],)
            else:
                conn, args = ("and" if isinstance(f, And) else "or"), (pos[f.left], pos[f.right])
            self.scope.append(args)
            self.cells.append(tables[conn] if args else None)
            if args:
                for v in dict.fromkeys((k, *args)):
                    self.watchers[v].append(k)
        self.trail: list[tuple[int, int]] = []

    def _revise(self, k: int) -> tuple[tuple[int, int], ...]:
        """Each node of compound ``k``'s constraint with the values that have
        support in it: a value of the compound some cell of the children's
        values holds, and child values with such a cell."""
        doms, cells = self.doms, self.cells[k]
        here, head = doms[k], 0
        if len(self.scope[k]) == 1:
            (c,) = self.scope[k]
            kept = 0
            for a in _bits(doms[c]):
                hit = cells[a] & here
                if hit:
                    kept |= 1 << a
                    head |= hit
            return (k, head), (c, kept)
        left, right = self.scope[k]
        kept_left = kept_right = 0
        rights = _bits(doms[right])
        for a in _bits(doms[left]):
            row = cells[a]
            for b in (a,) if left == right else rights:
                hit = row[b] & here
                if hit:
                    kept_left |= 1 << a
                    kept_right |= 1 << b
                    head |= hit
        return (k, head), (left, kept_left), (right, kept_right)

    def propagate(self, constraints) -> bool:
        """Generalized arc consistency: narrow value sets until every value
        left has support in every constraint it occurs in, starting from the
        given constraints.  False when a value set empties."""
        doms, trail, watchers = self.doms, self.trail, self.watchers
        work = list(constraints)
        pending = set(work)
        while work:
            k = work.pop()
            pending.discard(k)
            for v, kept in self._revise(k):
                if kept == doms[v]:
                    continue
                if not kept:
                    return False
                trail.append((v, doms[v]))
                doms[v] = kept
                for h in watchers[v]:
                    if h != k and h not in pending:
                        pending.add(h)
                        work.append(h)
        return True

    def assign(self, k: int, bit: int) -> bool:
        """Fix node ``k`` to one value and propagate; False when that
        empties a value set."""
        if self.doms[k] == bit:
            return True
        self.trail.append((k, self.doms[k]))
        self.doms[k] = bit
        return self.propagate(self.watchers[k])

    def undo(self, mark: int) -> None:
        doms, trail = self.doms, self.trail
        while len(trail) > mark:
            k, old = trail.pop()
            doms[k] = old


def dynamic_consequence(
    m: FiniteNMatrix, gamma: Sequence[Formula], delta: Sequence[Formula]
) -> ConsequenceResult:
    """Does every dynamic model of gamma satisfy some member of delta?

    A countermodel search: gamma nodes are restricted to designated values
    and delta nodes to undesignated ones, the table constraints of the
    closure are made arc consistent, and the search assigns the domain in
    one fixed order (atoms by name, then compounds children first; values
    in ``m.values`` order), propagating after every assignment and
    backtracking on an explicit stack.  Propagation only drops values that
    no legal valuation extending the assignment takes, so the countermodel
    returned is the first legal refuting valuation in that order.
    Legality is local to each node, so arc consistency is exact on a
    tree-shaped closure and there the search never backtracks; only shared
    subformulas make it.

    An empty delta reads literally: the sequent holds only when gamma has no
    dynamic model at all.
    """
    if not isinstance(m, FiniteNMatrix):
        raise TypeError("consequence requires a finite matrix")
    gamma, delta = list(gamma), list(delta)
    domain = _ordered_domain(gamma + delta)
    net = _ValueNetwork(m, domain, gamma, delta)
    doms = net.doms
    if 0 in doms or not net.propagate([k for k, args in enumerate(net.scope) if args]):
        return ConsequenceResult(True, None)
    frames = []  # (node, its values still to try, trail mark) per assigned node
    k, untried = 0, doms[0] if domain else 0
    while k < len(domain):
        if not untried:
            if not frames:
                return ConsequenceResult(True, None)
            k, untried, mark = frames.pop()
            net.undo(mark)
            continue
        bit = untried & -untried
        untried ^= bit
        mark = len(net.trail)
        if net.assign(k, bit):
            frames.append((k, untried, mark))
            k += 1
            untried = doms[k] if k < len(domain) else 0
        else:
            net.undo(mark)
    return ConsequenceResult(
        False, Valuation({f: m.values[doms[k].bit_length() - 1] for k, f in enumerate(domain)})
    )


def is_dynamically_valid(m: FiniteNMatrix, psi: Formula) -> bool:
    return dynamic_consequence(m, [], [psi]).holds


# ---------------------------------------------------------------------------
# adequacy

# Clause list for a matrix covering the positive fragment: per connective,
# the designation pattern of the inputs and the required side of the split.
# None in a pattern slot means the clause does not constrain that input.
_ADEQUACY_CLAUSES = {
    "and": (
        ((True, True), True, "designated inputs must stay designated"),
        ((False, None), False, "an undesignated left input forces undesignated output"),
        ((None, False), False, "an undesignated right input forces undesignated output"),
    ),
    "or": (
        ((True, None), True, "a designated left input forces designated output"),
        ((None, True), True, "a designated right input forces designated output"),
        ((False, False), False, "undesignated inputs must stay undesignated"),
    ),
}


@dataclass(frozen=True)
class ClauseViolation:
    connective: str
    clause: str
    witness: tuple
    cell: ValueSet
    case: str | None = None

    def __str__(self):
        case = f" [{self.case}]" if self.case else ""
        return f"{self.connective}{self.witness}{case}: cell {self.cell} breaks '{self.clause}'"


@dataclass(frozen=True)
class AdequacyReport:
    violations: tuple[ClauseViolation, ...]
    clauses_checked: int

    @property
    def adequate(self) -> bool:
        return not self.violations


def _finite_adequacy(m: FiniteNMatrix) -> AdequacyReport:
    violations = []
    checked = 0
    for conn, clauses in _ADEQUACY_CLAUSES.items():
        if conn not in m.tables:
            continue
        for pattern, target_designated, text in clauses:
            checked += 1
            for a in m.values:
                for b in m.values:
                    if pattern[0] is not None and m.is_designated(a) != pattern[0]:
                        continue
                    if pattern[1] is not None and m.is_designated(b) != pattern[1]:
                        continue
                    cell = m.cell(conn, (a, b))
                    good = (
                        all(m.is_designated(v) for v in cell.labels)
                        if target_designated
                        else not any(m.is_designated(v) for v in cell.labels)
                    )
                    if not good:
                        violations.append(ClauseViolation(conn, text, (a, b), cell))
    return AdequacyReport(tuple(violations), checked)


def _interval_adequacy(m: IntervalNMatrix) -> AdequacyReport:
    violations = []
    checked = 0
    d_set = m.designated_set()
    u_set = m.undesignated_set()
    regions = {True: d_set.segments[0], False: u_set.segments[0], None: (0.0, 1.0)}
    for conn, clauses in _ADEQUACY_CLAUSES.items():
        if conn not in m.tables:
            continue
        for pattern, target_designated, text in clauses:
            target = d_set if target_designated else u_set
            for case, rule in sorted(m.tables[conn].items()):
                boxes = m.case_boxes(case, (regions[pattern[0]], regions[pattern[1]]))
                if boxes is None:
                    continue
                box_a, box_b = boxes
                checked += 1
                lo, hi = rule.hull(box_a, box_b)
                # exact comparison: hulls come from exact corner arithmetic,
                # and the half-open displacement must not be absorbed
                if interval(lo, hi).subset_of(target):
                    continue
                witness = _interval_witness(rule, box_a, box_b, target, m.alpha)
                if witness is None:
                    continue
                a, b = witness
                violations.append(
                    ClauseViolation(conn, text, (a, b), rule.value_set(a, b), case)
                )
    return AdequacyReport(tuple(violations), checked)


def _interval_witness(rule, box_a, box_b, target, alpha):
    """Concrete input pair whose output set escapes the target side.

    The half-threshold pair is tried first so that threshold-sum witnesses
    (the superposition case) are reported in their sharpest form.
    """
    candidates = [(alpha / 2.0, alpha / 2.0)]
    for a in (box_a[0], box_a[1], (box_a[0] + box_a[1]) / 2.0):
        for b in (box_b[0], box_b[1], (box_b[0] + box_b[1]) / 2.0):
            candidates.append((a, b))
    for a, b in candidates:
        if not (box_a[0] <= a <= box_a[1] and box_b[0] <= b <= box_b[1]):
            continue
        if not rule.value_set(a, b).subset_of(target):
            return (a, b)
    return None


def adequacy_check(m) -> AdequacyReport:
    """Check the designation-containment clauses for every defined connective.

    Finite tables are checked exhaustively over all value pairs; interval
    tables are checked per relation case by exact interval arithmetic over
    each clause's input region, with a concrete witness per violation.
    """
    if isinstance(m, FiniteNMatrix):
        return _finite_adequacy(m)
    if isinstance(m, IntervalNMatrix):
        return _interval_adequacy(m)
    raise TypeError(f"unsupported matrix type {type(m).__name__}")


# ---------------------------------------------------------------------------
# refinement / expansion / rexpansion


def is_refinement(m1: FiniteNMatrix, m2: FiniteNMatrix) -> bool:
    """V1 inside V2, designation induced, and every cell of m1 inside m2's."""
    if set(m1.tables) != set(m2.tables):
        raise ValueError("matrices interpret different connective sets")
    if not set(m1.values) <= set(m2.values):
        return False
    if m1.designated != m2.designated & set(m1.values):
        return False
    for conn, table in m1.tables.items():
        for key, cell in table.items():
            if not cell.subset_of(m2.cell(conn, key)):
                return False
    return True


def f_expansion(m1: FiniteNMatrix, images: Mapping[str, Sequence[str]]) -> FiniteNMatrix:
    """Duplicate truth values: each x becomes the copies images[x], each cell
    becomes the union of the copies of its members."""
    if set(images) != set(m1.values):
        raise ValueError("image map must cover exactly the value domain")
    seen: set[str] = set()
    for x, copies in images.items():
        copies = list(copies)
        if not copies:
            raise ValueError(f"image of {x!r} is empty")
        if seen & set(copies):
            raise ValueError(f"images overlap at {sorted(seen & set(copies))}")
        seen |= set(copies)
    new_values = tuple(y for x in m1.values for y in images[x])
    origin = {y: x for x in m1.values for y in images[x]}
    new_designated = frozenset(y for y in new_values if origin[y] in m1.designated)

    def expand_cell(cell: FiniteValues) -> FiniteValues:
        return finite(*(y for z in cell.labels for y in images[z]))

    tables = {}
    for conn, table in m1.tables.items():
        arity = CONNECTIVE_ARITY[conn]
        new_table = {}
        keys = [(y,) for y in new_values] if arity == 1 else [
            (y1, y2) for y1 in new_values for y2 in new_values
        ]
        for key in keys:
            base = tuple(origin[y] for y in key)
            new_table[key] = expand_cell(table[base])
        tables[conn] = new_table
    return FiniteNMatrix(new_values, new_designated, tables, name=f"{m1.name}-expanded")


@dataclass(frozen=True)
class ThresholdMap:
    """Total map [0,1] -> labels given by ordered pieces (first match wins).

    Pieces carry both a matching interval and the symbolic region used for
    exact case analysis (open pieces are shrunk by the closing displacement).
    """

    pieces: tuple[tuple[str, float, float], ...]

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("threshold map needs at least one piece")

    def label(self, x: float) -> str:
        for name, lo, hi in self.pieces:
            if lo - OPEN_SHIFT <= x <= hi + OPEN_SHIFT:
                return name
        raise ValueError(f"threshold map is partial: no piece matches {x}")

    def regions(self) -> list[tuple[str, tuple[float, float]]]:
        out = []
        taken: list[tuple[float, float]] = []
        for name, lo, hi in self.pieces:
            rlo, rhi = lo, hi
            # shrink away from the boundary of every earlier (higher-priority) piece
            for plo, phi in taken:
                if rlo <= phi and plo <= rhi:
                    if plo <= rlo:
                        rlo = max(rlo, phi + OPEN_SHIFT)
                    if phi >= rhi:
                        rhi = min(rhi, plo - OPEN_SHIFT)
            if rlo > rhi:
                raise ValueError(f"piece {name!r} has empty region after overlap removal")
            taken.append((lo, hi))
            out.append((name, (rlo, rhi)))
        return out

    def check_total(self) -> None:
        cover = interval_union([(lo, hi) for _, lo, hi in self.pieces])
        if not interval(0.0, 1.0).subset_of(cover, tol=2 * OPEN_SHIFT):
            raise ValueError("threshold map does not cover [0,1]")

    def to_json(self) -> dict:
        return {"pieces": [{"label": n, "lo": lo, "hi": hi} for n, lo, hi in self.pieces]}

    @staticmethod
    def from_json(obj: dict) -> "ThresholdMap":
        return ThresholdMap(
            tuple((p["label"], float(p["lo"]), float(p["hi"])) for p in obj["pieces"])
        )


@dataclass(frozen=True)
class RexpansionIssue:
    condition: int
    detail: str


@dataclass(frozen=True)
class RexpansionReport:
    issues: tuple[RexpansionIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues


def _finite_rexpansion(m1: FiniteNMatrix, m2: FiniteNMatrix, f: Mapping[str, str]):
    issues = []
    missing = set(m2.values) - set(f)
    if missing:
        raise ValueError(f"collapse map is partial: missing {sorted(missing)}")
    for x in m2.values:
        if m2.is_designated(x) != m1.is_designated(f[x]):
            issues.append(
                RexpansionIssue(1, f"designation mismatch at {x!r}: f({x!r})={f[x]!r}")
            )
    for conn, table in m2.tables.items():
        for key, cell in table.items():
            base = tuple(f[x] for x in key)
            target = m1.cell(conn, base)
            for y in cell.labels:
                if not target.contains(f[y]):
                    issues.append(
                        RexpansionIssue(
                            2,
                            f"{conn}{key}: value {y!r} collapses to {f[y]!r} "
                            f"outside {conn}{base} = {target}",
                        )
                    )
    return issues


def _interval_rexpansion_symbolic(m1: FiniteNMatrix, m2: IntervalNMatrix, f: ThresholdMap):
    issues = []
    f.check_total()
    d2, u2 = m2.designated_set(), m2.undesignated_set()
    regions = f.regions()
    for name, box in regions:
        piece = interval(*box)
        if piece.intersects(d2) and not m1.is_designated(name):
            issues.append(
                RexpansionIssue(1, f"piece {name!r} meets the designated interval but maps out of D")
            )
        if piece.intersects(u2) and m1.is_designated(name):
            issues.append(
                RexpansionIssue(1, f"piece {name!r} meets the undesignated interval but maps into D")
            )
    for conn, cases in m2.tables.items():
        for case, rule in sorted(cases.items()):
            for combo in itertools.product(regions, repeat=CONNECTIVE_ARITY[conn]):
                boxes = m2.case_boxes(case, [box for _, box in combo])
                if boxes is None:
                    continue
                labels = tuple(name for name, _ in combo)
                lo, hi = rule.hull(*boxes)
                target = m1.cell(conn, labels)
                out = interval(lo, hi)
                for yname, ybox in regions:
                    if not out.intersects(interval(*ybox)):
                        continue
                    if not target.contains(yname):
                        issues.append(
                            RexpansionIssue(
                                2,
                                f"{conn}[{case}] on pieces {labels}: outputs reach piece "
                                f"{yname!r} outside {conn}{labels} = {target}",
                            )
                        )
    return issues


def verify_rexpansion(m1: FiniteNMatrix, m2, f) -> RexpansionReport:
    """Check the collapse-map characterization of a rexpansion.

    Condition 1: a value of m2 is designated exactly when its image under f
    is.  Condition 2: every value a cell of m2 can take collapses into the
    corresponding cell of m1.  Finite m2 is checked exhaustively.  Interval
    m2 is checked in one symbolic pass over the pieces of f per table case;
    the pass is exact because every ``IntervalRule`` is monotone in each
    argument, the contract ``test_interval_rule_contract`` checks for every
    shipped rule.
    """
    if isinstance(m2, FiniteNMatrix):
        return RexpansionReport(tuple(_finite_rexpansion(m1, m2, f)))
    if isinstance(m2, IntervalNMatrix):
        if not isinstance(f, ThresholdMap):
            raise ValueError("interval-domain collapse maps must be ThresholdMap instances")
        return RexpansionReport(tuple(_interval_rexpansion_symbolic(m1, m2, f)))
    raise TypeError(f"unsupported matrix type {type(m2).__name__}")
