"""Finite orthomodular lattices as explicit order tables: verification of the
lattice laws, states via linear feasibility, interval truth tables and, on a
verified OML only, two-valued homomorphisms and legal valuations (states).

Those tables are ``quantum.quantum_nmatrix`` under the lattice's own
orthogonality relation, which ``LatticeBindings`` (an ``nmatrix.Bindings``)
supplies.

Lattices come from three sources: direct order tables (JSON), Greechie
diagrams (blocks of mutually orthogonal atoms, pasted along shared atoms),
and finite fragments of a concrete projection lattice (auto-closed under the
lattice operations before verification).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import hilbert
from .feasibility import (
    EQ, Certificate, FeasibilityResult, Row, check_point, make_row, solve_feasibility, to_fraction,
)
from .formulas import Formula
from .linalg import DEFAULT_TOL, json_list, json_object
from .nmatrix import NON_ORTHOGONAL, ORTHOGONAL, Bindings, IntervalNMatrix
from .quantum import quantum_nmatrix


class FiniteOML:
    """Finite bounded poset with an orthocomplement, given by explicit tables.

    Construction performs no law checking; run :func:`verify_oml` to certify
    that the tables really describe an orthomodular lattice.
    """

    def __init__(self, elements: Sequence[str], leq_pairs: Iterable[tuple[str, str]],
                 ortho: Mapping[str, str], bottom: str, top: str):
        self.elements = tuple(json_list(elements, "elements"))
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate element ids")
        self.index = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        self.leq = np.zeros((n, n), dtype=bool)
        np.fill_diagonal(self.leq, True)
        for pair in leq_pairs:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ValueError(f"leq entry {pair!r} is not a pair")
            a, b = (self._known(f"leq pair {list(pair)!r}", e) for e in pair)
            self.leq[a, b] = True
        missing = set(self.elements) - set(json_object(ortho, "ortho"))
        if missing:
            raise ValueError(f"orthocomplement map misses {sorted(missing)}")
        self.ortho = np.array([self._known(f"ortho value of {e!r}", ortho[e]) for e in self.elements])
        self.bottom = self._known("bottom", bottom)
        self.top = self._known("top", top)
        self._defects: tuple[np.ndarray, np.ndarray] | None = None
        self._meet: np.ndarray | None = None
        self._join: np.ndarray | None = None

    def _known(self, field: str, name) -> int:
        try:
            return self.index[name]
        except (KeyError, TypeError):
            raise ValueError(f"{field} names unknown element {name!r}") from None

    # -- basic queries ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def name(self, i: int) -> str:
        return self.elements[i]

    def leq_ids(self, a: str, b: str) -> bool:
        return bool(self.leq[self.index[a], self.index[b]])

    def ortho_id(self, a: str) -> str:
        return self.elements[self.ortho[self.index[a]]]

    def orthogonal(self, a: str, b: str) -> bool:
        return bool(self.leq[self.index[a], self.ortho[self.index[b]]])

    def _order_failures(self) -> Iterator[str]:
        """The failures of the (reflexive) order as a partial order,
        antisymmetry then transitivity pairs in row-major order: the one
        source of the messages ``verify_oml`` lists and ``_bound_tables``
        raises."""
        if self._defects is None:
            self._defects = _order_defects(self.leq)
        two_way, unclosed = self._defects
        name = self.name
        yield from (f"antisymmetry fails at ({name(i)}, {name(j)})" for i, j in np.argwhere(two_way))
        yield from (f"transitivity fails: {name(i)} <= ... <= {name(j)} but not directly"
                    for i, j in np.argwhere(unclosed))

    def _bound_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """meet/join index tables, -1 marking a missing bound; defined on a
        partial order only, else a ValueError names the first order failure."""
        if self._meet is None:
            fault = next(self._order_failures(), None)
            if fault is not None:
                raise ValueError(f"not a partial order: {fault}")
            self._meet = _greatest_below(self.leq.T)
            self._join = _greatest_below(self.leq)
        return self._meet, self._join

    def bound_table(self, kind: str, where: np.ndarray | None = None) -> np.ndarray:
        """The ``"meet"`` or ``"join"`` table, for callers that index elements
        by it: raises ValueError naming the first pair in the boolean mask
        ``where`` (default every pair) whose bound is missing or not unique."""
        table = self._bound_tables()[kind == "join"]
        missing = np.argwhere(table < 0 if where is None else (table < 0) & where)
        if len(missing):
            i, j = missing[0]
            raise ValueError(
                f"{kind} of {self.elements[i]!r} and {self.elements[j]!r} does not exist or is not unique"
            )
        return table

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        pairs = [
            [self.elements[i], self.elements[j]]
            for i in range(len(self.elements))
            for j in range(len(self.elements))
            if i != j and self.leq[i, j]
        ]
        return {
            "elements": list(self.elements),
            "leq": pairs,
            "ortho": {e: self.elements[self.ortho[self.index[e]]] for e in self.elements},
            "bottom": self.elements[self.bottom],
            "top": self.elements[self.top],
        }

    @staticmethod
    def from_json(obj: dict) -> "FiniteOML":
        return FiniteOML(
            obj["elements"],
            obj["leq"],
            obj["ortho"],
            obj["bottom"],
            obj["top"],
        )


def _order_defects(leq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs i != j the reflexive relation ``leq`` relates both ways,
    and the pairs it relates through a third element but not directly: a
    partial order has no defect."""
    # float32 counts are exact below 2**24
    closure = (leq.astype(np.float32) @ leq.astype(np.float32)) > 0
    return leq & leq.T & ~np.eye(len(leq), dtype=bool), closure & ~leq


def _greatest_below(down: np.ndarray) -> np.ndarray:
    """table[i, j] is the greatest element of ``down[i] & down[j]``, or -1
    when that set has none, where ``down[z]`` is the down-set of z in a
    partial order (pass the transposed order for meets, the order itself
    for joins).

    Only for partial orders, which ``_bound_tables`` checks first.  There
    the common set L has a greatest element z exactly when some z in L has
    |down[z]| = |L|: down[z] lies inside L by transitivity, so the sizes
    agree only when L = down[z]; and no other w in L reaches |L|, since
    L = down[w] too would give w <= z <= w.  Every z in L has |down[z]| <=
    |L|, so the candidate is the member of L with the largest down-set.
    The columns are sorted by down-set size once, largest first; then row
    i takes the candidate for every j >= i in one argmax over
    ``down[i] & down[i:]`` and confirms it with one count, O(n**3) in all.
    An empty L needs no separate test: its argmax names some element,
    whose down-set holds at least itself, so the count never matches.
    """
    n = len(down)
    size = np.count_nonzero(down, axis=1)
    order = np.argsort(-size, kind="stable")
    down, size = down[:, order], size[order]
    table = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        common = down[i] & down[i:]
        k = common.argmax(axis=1)
        table[i, i:] = table[i:, i] = np.where(size[k] == np.count_nonzero(common, axis=1), order[k], -1)
    return table


def meet_oml(l: FiniteOML, a: str, b: str) -> str:
    meet, _ = l._bound_tables()
    idx = meet[l.index[a], l.index[b]]
    if idx < 0:
        raise ValueError(f"meet of {a!r} and {b!r} does not exist or is not unique")
    return l.elements[idx]


def join_oml(l: FiniteOML, a: str, b: str) -> str:
    _, join = l._bound_tables()
    idx = join[l.index[a], l.index[b]]
    if idx < 0:
        raise ValueError(f"join of {a!r} and {b!r} does not exist or is not unique")
    return l.elements[idx]


@dataclass(frozen=True)
class OmlReport:
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_oml(l: FiniteOML, max_failures: int = 50) -> OmlReport:
    """Exhaustive check of the partial order, bound existence, the
    orthocomplement laws, and the orthomodular law.  A relation that is no
    partial order gets no bound check, and the complement laws run only
    when every earlier check passed.

    Each law is one array expression over every element or pair; failures
    come law by law, pairs in row-major order, up to ``max_failures``."""
    failures: list[str] = []

    def fail(msgs: Iterable[str]):
        failures.extend(itertools.islice(msgs, max_failures - len(failures)))

    n = len(l.elements)
    leq, ortho, name = l.leq, l.ortho, l.name
    fail(l._order_failures())
    if not leq[l.bottom, :].all():
        fail(["bottom is not below every element"])
    if not leq[:, l.top].all():
        fail(["top is not above every element"])
    if next(l._order_failures(), None) is not None:
        return OmlReport(tuple(failures))  # bounds are defined on a partial order only
    meet, join = l._bound_tables()
    no_meet, no_join = np.triu(meet < 0), np.triu(join < 0)
    fail(f"{kind}({name(i)}, {name(j)}) missing or not unique"
         for i, j in np.argwhere(no_meet | no_join)
         for kind, missing in (("meet", no_meet), ("join", no_join)) if missing[i, j])
    if failures:
        return OmlReport(tuple(failures))
    idx = np.arange(n)
    not_involutive = ortho[ortho] != idx
    meet_not_bottom = meet[idx, ortho] != l.bottom
    join_not_top = join[idx, ortho] != l.top
    fail(msg
         for i in np.flatnonzero(not_involutive | meet_not_bottom | join_not_top)
         for bad, msg in ((not_involutive[i], f"orthocomplement not involutive at {name(i)}"),
                          (meet_not_bottom[i], f"{name(i)} meet its complement is not bottom"),
                          (join_not_top[i], f"{name(i)} join its complement is not top"))
         if bad)
    fail(f"orthocomplement not order-reversing at ({name(i)}, {name(j)})"
         for i, j in np.argwhere(leq & ~leq[np.ix_(ortho, ortho)].T))
    # every bound exists past the early return; inner[i, j] = j ^ i'
    inner = meet[:, ortho].T
    fail(f"orthomodular law fails: {name(j)} != {name(i)} v ({name(j)} ^ {name(ortho[i])})"
         for i, j in np.argwhere(leq & (np.take_along_axis(join, inner, axis=1) != idx)))
    return OmlReport(tuple(failures))


def _require_oml(l: FiniteOML) -> None:
    """The precondition of the two-valued and legal-valuation searches."""
    for kind in ("meet", "join"):
        l.bound_table(kind)
    report = verify_oml(l, max_failures=1)
    if not report.ok:
        raise ValueError(f"not an orthomodular lattice: {report.failures[0]}")


# ---------------------------------------------------------------------------
# constructions


def boolean_lattice(n_atoms: int) -> FiniteOML:
    """Boolean algebra 2^n over atoms a, b, c, ..."""
    letters = "abcdefgh"
    if not 1 <= n_atoms <= len(letters):
        raise ValueError(f"supported atom counts: 1..{len(letters)}")
    atoms = letters[:n_atoms]

    def name(s: frozenset) -> str:
        if not s:
            return "0"
        if len(s) == n_atoms:
            return "1"
        return "".join(sorted(s))

    subsets = [frozenset(c) for c in _powerset(atoms)]
    elements = [name(s) for s in subsets]
    pairs = [
        (name(s), name(t)) for s in subsets for t in subsets if s != t and s <= t
    ]
    ortho = {name(s): name(frozenset(atoms) - s) for s in subsets}
    return FiniteOML(elements, pairs, ortho, "0", "1")


def _powerset(items):
    items = list(items)
    for mask in range(1 << len(items)):
        yield [x for i, x in enumerate(items) if mask >> i & 1]


def mo2() -> FiniteOML:
    """Horizontal sum of two four-element Boolean algebras: the smallest
    orthomodular lattice that is not Boolean."""
    elements = ["0", "a", "a'", "b", "b'", "1"]
    pairs = [("0", e) for e in elements if e != "0"] + [
        (e, "1") for e in elements if e != "1"
    ]
    ortho = {"0": "1", "1": "0", "a": "a'", "a'": "a", "b": "b'", "b'": "b"}
    return FiniteOML(elements, pairs, ortho, "0", "1")


def chain_with_fixed_point() -> FiniteOML:
    """Three-element chain whose middle element is its own complement: fails
    the complement laws, useful as a negative fixture."""
    elements = ["0", "m", "1"]
    pairs = [("0", "m"), ("0", "1"), ("m", "1")]
    ortho = {"0": "1", "1": "0", "m": "m"}
    return FiniteOML(elements, pairs, ortho, "0", "1")


def from_greechie(atoms: Sequence[str], blocks: Sequence[Sequence[str]]) -> FiniteOML:
    """Paste Boolean blocks along shared atoms into one lattice.

    Each block lists mutually orthogonal atoms jointly spanning the top.  Two
    blocks may share at most one atom.  The result is an orthomodular lattice
    exactly when the diagram has no loops of order three or four; run
    :func:`verify_oml` on the output to certify.
    """
    atoms = list(json_list(atoms, "atoms"))
    if len(set(atoms)) != len(atoms):
        raise ValueError("duplicate atom names")
    blocks = [list(json_list(b, f"blocks[{i}]")) for i, b in enumerate(json_list(blocks, "blocks"))]
    for b in blocks:
        if len(b) < 3:
            raise ValueError(f"block {b} too small; need at least three atoms")
        if len(set(b)) != len(b):
            raise ValueError(f"block {b} repeats an atom")
        unknown = set(b) - set(atoms)
        if unknown:
            raise ValueError(f"block {b} uses undeclared atoms {sorted(unknown)}")
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            shared = set(blocks[i]) & set(blocks[j])
            if len(shared) > 1:
                raise ValueError(f"blocks {i} and {j} share more than one atom: {sorted(shared)}")
    in_blocks = {a: [b for b in blocks if a in b] for a in atoms}
    for a, bs in in_blocks.items():
        if not bs:
            raise ValueError(f"atom {a!r} appears in no block")

    all_atoms = frozenset(atoms)
    atom_sets: dict[str, frozenset] = {"0": frozenset(), "1": all_atoms}
    ortho_map: dict[str, str] = {"0": "1", "1": "0"}
    for a in atoms:
        atom_sets[a] = frozenset([a])
        mates = frozenset(x for b in in_blocks[a] for x in b if x != a)
        atom_sets[a + "'"] = mates
        ortho_map[a] = a + "'"
        ortho_map[a + "'"] = a
    for b in blocks:
        bset = frozenset(b)
        for mask in range(1, 1 << len(b)):
            sub = frozenset(x for i, x in enumerate(b) if mask >> i & 1)
            if not 2 <= len(sub) <= len(b) - 2:
                continue
            name = "+".join(sorted(sub))
            comp = "+".join(sorted(bset - sub))
            atom_sets[name] = sub
            ortho_map[name] = comp

    elements = list(atom_sets)
    pairs = [
        (x, y) for x in elements for y in elements if x != y and atom_sets[x] <= atom_sets[y]
    ]
    return FiniteOML(elements, pairs, ortho_map, "0", "1")


def from_projectors(named: Mapping[str, np.ndarray], tol: float = DEFAULT_TOL,
                    max_elements: int = 128) -> FiniteOML:
    """Close a finite projector fragment under meet, join, and complement,
    then read off its order table.

    Generated elements get synthetic names; closure beyond ``max_elements``
    aborts, since generic projector pairs generate large lattices.
    """
    if not named:
        raise ValueError("need at least one generating projector")
    mats: list[np.ndarray] = []
    names: list[str] = []

    def find(m) -> int | None:
        for k, known in enumerate(mats):
            if hilbert.equal(known, m, max(tol, 1e-7)):
                return k
        return None

    def add(name: str, m) -> int:
        idx = find(m)
        if idx is not None:
            return idx
        mats.append(m)
        names.append(name)
        return len(mats) - 1

    first = next(iter(named.values()))
    dim = first.shape[0]
    add("0", hilbert.zero(dim))
    add("1", hilbert.identity(dim))
    for name, m in named.items():
        add(name, hilbert.check_projector(m, tol))
    changed = True
    while changed:
        changed = False
        snapshot = list(mats)
        for i in range(len(snapshot)):
            if find(hilbert.ortho(snapshot[i])) is None:
                add(f"e{len(mats)}", hilbert.ortho(snapshot[i]))
                changed = True
        snapshot = list(mats)
        for i in range(len(snapshot)):
            for j in range(i + 1, len(snapshot)):
                for candidate in (
                    hilbert.meet(snapshot[i], snapshot[j], tol),
                    hilbert.join(snapshot[i], snapshot[j], tol),
                ):
                    if find(candidate) is None:
                        add(f"e{len(mats)}", candidate)
                        changed = True
                if len(mats) > max_elements:
                    raise ValueError(
                        f"fragment closure exceeded {max_elements} elements; "
                        "the generating projectors are too generic"
                    )
    pairs = [
        (names[i], names[j])
        for i in range(len(mats))
        for j in range(len(mats))
        if i != j and hilbert.leq(mats[i], mats[j], max(tol, 1e-7))
    ]
    ortho = {names[i]: names[find(hilbert.ortho(mats[i]))] for i in range(len(mats))}
    return FiniteOML(names, pairs, ortho, "0", "1")


# ---------------------------------------------------------------------------
# states


def state_constraints(l: FiniteOML) -> tuple[list[str], list[Row]]:
    """Variables and equality rows a state must satisfy: bottom and top are
    pinned, complements sum to one, orthogonal pairs add along their join.

    Additivity is imposed pairwise only; on a finite lattice the countable
    form reduces to finite additivity, and finite families follow from pairs
    by induction through (a v b) orthogonal to c.
    """
    # only the joins of orthogonal pairs i < j are read
    orthogonal = np.triu(l.leq[:, l.ortho], 1)
    join = l.bound_table("join", orthogonal)
    names = list(l.elements)
    rows: list[Row] = [
        make_row({names[l.bottom]: 1}, EQ, 0, "bottom"),
        make_row({names[l.top]: 1}, EQ, 1, "top"),
    ]
    for i, oi in enumerate(l.ortho.tolist()):
        if i <= oi:
            coeffs = {names[i]: 1, names[oi]: 1} if i != oi else {names[i]: 2}
            rows.append(make_row(coeffs, EQ, 1, f"complement:{names[i]}"))
    for i, j in zip(*(a.tolist() for a in np.nonzero(orthogonal))):
        coeffs = {names[join[i, j]]: 1}
        coeffs[names[i]] = coeffs.get(names[i], 0) - 1
        coeffs[names[j]] = coeffs.get(names[j], 0) - 1
        rows.append(make_row(coeffs, EQ, 0, f"additivity:{names[i]}|{names[j]}"))
    return names, rows


@dataclass
class StateSearchResult:
    feasible: bool
    state: dict[str, Fraction] | None
    certificate: Certificate | None
    residual: float
    detail: str = ""


def find_state(l: FiniteOML) -> StateSearchResult:
    """Find a state (probability valuation) on the lattice or certify that
    none exists.

    The solver runs in exact rational arithmetic, so a state found has
    residual exactly zero; equality-driven infeasibility returns a verified
    row-combination certificate.
    """
    names, rows = state_constraints(l)
    result = solve_feasibility(names, rows)
    if not result.feasible:
        return StateSearchResult(False, None, result.certificate, 0.0, result.detail)
    residual = check_point(rows, result.point)
    return StateSearchResult(True, result.point, None, residual)


def verify_general_state(l: FiniteOML, mu: Mapping[str, object], tol: float = DEFAULT_TOL) -> float:
    """Maximum residual of the state conditions at mu (0.0 means exact)."""
    names, rows = state_constraints(l)
    missing = set(names) - set(mu)
    if missing:
        raise ValueError(f"state misses elements {sorted(missing)[:5]}")
    for e in names:
        v = float(mu[e])
        if not -tol <= v <= 1 + tol:  # NaN fails both comparisons
            raise ValueError(f"state value out of range at {e!r}: {v}")
    return check_point(rows, mu)


# ---------------------------------------------------------------------------
# two-valued valuations


def find_two_valued_valuation(l: FiniteOML, count_all: bool = False) -> tuple[dict[str, int] | None, int]:
    """The {0,1} assignments respecting joins, meets, complements, and truth
    of the top element, read off the atoms.

    Precondition: ``l`` is an orthomodular lattice; a missing bound raises
    the ValueError naming the pair, any other failure of :func:`verify_oml`
    a ValueError naming the first failed law.

    On a finite OML these homomorphisms are exactly h(e) = [a <= e] for the
    atoms a with a <= e or a <= e' for every e.  The true set of h is a
    finite filter, so principal, and its generator is an atom because
    e ^ e' = 0.  Conversely such an a preserves complements by the
    condition and meets by construction, and joins by de Morgan: a <= e v f
    with a </= e, f would give a <= e' ^ f' = (e v f)'.

    Returns (first solution or None, solution count).  The first solution
    is the lexicographically greatest in element order, the one an
    element-by-element search trying 1 before 0 meets first.  The count is
    at most 1 unless ``count_all``.
    """
    _require_oml(l)
    # an atom's column of leq holds bottom and itself only
    atoms = l.leq[l.leq.sum(axis=0) == 2]
    rows = atoms[(atoms | atoms[:, l.ortho]).all(axis=1)]
    if not len(rows):
        return None, 0
    first = max(rows.tolist())
    return dict(zip(l.elements, map(int, first))), len(rows) if count_all else 1


# ---------------------------------------------------------------------------
# interval tables over a lattice


class LatticeBindings(Bindings[str]):
    """Binds formula atoms to lattice elements; denotation and orthogonality
    come from the lattice tables, so classification is exact."""

    def __init__(self, lattice: FiniteOML, atoms: Mapping[str, str]):
        self.lattice = lattice
        unknown = set(atoms.values()) - set(lattice.elements)
        if unknown:
            raise ValueError(f"bindings to unknown elements {sorted(unknown)}")
        super().__init__(atoms)

    def ortho(self, e: str) -> str:
        return self.lattice.ortho_id(e)

    def meet(self, a: str, b: str) -> str:
        return meet_oml(self.lattice, a, b)

    def join(self, a: str, b: str) -> str:
        return join_oml(self.lattice, a, b)

    def classify(self, left: Formula, right: Formula) -> str:
        return ORTHOGONAL if self.lattice.orthogonal(self.denote(left), self.denote(right)) else NON_ORTHOGONAL


@dataclass(frozen=True)
class LatticeLegalityReport:
    violations: tuple[str, ...]
    checked: int

    @property
    def ok(self) -> bool:
        return not self.violations


def lattice_valuation_legal(
    l: FiniteOML, m: IntervalNMatrix, mu: Mapping[str, object], tol: float = DEFAULT_TOL
) -> LatticeLegalityReport:
    """Elementwise legality of a [0,1]-valued map on the whole lattice: the
    value of every join, meet, and complement must sit inside the matrix cell
    selected by the orthogonality relation.  Each of the three checks is one
    ``admits`` call over every element or every pair i <= j."""
    meet, join = l.bound_table("meet"), l.bound_table("join")
    names = l.elements
    values = np.array([float(mu[e]) for e in names])
    i, j = np.triu_indices(len(names))
    orthogonal = l.leq[i, l.ortho[j]]
    checks = (
        ("not", (np.arange(len(names)),), l.ortho, (True, True)),
        ("or", (i, j), join[i, j], (orthogonal, ~orthogonal)),
        ("and", (i, j), meet[i, j], (orthogonal, ~orthogonal)),
    )
    violations = []
    for conn, inputs, target, relation in checks:
        ok = m.admits(conn, values[target], tuple(values[x] for x in inputs), relation, tol)
        for k in np.flatnonzero(~ok):
            args = tuple(float(values[x[k]]) for x in inputs)
            got = mu[names[target[k]]]
            if conn == "not":
                violations.append(f"complement of {names[k]}: {got} not in {m.cell(conn, args, tol=tol)}")
            else:
                cell = m.cell(conn, args, (orthogonal[k], not orthogonal[k]), tol)
                case = ORTHOGONAL if orthogonal[k] else NON_ORTHOGONAL
                violations.append(f"{conn}({names[i[k]]}, {names[j[k]]}) [{case}]: {got} not in {cell}")
    return LatticeLegalityReport(tuple(violations), len(names) + 2 * len(i))


def legal_valuation_search(
    l: FiniteOML,
    m: IntervalNMatrix,
    partial: Mapping[str, object] | None = None,
    extra_rows: Sequence[Row] = (),
    exact: bool | None = None,  # selects nothing; perfbench/workloads.py still passes it
) -> FeasibilityResult:
    """Search for a [0,1] valuation legal for the lattice tables.

    The rows encode ``quantum_nmatrix(alpha)``, whose tables do not depend
    on alpha; other matrices are refused.  ``partial`` pins chosen elements
    and ``extra_rows`` lets callers inject additional constraints.  A pin
    is read by ``to_fraction`` with denominators up to 10**9; a pin that is
    not a finite number in [0,1] raises ValueError.  The rows are solved
    exactly, so a point found is rational and satisfies them with residual
    zero.

    Precondition as for :func:`find_two_valued_valuation`.  On an OML the
    legal valuations are exactly the states, so the rows are those of
    :func:`state_constraints`.  Orthogonal a, b have a ^ b <= b' ^ b = 0,
    so their conjunction cell is the ``bottom`` row.  The interval cells
    say mu is monotone: a <= c gives c = a v (c ^ a') with a orthogonal to
    c ^ a', so mu(c) = mu(a) + mu(c ^ a') >= mu(a) by additivity and the
    box.  Conversely, legality gives mu(0) = mu(a ^ a') = 0, the complement
    rows, and additivity on orthogonal pairs.
    """
    if m.tables != quantum_nmatrix(m.alpha).tables:
        raise ValueError(
            f"the search encodes only quantum_nmatrix(alpha), not {m.name or 'an unnamed matrix'}"
        )
    _require_oml(l)
    names, rows = state_constraints(l)
    for e, v in (partial or {}).items():
        if e not in l.index:
            raise ValueError(f"unknown element {e!r} in partial assignment")
        pin = to_fraction(v, 10**9)
        if pin is None or not 0.0 <= float(v) <= 1.0:
            raise ValueError(f"partial assignment out of [0,1] at {e!r}: {v}")
        rows.append(make_row({e: 1}, EQ, pin, f"pin:{e}"))
    rows.extend(extra_rows)
    return solve_feasibility(names, rows)
