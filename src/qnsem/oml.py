"""Finite orthomodular lattices as explicit order tables: verification of the
lattice laws, interval truth tables and, on a verified OML only, states,
two-valued homomorphisms and legal valuations (states again).

Those tables are ``quantum.quantum_nmatrix`` under the lattice's own
orthogonality relation, read off the order table (``FiniteOML.orthogonal``).

The meet table comes from array products over the order; the join table is
read off it through the orthocomplement (de Morgan) whenever that map is an
order-reversing involution, and from a second product otherwise.

``state_constraints`` is the specification of a state: one equality per
complement pair and per orthogonal pair.  Every system solved here is
equalities boxed to [0,1] (state rows, context rows, pins); on an OML the
inequalities of the interval cells follow from them.  The searches solve
the lattice's test space instead: one equality per context, a maximal set
of mutually orthogonal atoms, over the atom weights, with every element the
sum over a greedy orthogonal atom decomposition of it.  That reduction
holds on an orthomodular lattice only, so the state searches require one; a
point found is extended to every element and a certificate is mapped back
to the specification rows, which are built only then.  ``find_state``
checks its point against them as one identity per row over the tables,
without building them.

Lattices come from direct order tables (JSON) and from Greechie diagrams
(blocks of mutually orthogonal atoms, pasted along shared atoms).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import lcm
from numbers import Real
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .feasibility import Certificate, FeasibilityResult, Row, make_row, solve_feasibility, to_fraction
from .linalg import DEFAULT_TOL, _bits, json_list, json_object
from .nmatrix import NON_ORTHOGONAL, ORTHOGONAL, IntervalNMatrix
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
        index = self.index
        for pair in leq_pairs:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ValueError(f"leq entry {pair!r} is not a pair")
            try:
                self.leq[index[pair[0]], index[pair[1]]] = True
            except (KeyError, TypeError):  # the message is built only here
                for e in pair:
                    self._known(f"leq pair {list(pair)!r}", e)
        missing = set(self.elements) - set(json_object(ortho, "ortho"))
        if missing:
            raise ValueError(f"orthocomplement map misses {sorted(missing)}")
        self.ortho = np.array([self._known(f"ortho value of {e!r}", ortho[e]) for e in self.elements])
        self.bottom = self._known("bottom", bottom)
        self.top = self._known("top", top)
        self._defects: tuple[np.ndarray, ...] | None = None  # the order's failing pairs
        self._meet: np.ndarray | None = None
        self._join: np.ndarray | None = None
        self._state_rows: tuple[tuple[str, ...], tuple[Row, ...], np.ndarray] | None = None
        self._first_failure: tuple[str, ...] | None = None  # verify_oml's first failure, () on an OML
        self._space: _TestSpace | None = None

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

    def orthogonal(self, a: str, b: str) -> bool:
        return bool(self.leq[self.index[a], self.ortho[self.index[b]]])

    def _order_failures(self) -> Iterator[str]:
        """The failures of the (reflexive) order as a partial order,
        antisymmetry then transitivity pairs in row-major order: the one
        source of the messages ``verify_oml`` lists and ``_bound_tables``
        raises."""
        if self._defects is None:  # kept as pairs, so a later call scans no n x n array
            self._defects = tuple(map(np.argwhere, _order_defects(self.leq)))
        two_way, unclosed = self._defects
        name = self.name
        yield from (f"antisymmetry fails at ({name(i)}, {name(j)})" for i, j in two_way)
        yield from (f"transitivity fails: {name(i)} <= ... <= {name(j)} but not directly" for i, j in unclosed)

    def _bound_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """meet/join index tables, -1 marking a missing bound; defined on a
        partial order only, else a ValueError names the first order failure.

        When the orthocomplement is an order-reversing involution, the join
        table is the meet table read through it (de Morgan): the map sends
        the upper bounds of {i, j} onto the lower bounds of {i', j'}, the
        least one onto the greatest and a missing bound onto a missing one.
        Any other map gets a second product, as the meet table does."""
        if self._meet is None:
            fault = next(self._order_failures(), None)
            if fault is not None:
                raise ValueError(f"not a partial order: {fault}")
            leq, o = self.leq, self.ortho
            self._meet = _greatest_below(leq.T)
            if np.array_equal(o[o], np.arange(len(o))) and np.array_equal(leq, leq[np.ix_(o, o)].T):
                m = self._meet[np.ix_(o, o)]
                self._join = np.where(m < 0, -1, o[m])
            else:
                self._join = _greatest_below(leq)
        return self._meet, self._join

    def bound_table(self, kind: str, where: np.ndarray | None = None) -> np.ndarray:
        """The ``"meet"`` or ``"join"`` table, for callers that index elements
        by it: raises ValueError naming the first pair in the boolean mask
        ``where`` (default every pair) whose bound is missing or not unique.
        A lattice ``verify_oml`` accepted has every bound, so none is
        looked for."""
        table = self._bound_tables()[kind == "join"]
        if self._first_failure == ():
            return table
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
    L = down[w] too would give w <= z <= w.  So the table comes from array
    products, O(n**3) in all and O(n**2) memory: one product counts |L| for
    every pair, and one product per down-set size s sums z + 1 over the z
    in L with |down[z]| = s.  Where |L| = s that sum is z + 1 for the
    greatest z, or 0 when L has none; elsewhere the entry stays -1.  Such a
    sum has at most one term z + 1 <= n, and float32 holds it and every
    count exactly below 2**24.  With the elements sorted by down-set size,
    the product for size s needs only the trailing rows and columns, the
    elements whose down-sets are at least that large, so a total order
    (n sizes) costs about n**3 / 3 rather than n**3.
    """
    n = len(down)
    size = np.count_nonzero(down, axis=1)
    order = np.argsort(size, kind="stable")
    down = down[order][:, order].astype(np.float32)
    weight = (order + 1).astype(np.float32)
    common = down @ down.T
    table = np.full((n, n), -1, dtype=np.int64)
    sizes, starts = np.unique(size[order], return_index=True)
    ends = [*starts[1:].tolist(), n]
    for s, a, b in zip(sizes.tolist(), starts.tolist(), ends):
        block = down[a:, a:b]
        np.copyto(table[a:, a:], (block * weight[a:b]) @ block.T - 1, casting="unsafe", where=common[a:, a:] == s)
    rank = np.empty_like(order)
    rank[order] = np.arange(n)
    return table[rank][:, rank]


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
    come law by law, pairs in row-major order, up to ``max_failures``, which
    must be at least 1.  The verdict is recorded on ``l``, so the searches
    that require an OML do not check the laws again."""
    if max_failures < 1:
        raise ValueError(f"max_failures must be at least 1, got {max_failures}")
    report = _check_laws(l, max_failures)
    l._first_failure = report.failures[:1]
    return report


def _check_laws(l: FiniteOML, max_failures: int) -> OmlReport:
    failures: list[str] = []

    def fail(msgs: Iterable[str]):
        failures.extend(itertools.islice(msgs, max_failures - len(failures)))

    def pairs(mask: np.ndarray):
        # a lattice usually passes a law: no scan for its pairs then
        return np.argwhere(mask) if mask.any() else ()

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
    no_meet, no_join = meet < 0, join < 0
    fail(f"{kind}({name(i)}, {name(j)}) missing or not unique"
         for i, j in pairs(no_meet | no_join) if i <= j
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
         for i, j in pairs(leq & ~leq[np.ix_(ortho, ortho)].T))
    # every bound exists past the early return; inner[i, j] = j ^ i'
    inner = meet[:, ortho].T
    fail(f"orthomodular law fails: {name(j)} != {name(i)} v ({name(j)} ^ {name(ortho[i])})"
         for i, j in pairs(leq & (np.take_along_axis(join, inner, axis=1) != idx)))
    return OmlReport(tuple(failures))


def _require_oml(l: FiniteOML) -> None:
    """The precondition of the state, two-valued and legal-valuation
    searches; the laws are checked once per lattice."""
    if l._first_failure == ():
        return  # verify_oml accepted l, so every bound exists
    for kind in ("meet", "join"):
        l.bound_table(kind)
    if l._first_failure is None:
        verify_oml(l, max_failures=1)
    if l._first_failure:
        raise ValueError(f"not an orthomodular lattice: {l._first_failure[0]}")


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


def from_greechie(atoms: Sequence[str], blocks: Sequence[Sequence[str]]) -> FiniteOML:
    """Paste Boolean blocks along shared atoms into one lattice.

    Each block lists mutually orthogonal atoms jointly spanning the top.  Two
    blocks may share at most one atom.  The result is an orthomodular lattice
    exactly when the diagram has no loops of order three or four; run
    :func:`verify_oml` on the output to certify.

    The generated elements are named ``0``, ``1``, ``x'`` for the complement
    of atom x and ``x+y`` for a join inside a block; an atom name equal to
    one of them is refused.
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
    if not blocks:
        raise ValueError("blocks is empty; a diagram needs at least one block")

    atom_sets: dict[str, frozenset] = {}
    ortho_map: dict[str, str] = {}

    def add(name: str, members: frozenset, complement: str) -> None:
        # in a valid diagram every element is added once, under its own name
        if name in atom_sets:
            if name in in_blocks:
                raise ValueError(f"atom name {name!r} equals a generated element name")
            raise ValueError(f"generated element name {name!r} arises twice; rename the atoms")
        atom_sets[name] = members
        ortho_map[name] = complement

    add("0", frozenset(), "1")
    add("1", frozenset(atoms), "0")
    for a in atoms:
        add(a, frozenset([a]), a + "'")
        add(a + "'", frozenset(x for b in in_blocks[a] for x in b if x != a), a)
    for b in blocks:
        bset = frozenset(b)
        for mask in range(1, 1 << len(b)):
            sub = frozenset(x for i, x in enumerate(b) if mask >> i & 1)
            if 2 <= len(sub) <= len(b) - 2:
                add("+".join(sorted(sub)), sub, "+".join(sorted(bset - sub)))

    elements = list(atom_sets)
    pairs = [
        (x, y) for x in elements for y in elements if x != y and atom_sets[x] <= atom_sets[y]
    ]
    return FiniteOML(elements, pairs, ortho_map, "0", "1")


# ---------------------------------------------------------------------------
# states


def state_constraints(l: FiniteOML) -> tuple[list[str], list[Row]]:
    """Variables and equality rows a state must satisfy: bottom and top are
    pinned, complements sum to one, orthogonal pairs add along their join.

    Additivity is imposed pairwise only; on a finite lattice the countable
    form reduces to finite additivity, and finite families follow from pairs
    by induction through (a v b) orthogonal to c.

    The rows are built once per lattice; each call returns new lists.
    """
    if l._state_rows is None:
        orthogonal, join = _orthogonal_joins(l)
        names = l.elements
        rows: list[Row] = [
            make_row({names[l.bottom]: 1}, 0, "bottom"),
            make_row({names[l.top]: 1}, 1, "top"),
        ]
        for i, oi in enumerate(l.ortho.tolist()):
            if i <= oi:
                coeffs = {names[i]: 1, names[oi]: 1} if i != oi else {names[i]: 2}
                rows.append(make_row(coeffs, 1, f"complement:{names[i]}"))
        pairs = np.nonzero(orthogonal)
        additivity = np.full(orthogonal.shape, -1)  # the row of each orthogonal pair, both ways
        additivity[pairs] = additivity[pairs[::-1]] = np.arange(len(rows), len(rows) + len(pairs[0]))
        # join - i - j = 0, as make_row would build it: sorted, zero terms
        # dropped (i < j, so the join is at most one of them)
        one, minus_one, zero = Fraction(1), Fraction(-1), Fraction(0)
        for i, j, k in zip(pairs[0].tolist(), pairs[1].tolist(), join[pairs].tolist()):
            a, b = names[i], names[j]
            if k == i:
                coeffs = ((b, minus_one),)
            elif k == j:
                coeffs = ((a, minus_one),)
            else:
                coeffs = tuple(sorted(((names[k], one), (a, minus_one), (b, minus_one))))
            rows.append(Row(coeffs, zero, f"additivity:{a}|{b}"))
        l._state_rows = names, tuple(rows), additivity
    names, rows, _ = l._state_rows
    return list(names), list(rows)


def _orthogonal_joins(l: FiniteOML) -> tuple[np.ndarray, np.ndarray]:
    """The orthogonal pairs i < j as a boolean mask, and the join table,
    which is read only at those pairs: a missing join of one of them raises
    the ValueError of ``bound_table``."""
    orthogonal = np.triu(l.leq[:, l.ortho], 1)
    return orthogonal, l.bound_table("join", orthogonal)


@dataclass(frozen=True)
class _TestSpace:
    """The atoms of an OML grouped into contexts, the maximal sets of
    mutually orthogonal atoms (Foulis & Randall, J. Math. Phys. 13, 1972).

    ``atoms`` holds element indices, ascending; ``orthogonal`` is their
    orthogonality matrix, and a context is a sorted tuple of positions in
    ``atoms``.  Row e of ``decomposition`` marks an orthogonal set D(e) of
    atoms whose join is e.  ``rows`` has one equality per context, in
    context order: its atom weights sum to 1.  ``variables`` names the
    atoms in the order the solver pivots on them, fewest contexts first:
    an atom in one context only is eliminated with its row and enters no
    other pivot's expression.
    """

    atoms: np.ndarray
    orthogonal: np.ndarray
    contexts: tuple[tuple[int, ...], ...]
    decomposition: np.ndarray
    variables: tuple[str, ...]
    rows: tuple[Row, ...]


def _test_space(l: FiniteOML) -> _TestSpace:
    """The test space of ``l``, built once per lattice; only for an OML.

    D(e) is greedy: D(0) is empty and D(e) = {a} + D(e ^ a') for the first
    atom a below e, followed for every element at once.  By the
    orthomodular law e = a v (e ^ a'), and every atom below e ^ a' is
    orthogonal to a, so D(e) is an orthogonal set of atoms that joins to e;
    D(1) is a context, since an atom orthogonal to all of it would lie
    below 1' = 0.
    """
    if l._space is None:
        atoms = np.flatnonzero(l.leq.sum(axis=0) == 2)  # the down-set is {0, a}
        orthogonal = l.leq[np.ix_(atoms, l.ortho[atoms])]
        contexts = _maximal_cliques(orthogonal)
        decomposition = np.zeros((len(l), len(atoms)), dtype=bool)
        if len(atoms):  # only the one-element lattice has none
            below, every = l.leq[atoms], np.arange(len(l))
            first = below.argmax(axis=0)
            nonzero = below[first, every]
            rest = l._bound_tables()[0][every, l.ortho[atoms[first]]]  # e ^ a'
            e = at = np.flatnonzero(nonzero)  # D(e) takes the first atom below at
            while len(e):
                decomposition[e, first[at]] = True
                at = rest[at]
                e, at = e[nonzero[at]], at[nonzero[at]]
        names = [l.elements[a] for a in atoms.tolist()]
        shared = np.bincount([a for c in contexts for a in c], minlength=len(atoms))
        variables = tuple(names[a] for a in np.argsort(shared, kind="stable").tolist())
        rows = tuple(make_row(dict.fromkeys([names[a] for a in c], 1), 1, "context") for c in contexts)
        l._space = _TestSpace(atoms, orthogonal, contexts, decomposition, variables, rows)
    return l._space


def _maximal_cliques(adjacent: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The maximal cliques of the graph with boolean adjacency matrix
    ``adjacent``, as sorted vertex tuples in lexicographic order.

    Bron-Kerbosch with pivoting (Tomita, Tanaka & Takahashi, Theor. Comput.
    Sci. 363, 2006) on an explicit stack, with vertex sets as int bitmasks.
    """
    neighbours = [int.from_bytes(row.tobytes(), "little")
                  for row in np.packbits(adjacent, axis=1, bitorder="little")]
    cliques = []
    stack = [(0, (1 << len(neighbours)) - 1, 0)]  # (clique, candidates, excluded)
    while stack:
        clique, candidates, excluded = stack.pop()
        if not candidates:
            if not excluded:
                cliques.append(tuple(_bits(clique)))
            continue
        pivot = max(_bits(candidates | excluded), key=lambda u: (candidates & neighbours[u]).bit_count())
        for v in _bits(candidates & ~neighbours[pivot]):
            stack.append((clique | 1 << v, candidates & neighbours[v], excluded & neighbours[v]))
            candidates &= ~(1 << v)
            excluded |= 1 << v
    return tuple(sorted(cliques))


def _solve_on_contexts(l: FiniteOML, extra: Sequence[Row] = ()) -> tuple[FeasibilityResult, np.ndarray | None, int]:
    """``solve_feasibility`` of the rows ``state_constraints(l)[1]`` plus
    ``extra`` on the verified OML ``l``, with the point's values as
    numerators over one common denominator (element order; None and 1 when
    there is no point).

    The variables are the atom weights and the rows are the context rows
    of the test space, then ``extra`` with each element e rewritten as the
    sum over D(e).  On an OML the two systems have the same solutions: a
    state restricts to its atom weights, and weights that sum to 1 on every
    context extend to a state by mu(e) = sum of the weights over D(e).  Two
    decompositions of e, each joined with one of e', are contexts, so the
    sum does not depend on the decomposition, and the union of D(a) and
    D(b) decomposes a v b for orthogonal a, b.

    A point is extended to every element that way.  A certificate is mapped
    back to the original rows by index: a context row is the ``top`` row
    minus the additivity rows along the join chain of its atoms, and an
    element e rewritten as the sum over D(e) adds the chain of D(e).
    """
    space = _test_space(l)
    names = [l.elements[a] for a in space.atoms.tolist()]
    rows = list(space.rows)
    for row in extra:
        coeffs: dict[str, Fraction] = {}
        for v, c in row.coeffs:
            for a in np.flatnonzero(space.decomposition[l.index[v]]).tolist():
                coeffs[names[a]] = coeffs.get(names[a], 0) + c
        rows.append(make_row(coeffs, row.rhs, row.label))
    result = solve_feasibility(space.variables, rows)
    if result.feasible:
        weights = [result.point[name] for name in names]
        den = lcm(*(w.denominator for w in weights))
        # numerators over den; a sum over D(e) is mu(e) * den <= den
        numerators = np.array([w.numerator * (den // w.denominator) for w in weights],
                              dtype=np.int64 if den < 2**62 else object)
        sums = space.decomposition.astype(numerators.dtype) @ numerators
        listed = sums.tolist()
        value = {v: Fraction(v, den) for v in set(listed)}
        return FeasibilityResult(True, dict(zip(l.elements, map(value.__getitem__, listed)))), sums, den
    certificate = result.certificate
    if certificate is not None:
        certificate = _state_row_certificate(l, space, certificate, extra)
    return FeasibilityResult(False, None, certificate, result.detail), None, 1


def _state_row_certificate(l: FiniteOML, space: _TestSpace, certificate: Certificate,
                           extra: Sequence[Row]) -> Certificate:
    """A certificate over the rows ``_solve_on_contexts`` solves, as one over
    ``state_constraints(l)[1]`` plus ``extra``; the right-hand side stays.
    It builds the state rows of ``l`` if no caller has."""
    state_constraints(l)
    _, state_rows, additivity = l._state_rows
    _, join = l._bound_tables()
    atoms = space.atoms.tolist()
    total: dict[int, Fraction] = {}

    def add(r: int, m: Fraction) -> None:
        total[r] = total.get(r, 0) + m

    def subtract_chain(members: list[int], m: Fraction) -> None:
        # m times the additivity rows along the join chain of the
        # orthogonal atoms: they sum to mu(v members) - sum of mu(members)
        if not members:
            add(0, -m)  # the empty set joins to 0: the bottom row
            return
        s = members[0]
        for d in members[1:]:
            add(int(additivity[s, d]), -m)
            s = join[s, d]

    contexts = len(space.contexts)
    for k, m in certificate.multipliers:
        if k < contexts:
            add(1, m)  # the top row
            subtract_chain([atoms[a] for a in space.contexts[k]], m)
            continue
        add(len(state_rows) + k - contexts, m)
        for v, c in extra[k - contexts].coeffs:
            e = l.index[v]
            subtract_chain([atoms[a] for a in np.flatnonzero(space.decomposition[e]).tolist()], m * c)
    return Certificate(tuple(sorted((r, m) for r, m in total.items() if m)), certificate.combined_rhs)


@dataclass
class StateSearchResult:
    feasible: bool
    state: dict[str, Fraction] | None
    certificate: Certificate | None
    residual: float
    detail: str = ""


def find_state(l: FiniteOML) -> StateSearchResult:
    """Find a state (probability valuation) on the orthomodular lattice or
    certify that none exists.

    Precondition as for :func:`find_two_valued_valuation`, checked after
    the joins of the orthogonal pairs, so a missing one is named first, as
    :func:`state_constraints` names it.  The state is solved on the
    lattice's test space: one equality per context, a maximal set of
    mutually orthogonal atoms, over the atom weights, and each element
    takes the sum of the weights over its orthogonal atom decomposition
    (see ``_solve_on_contexts``; without the orthomodular law a "state"
    found that way can break the state rows).

    The rows of :func:`state_constraints` stay the specification, but a
    state found builds none of them: ``residual`` is ``check_point`` over
    them, exactly zero for the rational state found, computed as one
    identity per row over the join table (see ``_state_residual``).  Only an
    infeasibility certificate builds them: it is a combination of them,
    mapped back from the context rows.
    """
    orthogonal, join = _orthogonal_joins(l)
    _require_oml(l)
    result, numerators, den = _solve_on_contexts(l)
    if not result.feasible:
        return StateSearchResult(False, None, result.certificate, 0.0, result.detail)
    return StateSearchResult(True, result.point, None, _state_residual(l, orthogonal, join, numerators, den))


def _state_residual(l: FiniteOML, orthogonal: np.ndarray, join: np.ndarray, num: np.ndarray, den: int) -> float:
    """``check_point(state_constraints(l)[1], point)`` for the point with
    values num / den, in element order, without the rows: the largest of
    |num[0]| and |num[1] - den| at bottom and top, |num[e] + num[e'] - den|
    for e <= e' (that is 2 num[e] - den when e = e') and
    |num[i v j] - num[i] - num[j]| for the orthogonal pairs i < j, over
    den.  Each term is one row's violation times den; values in [0, 1] keep
    every sum within int64."""
    o = l.ortho
    pair = o >= np.arange(len(o))
    i, j = np.nonzero(orthogonal)
    worst = max(abs(num[l.bottom]), abs(num[l.top] - den),
                np.abs(num[pair] + num[o[pair]] - den).max(initial=0),
                np.abs(num[join[i, j]] - num[i] - num[j]).max(initial=0))
    return int(worst) / den


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
    exact: bool | None = None,  # selects nothing; perfbench/workloads.py still passes it
) -> FeasibilityResult:
    """Search for a [0,1] valuation legal for the lattice tables.

    The rows encode ``quantum_nmatrix(alpha)``, whose tables do not depend
    on alpha; other matrices are refused.  ``partial`` pins chosen
    elements.  A pin is read by ``to_fraction`` with denominators up to
    10**9; a pin that is not a finite real number (``numbers.Real`` or
    ``Decimal``) in [0,1], compared exactly, raises ValueError.
    The rows are solved exactly, so a point found is rational and satisfies
    them with residual zero.

    Precondition as for :func:`find_two_valued_valuation`.  On an OML the
    legal valuations are exactly the states, so the rows are those of
    :func:`state_constraints`.  Orthogonal a, b have a ^ b <= b' ^ b = 0,
    so their conjunction cell is the ``bottom`` row.  The interval cells
    say mu is monotone: a <= c gives c = a v (c ^ a') with a orthogonal to
    c ^ a', so mu(c) = mu(a) + mu(c ^ a') >= mu(a) by additivity and the
    box.  Conversely, legality gives mu(0) = mu(a ^ a') = 0, the complement
    rows, and additivity on orthogonal pairs.

    Those rows and the pins are solved on the lattice's contexts, as in
    :func:`find_state`; the point covers every element, and a certificate
    indexes the rows of :func:`state_constraints` followed by the pins, in
    the order of ``partial``.
    """
    if m.tables != quantum_nmatrix(m.alpha).tables:
        raise ValueError(
            f"the search encodes only quantum_nmatrix(alpha), not {m.name or 'an unnamed matrix'}"
        )
    _require_oml(l)
    rows = []
    for e, v in (partial or {}).items():
        if e not in l.index:
            raise ValueError(f"unknown element {e!r} in partial assignment")
        pin = to_fraction(v, 10**9) if isinstance(v, (Real, Decimal)) else None
        if pin is None or not 0 <= v <= 1:  # v itself: the pin is rounded
            raise ValueError(f"partial assignment out of [0,1] at {e!r}: {v!r}")
        rows.append(make_row({e: 1}, pin, f"pin:{e}"))
    return _solve_on_contexts(l, rows)[0]
