"""Known answers, computed with numpy and the standard library only.

Nothing here imports qnsem: every expected verdict of the benchmark comes
from a construction whose answer is known in advance, or from a reference
computation in this file.  Each function states why its answer holds.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np


class WrongVerdict(Exception):
    """The program returned an answer that differs from the known one."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongVerdict(message)


# ---------------------------------------------------------------------------
# orthomodular lattices from Greechie diagrams


@dataclass(frozen=True)
class LatticeData:
    """Order table of the lattice pasted from Boolean blocks.

    Every element is named and identified with the set of atoms below it, so
    the order is set inclusion.  ``blocks`` keeps the diagram, from which
    states and two-valued valuations are characterised.
    """

    name: str
    elements: tuple[str, ...]
    atom_sets: tuple[frozenset, ...]
    pairs: tuple[tuple[str, str], ...]
    ortho: dict
    blocks: tuple[tuple[str, ...], ...]

    def __len__(self) -> int:
        return len(self.elements)


def greechie(name: str, blocks) -> LatticeData:
    """Expand a block diagram whose blocks share at most one atom and which
    has no loops of order three or four.

    By Greechie's theorem such a pasting of Boolean algebras is an
    orthomodular lattice.  One block of n atoms is the Boolean algebra 2^n;
    n blocks of two atoms are MO_n.  The complement of an element is the set
    of atoms orthogonal (sharing a block) to every atom below it.
    """
    blocks = tuple(tuple(b) for b in blocks)
    atoms = list(dict.fromkeys(a for b in blocks for a in b))
    mates = {a: frozenset(x for b in blocks if a in b for x in b if x != a) for a in atoms}
    names: dict[frozenset, str] = {frozenset(): "0", frozenset(atoms): "1"}
    for a in atoms:
        names.setdefault(frozenset([a]), a)
    for a in atoms:
        names.setdefault(mates[a], a + "'")
    for b in blocks:
        for size in range(2, len(b) - 1):
            for sub in itertools.combinations(b, size):
                names.setdefault(frozenset(sub), "+".join(sub))

    def complement(s: frozenset) -> str:
        return names[frozenset(c for c in atoms if all(c in mates[x] for x in s))]

    sets = list(names)
    pairs = tuple((names[s], names[t]) for s in sets for t in sets if s != t and s <= t)
    ortho = {names[s]: complement(s) for s in sets}
    return LatticeData(name, tuple(names.values()), tuple(sets), pairs, ortho, blocks)


def boolean(n: int) -> LatticeData:
    """2^n with its elements in binary counting order of their atom sets."""
    data = greechie(f"boolean-2^{n}", [[f"b{i}" for i in range(n)]])
    order = sorted(range(len(data)), key=lambda i: sum(1 << int(a[1:]) for a in data.atom_sets[i]))
    return replace(
        data,
        elements=tuple(data.elements[i] for i in order),
        atom_sets=tuple(data.atom_sets[i] for i in order),
    )


def mo(n: int) -> LatticeData:
    return greechie(f"MO{n}", [[f"x{i}", f"y{i}"] for i in range(n)])


def chain(k: int) -> LatticeData:
    """k three-atom blocks, consecutive blocks sharing one atom: 4k+4 elements."""
    return greechie(f"chain-{k}", [[f"c{2 * i}", f"c{2 * i + 1}", f"c{2 * i + 2}"] for i in range(k)])


def bundled_json(root: Path, name: str) -> dict:
    with open(root / "src" / "qnsem" / "fixtures" / name, encoding="utf-8") as fh:
        return json.load(fh)


def state_free(root: Path) -> LatticeData:
    """The bundled diagram: nine four-atom row blocks and twelve three-atom
    column blocks, every atom in one of each.  A state would give total atom
    mass 9 by rows and 12 by columns at once, so none exists."""
    obj = bundled_json(root, "nostate_grid.json")
    return greechie("state-free", obj["blocks"])


def two_valued_count(lattice: LatticeData) -> int:
    """Number of {0,1} lattice homomorphisms.

    The top is the join of each block, so some atom of every block is true;
    two distinct atoms meet in 0, so only one atom is true.  That atom must
    lie in every block, and each such atom s gives v(x) = [s <= x].
    """
    return len(set.intersection(*(set(b) for b in lattice.blocks)))


def check_state(lattice: LatticeData, point, tol) -> None:
    """A state on a pasting is an atom weighting with every block summing to
    one; complements sum to one and block elements add up their atoms.
    ``tol`` is 0 for exact points."""
    value = {e: point[e] for e in lattice.elements}
    close = (lambda x, y: x == y) if tol == 0 else (lambda x, y: abs(x - y) <= tol)
    expect(close(value["0"], 0) and close(value["1"], 1), f"{lattice.name}: bottom/top not 0/1")
    expect(all(-tol <= v <= 1 + tol for v in value.values()), f"{lattice.name}: value outside [0,1]")
    for b in lattice.blocks:
        expect(close(sum(value[a] for a in b), 1), f"{lattice.name}: block {b} does not sum to 1")
    for e, s in zip(lattice.elements, lattice.atom_sets):
        expect(close(value[e] + value[lattice.ortho[e]], 1), f"{lattice.name}: complement of {e}")
        if "+" in e:
            expect(close(value[e], sum(value[a] for a in s)), f"{lattice.name}: additivity at {e}")


@dataclass(frozen=True)
class Tables:
    leq: np.ndarray
    meet: np.ndarray
    join: np.ndarray
    ortho: np.ndarray


def tables(lattice: LatticeData) -> Tables:
    """Meet and join read off the inclusion order: the largest lower bound
    and the smallest upper bound, each required to compare with all bounds."""
    n = len(lattice)
    sets = lattice.atom_sets
    leq = np.array([[s <= t for t in sets] for s in sets])
    card = np.array([len(s) for s in sets])
    index = {e: i for i, e in enumerate(lattice.elements)}
    meet = np.empty((n, n), dtype=int)
    join = np.empty((n, n), dtype=int)
    for i in range(n):
        lower = leq[:, i][:, None] & leq  # lower[z, j]: z <= i and z <= j
        upper = leq[i, :][:, None] & leq.T  # upper[z, j]: i <= z and j <= z
        meet[i] = np.where(lower, card[:, None], -1).argmax(axis=0)
        join[i] = np.where(upper, -card[:, None], -(10**9)).argmax(axis=0)
        for j in range(n):
            assert leq[lower[:, j], meet[i, j]].all() and leq[join[i, j], upper[:, j]].all()
    ortho = np.array([index[lattice.ortho[e]] for e in lattice.elements])
    return Tables(leq, meet, join, ortho)


def check_legal(lattice: LatticeData, t: Tables, point, tol) -> None:
    """The valuation obeys the orthogonality-split tables on every pair:
    orthogonal pairs add along the join and meet in 0; other pairs keep the
    join in [max, 1] and the meet in [0, min]; complements take 1 - a."""
    names = lattice.elements
    v = [point[e] for e in names]
    expect(abs(point["0"]) <= tol and abs(point["1"] - 1) <= tol, f"{lattice.name}: bottom/top not 0/1")
    for i in range(len(names)):
        expect(abs(v[t.ortho[i]] - (1 - v[i])) <= tol, f"{lattice.name}: complement of {names[i]}")
        for j in range(i + 1, len(names)):
            a, b, vj, vm = v[i], v[j], v[t.join[i, j]], v[t.meet[i, j]]
            if t.leq[i, t.ortho[j]]:
                ok = abs(vj - (a + b)) <= tol and abs(vm) <= tol
            else:
                ok = max(a, b) - tol <= vj <= 1 + tol and -tol <= vm <= min(a, b) + tol
            expect(ok, f"{lattice.name}: table cell of ({names[i]}, {names[j]}) violated")


def infeasible_pins(lattice: LatticeData, rng: np.random.Generator) -> dict:
    """Two atoms x, y of one block with v(x) + v(y) > 1.  Orthogonality forces
    v(x v y) = v(x) + v(y) > 1, so no valuation boxed to [0,1] exists, while
    the equality rows alone stay consistent: only the bounded phase sees it."""
    block = lattice.blocks[int(rng.integers(len(lattice.blocks)))]
    x, y = rng.choice(len(block), size=2, replace=False)
    p, q = (Fraction(int(rng.integers(51, 100)), 100) for _ in range(2))
    return {block[x]: p, block[y]: q}


def check_certificate(rows, certificate) -> None:
    """Farkas check of an equality certificate: the weighted rows cancel on
    every variable but not on the right-hand side."""
    total: dict[str, Fraction] = {}
    rhs = Fraction(0)
    for idx, mult in certificate.multipliers:
        row = rows[idx]
        expect(row.rel == "==", "certificate uses a non-equality row")
        for var, c in row.coeffs:
            total[var] = total.get(var, Fraction(0)) + mult * c
        rhs += mult * row.rhs
    expect(all(c == 0 for c in total.values()) and rhs != 0, "certificate does not verify")


# ---------------------------------------------------------------------------
# vector families for the Kochen-Specker search


@dataclass(frozen=True)
class VectorFamily:
    name: str
    vectors: dict  # id -> integer tuple
    contexts: tuple[tuple[str, ...], ...]


def _orthogonal(u, v) -> bool:
    return sum(x * y for x, y in zip(u, v)) == 0


def peres24() -> VectorFamily:
    """Peres's 24 rays in dimension four (J. Phys. A 24, L175, 1991): the
    permutations of (1,0,0,0), of (1,+-1,0,0) and the eight (1,+-1,+-1,+-1).
    Contexts are the orthogonal 4-subsets.  The set admits no KS assignment."""
    rays = [tuple(int(i == k) for i in range(4)) for k in range(4)]
    for i, j in itertools.combinations(range(4), 2):
        for s in (1, -1):
            rays.append(tuple(1 if k == i else s if k == j else 0 for k in range(4)))
    rays += [(1,) + signs for signs in itertools.product((1, -1), repeat=3)]
    vectors = {f"r{i:02d}": r for i, r in enumerate(rays)}
    ids = sorted(vectors)
    contexts = tuple(
        c for c in itertools.combinations(ids, 4)
        if all(_orthogonal(vectors[a], vectors[b]) for a, b in itertools.combinations(c, 2))
    )
    assert len(contexts) == 24
    return VectorFamily("peres24", vectors, contexts)


def ks18(root: Path) -> VectorFamily:
    """The bundled 18 integer vectors in nine contexts.  Each vector lies in
    an even number of contexts while the number of contexts is odd, so a
    one-per-context assignment would count its ones both oddly and evenly."""
    obj = bundled_json(root, "ks18_dim4.json")
    vectors = {vid: tuple(int(re) for re, _im in entries) for vid, entries in obj["vectors"].items()}
    family = VectorFamily("ks18", vectors, tuple(tuple(c) for c in obj["contexts"]))
    uses = {vid: sum(vid in c for c in family.contexts) for vid in vectors}
    if len(family.contexts) % 2 == 0 or any(u % 2 for u in uses.values()):
        raise ValueError("the bundled ks18 family no longer fits the parity argument")
    return family


def subfamily(family: VectorFamily, rng: np.random.Generator, n_vectors: int) -> VectorFamily:
    """Random set of contexts whose vectors number exactly ``n_vectors``."""
    while True:
        picks = rng.choice(len(family.contexts), size=int(rng.integers(4, 7)), replace=False)
        contexts = tuple(family.contexts[i] for i in sorted(picks))
        ids = {v for c in contexts for v in c}
        if len(ids) == n_vectors:
            name = f"{family.name}-sub" + ".".join(str(i) for i in sorted(picks))
            return VectorFamily(name, {v: family.vectors[v] for v in sorted(ids)}, contexts)


def ks_count(family: VectorFamily) -> int:
    """Assignments with exactly one true vector per context and no orthogonal
    pair both true, counted by choosing the true vector of the first context
    that has none (each solution is reached once)."""
    ids = sorted(family.vectors)
    adj = {a: {b for b in ids if b != a and _orthogonal(family.vectors[a], family.vectors[b])} for a in ids}

    def rec(true: frozenset, excluded: frozenset) -> int:
        ctx = next((c for c in family.contexts if not true.intersection(c)), None)
        if ctx is None:
            return 1
        return sum(rec(true | {v}, excluded | adj[v]) for v in ctx if v not in excluded)

    return rec(frozenset(), frozenset())


def check_ks_assignment(family: VectorFamily, assignment) -> None:
    for ctx in family.contexts:
        expect(sum(assignment[v] for v in ctx) == 1, f"{family.name}: context {ctx} not exactly one")
    for a, b in itertools.combinations(sorted(family.vectors), 2):
        if assignment[a] == assignment[b] == 1:
            expect(not _orthogonal(family.vectors[a], family.vectors[b]), f"{family.name}: {a},{b}")


# ---------------------------------------------------------------------------
# formulas, walked iteratively so deep inputs never exhaust the stack


def kids(f) -> tuple:
    if hasattr(f, "child"):
        return (f.child,)
    if hasattr(f, "left"):
        return (f.left, f.right)
    return ()


def same_tree(f, g) -> bool:
    """Structural equality by node type and atom name."""
    stack = [(f, g)]
    while stack:
        a, b = stack.pop()
        if type(a).__name__ != type(b).__name__ or getattr(a, "name", None) != getattr(b, "name", None):
            return False
        stack.extend(zip(kids(a), kids(b)))
    return True


def tree_size(f) -> int:
    size, stack = 0, [f]
    while stack:
        node = stack.pop()
        size += 1
        stack.extend(kids(node))
    return size


def closure_size(formulas) -> int:
    """Number of structurally distinct subformulas."""
    number: dict[int, int] = {}  # id(node) -> structure number
    structures: dict[tuple, int] = {}
    stack = [(f, False) for f in formulas]
    while stack:
        node, ready = stack.pop()
        if id(node) in number:
            continue
        if not ready:
            stack.append((node, True))
            stack.extend((c, False) for c in kids(node))
            continue
        key = (type(node).__name__, getattr(node, "name", None), *(number[id(c)] for c in kids(node)))
        number[id(node)] = structures.setdefault(key, len(structures))
    return len(structures)
