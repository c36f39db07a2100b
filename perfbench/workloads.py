"""The benchmark workloads: seeded inputs, the jobs that call qnsem on them,
and the check of each job's output against its known answer.

A job's ``run`` holds only the program calls and is what the benchmark
times; ``check`` runs afterwards, raises ``WrongVerdict`` on a wrong answer
and returns a small summary that must repeat exactly from pass to pass.
Expected answers that take computing are worked out on the first check, so
that set-up covers only the program's import, the inputs and the warm-up.
Program functions are always reached through their module (``oml.find_state``)
so that the traced run sees the wrappers it installs there.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import known
from known import expect
from qnsem import cli, demo, feasibility, formulas, kscheck, nmatrix, oml, quantum
from qnsem.formulas import And, Atom, Not, Or


@dataclass(frozen=True)
class Job:
    id: str
    cls: str
    run: Callable[[], object]
    check: Callable[[object], object]


@dataclass(frozen=True)
class Workload:
    jobs: list[Job]
    warmup: list[Job]
    #: cross-checks of the expected answers against slow reference code,
    #: run once per measured run, after set-up is timed
    selfcheck: Callable[[], None] = field(default=lambda: None)
    #: ids of jobs that may raise RecursionError without the run being wrong
    tolerated: frozenset[str] = frozenset()


def smallest_per_class(jobs: list[Job]) -> list[Job]:
    """The first job of each class; jobs are listed smallest first within a class."""
    return list({job.cls: job for job in reversed(jobs)}.values())


def build(name: str, seed: int, root: Path) -> Workload:
    return {"paper_demo": paper_demo, "lattice_search": lattice_search, "formula_dag": formula_dag}[name](
        seed, root
    )


# ---------------------------------------------------------------------------
# paper_demo: the command users run


def paper_demo(seed: int, root: Path) -> Workload:
    def job(job_id: str, extra: list[str]) -> Job:
        argv = ["--format", "json", "--seed", str(seed), "demo", "paper", *extra]

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()

        def check(result):
            code, text = result
            payload = json.loads(text)
            bad = [c["label"] for s in payload["sections"] for c in s["checks"] if not c["passed"]]
            expect(code == 0 and payload["passed"] and not bad, f"exit {code}, failed checks {bad}")
            return hashlib.sha256(text.encode()).hexdigest()

        return Job(job_id, "demo", run, check)

    return Workload([job("demo/paper", [])], [job("demo/smallest", ["--trials", "1", "--samples", "10"])])


# ---------------------------------------------------------------------------
# lattice_search: OML laws, states, two-valued valuations, KS searches

BOOLEAN_ATOMS = (3, 4, 5, 6, 7)
MO_SIZES = (2, 3, 5, 8)
# 12..100 elements, on both sides of the 64-element exact/float default
CHAIN_BLOCKS = (2, 3, 6, 10, 15, 16, 24)
KS_SUBFAMILIES = 3
KS_SUBFAMILY_VECTORS = 18


def _tolerance(point) -> float:
    """Exact (rational) points must satisfy every row exactly."""
    return 0 if all(not isinstance(v, float) for v in point.values()) else 1e-9


def _lattice_job(data: known.LatticeData, has_state: bool) -> Job:
    def run():
        lattice = oml.FiniteOML(data.elements, data.pairs, data.ortho, "0", "1")
        report = oml.verify_oml(lattice)
        state = oml.find_state(lattice)
        _names, rows = oml.state_constraints(lattice)
        residual = feasibility.check_point(rows, state.state) if state.feasible else None
        first, count = oml.find_two_valued_valuation(lattice, count_all=True)
        return report, state, rows, residual, first, count

    def check(result):
        report, state, rows, residual, first, count = result
        expect(report.ok, f"{data.name}: verify_oml rejects an OML: {report.failures[:3]}")
        expect(state.feasible == has_state, f"{data.name}: state feasible={state.feasible}")
        if has_state:
            tol = _tolerance(state.state)
            known.check_state(data, state.state, tol)
            expect(residual <= tol, f"{data.name}: check_point residual {residual}")
        else:
            expect(state.certificate is not None, f"{data.name}: infeasible without a certificate")
            expect(state.certificate.verify(rows), f"{data.name}: certificate.verify is False")
            known.check_certificate(rows, state.certificate)
        expected = known.two_valued_count(data)
        expect(count == expected, f"{data.name}: {count} two-valued valuations, expected {expected}")
        expect((first is None) == (expected == 0), f"{data.name}: first solution {first}")
        return data.name, state.feasible, count

    return Job(f"lattice/{data.name}", "lattice", run, check)


def _legal_search_job(data: known.LatticeData, exact: bool, pins: dict) -> Job:
    tables = functools.cache(lambda: known.tables(data))
    matrix = quantum.quantum_nmatrix(1.0)
    label = f"{data.name}/{'exact' if exact else 'float'}" + ("/pinned" if pins else "")

    def run():
        lattice = oml.FiniteOML(data.elements, data.pairs, data.ortho, "0", "1")
        return oml.legal_valuation_search(lattice, matrix, partial=pins, exact=exact)

    def check(result):
        expect(result.feasible == (not pins), f"{label}: feasible={result.feasible}")
        if result.feasible:
            known.check_legal(data, tables(), result.point, _tolerance(result.point))
        return label, result.feasible

    return Job(f"legal/{label}", "legal_exact" if exact else "legal_float", run, check)


def _ks_job(family: known.VectorFamily, known_count: int | None = None) -> Job:
    """``known_count`` is given for families with a proof of it; the others
    are counted by ``known.ks_count``."""
    expected = functools.cache(lambda: known.ks_count(family) if known_count is None else known_count)
    program_family = kscheck.VectorContextFamily(
        4, {vid: np.array(v, dtype=np.complex128) for vid, v in family.vectors.items()}, family.contexts
    )
    exhaustive = len(family.vectors) <= 20

    def run():
        first = kscheck.search_classical_valuation(program_family)
        total = kscheck.count_solutions(program_family)
        brute = kscheck.exhaustive_count(program_family) if exhaustive else None
        return first, total, brute

    def check(result):
        first, total, brute = result
        count = expected()
        expect(total == count, f"{family.name}: count_solutions {total}, expected {count}")
        expect(brute in (None, count), f"{family.name}: exhaustive_count {brute}, expected {count}")
        expect((first is None) == (count == 0), f"{family.name}: search returned {first}")
        if first is not None:
            known.check_ks_assignment(family, first)
        return family.name, total

    return Job(f"ks/{family.name}", "ks", run, check)


def lattice_search(seed: int, root: Path) -> Workload:
    rng = np.random.default_rng(seed)
    lattices = (
        [known.boolean(n) for n in BOOLEAN_ATOMS]
        + [known.mo(n) for n in MO_SIZES]
        + [known.chain(k) for k in CHAIN_BLOCKS]
    )
    jobs = [_lattice_job(data, True) for data in sorted(lattices, key=len)]
    jobs.append(_lattice_job(known.state_free(root), False))

    b3, b4, b5, c2, c8 = known.boolean(3), known.boolean(4), known.boolean(5), known.chain(2), known.chain(8)
    jobs += [
        _legal_search_job(b3, True, {}),
        _legal_search_job(b3, True, known.infeasible_pins(b3, rng)),
        _legal_search_job(c2, True, known.infeasible_pins(c2, rng)),
        _legal_search_job(c2, True, {}),
        _legal_search_job(b4, False, {}),
        _legal_search_job(b5, False, known.infeasible_pins(b5, rng)),
        _legal_search_job(b5, False, {}),
        _legal_search_job(c8, False, known.infeasible_pins(c8, rng)),
        _legal_search_job(c8, False, {}),
    ]

    peres = known.peres24()
    subs = [known.subfamily(peres, rng, KS_SUBFAMILY_VECTORS) for _ in range(KS_SUBFAMILIES)]
    jobs += [_ks_job(f) for f in subs]
    jobs += [_ks_job(known.ks18(root), 0), _ks_job(peres, 0)]
    return Workload(jobs, smallest_per_class(jobs))


# ---------------------------------------------------------------------------
# formula_dag: parser, closure, consequence engine and projector denotation

# each round-trip job samples its trees from one shared pool
ROUNDTRIP_JOBS, ROUNDTRIP_TREES, ROUNDTRIP_POOL, ROUNDTRIP_DEPTH = 8, 800, 2_000, 10
CHAIN_DEPTHS = range(100, 1001, 100)
DAG_SIZES = (100, 1_000, 3_000, 6_000, 10_000)
DAG_MAX_DEPTH = 250
CONSEQUENCE_SIZES = range(8, 17)
BRUTE_FORCE_LIMIT = 10
DENOTE_DIMS, DENOTE_STATES, DENOTE_CLOSURE, DENOTE_DEPTH = (6, 7, 8), 2, 60, 7
# the sequent shapes are fixed so every seed enumerates the same number of
# valuations; the seed renames atoms and mirrors commutative children
SHAPE_SEED = 1906_03413
# at the commit this benchmark was added on, parse/render recurse once per
# level and these chains exhaust the default recursion limit; they count in
# fail_frac, and one of them passing later is no error
DEEP_NESTING_FAILURES = frozenset(
    [f"nesting/{kind}-{depth}" for kind in ("disjunction", "parentheses") for depth in range(400, 1001, 100)]
    + [f"nesting/{kind}-1000" for kind in ("conjunction", "negation")]
)


def _random_tree(rnd: random.Random, atoms: list, depth: int):
    """Random formula over the given Atom objects, at most ``depth`` deep."""
    if depth == 0 or rnd.random() < 0.25:
        return rnd.choice(atoms)
    kind = rnd.random()
    if kind < 0.3:
        return Not(_random_tree(rnd, atoms, depth - 1))
    left, right = _random_tree(rnd, atoms, depth - 1), _random_tree(rnd, atoms, depth - 1)
    return And(left, right) if kind < 0.65 else Or(left, right)


def _formula_with_closure(rnd: random.Random, atoms: list, size: int, depth: float = float("inf")):
    """Random formula over all ``atoms`` with exactly ``size`` distinct
    subformulas.  Nodes at most ``depth`` deep are added over earlier ones,
    each a new structure; at the end the nodes that no other node uses are
    joined pairwise into the root, each join adding one subformula, so the
    total is known throughout."""
    nodes, unused = list(atoms), list(atoms)
    depths = dict.fromkeys(atoms, 0)
    while len(nodes) + len(unused) - 1 < size:
        x, y, kind = rnd.choice(nodes), rnd.choice(nodes), rnd.random()
        children = [x] if kind < 0.3 else [x, y]
        node = Not(x) if kind < 0.3 else And(x, y) if kind < 0.65 else Or(x, y)
        left = [u for u in unused if all(u is not c for c in children)]
        node_depth = 1 + max(depths[c] for c in children)
        if node in depths or node_depth > depth or len(nodes) + len(left) + 1 > size:
            continue
        nodes.append(node)
        depths[node] = node_depth
        unused = left + [node]
    while len(unused) > 1:
        x, y, *unused = unused
        unused.append(And(x, y) if rnd.random() < 0.5 else Or(x, y))
    return unused[0]


def _roundtrip_job(index: int, trees: list) -> Job:
    def run():
        return [formulas.parse(formulas.render(f)) for f in trees]

    def check(parsed):
        bad = sum(not known.same_tree(f, g) for f, g in zip(trees, parsed))
        expect(bad == 0, f"{bad} of {len(trees)} trees change in a round trip")
        return len(parsed)

    return Job(f"roundtrip/{index}", "roundtrip", run, check)


def _nesting_chains(rnd: random.Random, depth: int):
    """(kind, text, tree, rendered text) for four ways of nesting ``depth`` deep."""
    p = Atom(f"p{rnd.randrange(1000)}")
    names = [f"q{i}" for i in range(depth)]
    neg = p
    for _ in range(depth):
        neg = Not(neg)
    left = p
    for name in names:
        left = And(left, Atom(name))
    right, right_text = p, p.name
    for name in reversed(names):
        inner = right_text if isinstance(right, Atom) else f"({right_text})"
        right, right_text = Or(Atom(name), right), f"{name} | {inner}"
    return [
        ("negation", "!" * depth + p.name, neg, "!" * depth + p.name),
        ("parentheses", "(" * depth + p.name + ")" * depth, p, p.name),
        ("conjunction", " & ".join([p.name, *names]), left, " & ".join([p.name, *names])),
        ("disjunction", right_text, right, right_text),
    ]


def _chain_job(kind: str, depth: int, text: str, tree, rendered: str) -> Job:
    def run():
        parsed = formulas.parse(text)
        return parsed, formulas.render(parsed)

    def check(result):
        parsed, out = result
        expect(known.same_tree(parsed, tree), f"{kind} chain of depth {depth} parses wrongly")
        expect(out == rendered, f"{kind} chain of depth {depth} renders wrongly")
        return len(out)

    return Job(f"nesting/{kind}-{depth}", "nesting", run, check)


def _dag(rnd: random.Random, size: int):
    """Nodes op(parent, fresh leaf) with the parent drawn mostly from the
    latest nodes, so dependency chains grow up to DAG_MAX_DEPTH deep while
    early nodes stay shared by many later ones.  The fresh leaf makes every
    node structurally distinct."""
    pool = [Atom(f"x{i}") for i in range(16)]
    nodes, depth = [], []
    for i in range(size):
        leaf = Atom(f"y{i}")
        if not nodes or rnd.random() < 0.02:
            parent, d = rnd.choice(pool), 0
        else:
            j = len(nodes) - 1 - rnd.randrange(min(len(nodes), 4))
            while depth[j] >= DAG_MAX_DEPTH:
                j = rnd.randrange(len(nodes))
            parent, d = nodes[j], depth[j]
        kind = rnd.random()
        node = And(parent, leaf) if kind < 0.45 else Or(leaf, parent) if kind < 0.9 else Not(And(leaf, parent))
        nodes.append(node)
        depth.append(d + (2 if kind >= 0.9 else 1))
    return nodes[::-1]  # deepest first: closure walks the long chains


def _closure_job(roots: list) -> Job:
    expected = functools.cache(lambda: known.closure_size(roots))

    def run():
        return formulas.subformula_closure(roots)

    def check(closure):
        expect(len(closure) == expected(), f"closure has {len(closure)} nodes, expected {expected()}")
        position = {id(f): i for i, f in enumerate(closure)}
        expect(
            all(position[id(c)] < i for i, f in enumerate(closure) for c in known.kids(f)),
            "closure lists a parent before its child",
        )
        return len(closure)

    return Job(f"closure/{len(roots)}", "closure", run, check)


def _sequent_shapes():
    """For each closure size, A |- A|B (holds: a designated A makes A|B
    designated, row t of the disjunction table is {t}) and A, B |- A&B
    (fails: cell (t,t) of the conjunction table contains F).  A = a0|R and
    B = b0|S over disjoint atoms, so both can be t at once.  R over a1 and S
    over b1 have r and s subformulas, so the sequent has r + s + 5."""
    rnd = random.Random(SHAPE_SEED)
    a0, a1, b0, b1 = (Atom(n) for n in ("a0", "a1", "b0", "b1"))
    shapes = []
    for size in CONSEQUENCE_SIZES:
        for holds in (True, False):
            r = rnd.randint(1, size - 6)
            a = Or(a0, _formula_with_closure(rnd, [a1], r))
            b = Or(b0, _formula_with_closure(rnd, [b1], size - 5 - r))
            gamma, delta = ([a], [Or(a, b)]) if holds else ([a, b], [And(a, b)])
            shapes.append((size, holds, gamma, delta))
    return shapes


def _relabel(f, names: dict, rnd: random.Random, done: dict):
    """Rename atoms and mirror binary nodes at random, one choice per node."""
    if id(f) not in done:
        if isinstance(f, Atom):
            done[id(f)] = Atom(names[f.name])
        elif isinstance(f, Not):
            done[id(f)] = Not(_relabel(f.child, names, rnd, done))
        else:
            pair = [_relabel(f.left, names, rnd, done), _relabel(f.right, names, rnd, done)]
            done[id(f)] = type(f)(*(pair[::-1] if rnd.random() < 0.5 else pair))
    return done[id(f)]


def _consequence_job(size: int, holds: bool, gamma: list, delta: list) -> Job:
    matrix = nmatrix.three_valued_matrix()

    def run():
        return nmatrix.dynamic_consequence(matrix, gamma, delta)

    def check(result):
        expect(result.holds == holds, f"sequent of closure {size}: holds={result.holds}")
        if not holds:
            v = result.countermodel
            expect(
                all(matrix.is_designated(v[g]) for g in gamma)
                and not any(matrix.is_designated(v[d]) for d in delta),
                "countermodel does not refute the sequent",
            )
        return size, result.holds

    return Job(f"consequence/{size}-{'holds' if holds else 'fails'}", "consequence", run, check)


def _projector(rng, dim: int) -> np.ndarray:
    rank = int(rng.integers(1, dim))
    q, _ = np.linalg.qr(rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank)))
    p = q @ q.conj().T
    return (p + p.conj().T) / 2


def _density(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _denote_job(dim: int, shared: bool, atoms: dict, formula, states: list) -> Job:
    """Born valuations are legal for the sharp tables and respect the
    lattice order (the paper's soundness result); atom values are tr(rho P)."""
    matrix = quantum.quantum_nmatrix(1.0)

    def run():
        out = []
        bindings = quantum.ProjectorBindings(atoms)
        for rho in states:
            if not shared:
                bindings = quantum.ProjectorBindings(atoms)
            valuation = quantum.evaluate_state(rho, bindings, [formula])
            legal = nmatrix.is_dynamic_legal(valuation, matrix, bindings)
            order = quantum.order_preservation_check(valuation, bindings)
            out.append((valuation, legal, order))
        return out

    def check(out):
        for rho, (valuation, legal, order) in zip(states, out):
            expect(legal.ok, f"d{dim}: Born valuation illegal: {[str(v) for v in legal.violations[:2]]}")
            expect(order.ok, f"d{dim}: order violated: {[str(v) for v in order.violations[:2]]}")
            for name, p in atoms.items():
                born = float(np.real(np.trace(rho @ p)))
                expect(abs(valuation[Atom(name)] - born) <= 1e-9, f"d{dim}: v({name}) != tr(rho P)")
        return dim, len(out)

    return Job(f"denote/{'shared' if shared else 'fresh'}-d{dim}", f"denote_{'shared' if shared else 'fresh'}", run, check)


def formula_dag(seed: int, root: Path) -> Workload:
    rnd, rng = random.Random(seed), np.random.default_rng(seed)
    atoms = [Atom(n) for n in ("P", "Q", "R", "S", "T0", "U_1")]
    pool = [_random_tree(rnd, atoms, ROUNDTRIP_DEPTH) for _ in range(ROUNDTRIP_POOL)]
    jobs = [_roundtrip_job(i, rnd.sample(pool, ROUNDTRIP_TREES)) for i in range(ROUNDTRIP_JOBS)]
    for depth in CHAIN_DEPTHS:
        jobs += [_chain_job(kind, depth, *rest) for kind, *rest in _nesting_chains(rnd, depth)]
    jobs += [_closure_job(_dag(rnd, size)) for size in DAG_SIZES]

    sequents = []
    for size, holds, gamma, delta in _sequent_shapes():
        names = {n: f"{n[0]}{rnd.randrange(10**6)}" for n in ("a0", "a1", "b0", "b1")}
        done: dict = {}
        sequents.append((size, holds, [_relabel(f, names, rnd, done) for f in gamma], [_relabel(f, names, rnd, done) for f in delta]))
    jobs += [_consequence_job(*s) for s in sequents]

    for shared in (True, False):
        for dim in DENOTE_DIMS:
            projectors = {name: _projector(rng, dim) for name in ("A", "B", "C")}
            formula = _formula_with_closure(rnd, [Atom(n) for n in projectors], DENOTE_CLOSURE, DENOTE_DEPTH)
            states = [_density(rng, dim) for _ in range(DENOTE_STATES)]
            jobs.append(_denote_job(dim, shared, projectors, formula, states))

    def selfcheck():
        matrix = nmatrix.three_valued_matrix()
        for size, holds, gamma, delta in sequents:
            if size <= BRUTE_FORCE_LIMIT:
                got = demo.brute_force_consequence(matrix, gamma, delta)
                expect(got == holds, f"brute force disagrees with the table-row answer at closure {size}")

    return Workload(jobs, smallest_per_class(jobs), selfcheck, DEEP_NESTING_FAILURES)
