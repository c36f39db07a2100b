"""End-to-end reproduction report: every worked example and property suite
the package is contractually expected to reproduce, each with its expected
value, computed value, and residual.

The default parameters match the acceptance thresholds; the CLI exposes this
as ``qnsem demo paper`` and exits nonzero when any section fails.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field

import numpy as np

from . import fixtures, hilbert, kscheck, oml
from .formulas import And, Atom, Not, Or, parse, render
from .linalg import max_norm
from .nmatrix import (
    FiniteNMatrix,
    classical_matrix,
    adequacy_check,
    dynamic_consequence,
    is_dynamic_legal,
    is_static,
    three_valued_matrix,
    two_valued_matrix,
    verify_rexpansion,
    ThresholdMap,
)
from .quantum import (
    born_legality_mask,
    double_negation_chain,
    dynamic_witness,
    negation_set,
    quantum_nmatrix,
    static_violation_witness,
    three_valued_collapse,
    two_valued_collapse,
)


@dataclass
class CheckLine:
    label: str
    expected: str
    computed: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol

    def as_json(self) -> dict:
        return {
            "label": self.label,
            "expected": self.expected,
            "computed": self.computed,
            "residual": self.residual,
            "tolerance": self.tol,
            "passed": self.passed,
        }


@dataclass
class Section:
    name: str
    lines: list[CheckLine] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(line.passed for line in self.lines)

    def check_value(self, label: str, expected: float, computed: float, tol: float):
        self.lines.append(
            CheckLine(label, repr(expected), repr(computed), abs(computed - expected), tol)
        )

    def check_flag(self, label: str, expected: bool, computed: bool):
        self.lines.append(
            CheckLine(label, str(expected), str(computed), 0.0 if expected == computed else 1.0, 0.0)
        )

    def as_json(self) -> dict:
        # timing is deliberately excluded: json output must be byte-identical
        # across runs for a fixed seed
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": [line.as_json() for line in self.lines],
        }


def _timed(fn):
    def wrapper(*args, **kwargs) -> Section:
        start = time.perf_counter()
        section = fn(*args, **kwargs)
        section.seconds = time.perf_counter() - start
        return section

    return wrapper


# ---------------------------------------------------------------------------
# sections


@_timed
def section_static_witness() -> Section:
    s = Section("static composability counterexample (dim 3)")
    w = static_violation_witness()
    v = w.valuation
    p, q = Atom("P"), Atom("Q")
    pp, qp = Atom("Pp"), Atom("Qp")
    tol = 1e-12
    s.check_value("v(P)", 0.0, v[p], tol)
    s.check_value("v(Q)", 0.5, v[q], tol)
    s.check_value("v(P|Q)", 1.0, v[w.first], tol)
    s.check_value("v(P')", 0.0, v[pp], tol)
    s.check_value("v(Q')", 0.5, v[qp], tol)
    s.check_value("v(P'|Q')", 0.5, v[w.second], tol)
    report = is_static(v)
    s.check_flag("exactly one composability violation", True, len(report.violations) == 1)
    if report.violations:
        pair = {report.violations[0].first, report.violations[0].second}
        s.check_flag("violating pair is the two disjunctions", True, pair == {w.first, w.second})
    legal = is_dynamic_legal(v, quantum_nmatrix(1.0), oracle=w.bindings)
    s.check_flag("valuation is dynamically legal", True, legal.ok)
    return s


@_timed
def section_dynamic_witness() -> Section:
    s = Section("dynamic non-determinism witness (dim 4)")
    w = dynamic_witness()
    p, q = Atom("P"), Atom("Q")
    tol = 1e-12
    for label, formula, want, want_eps in (
        ("P", p, 0.5, 0.5),
        ("Q", q, 0.5, 0.5),
        ("P&Q", And(p, q), 0.25, 0.125),
        ("P|Q", Or(p, q), 0.75, 0.875),
    ):
        a, b = w.pair(formula)
        s.check_value(f"v({label})", want, a, tol)
        s.check_value(f"v_eps({label})", want_eps, b, tol)
    m = quantum_nmatrix(1.0)
    s.check_flag("base valuation legal", True, is_dynamic_legal(w.valuation, m, w.bindings).ok)
    s.check_flag(
        "shifted valuation legal", True, is_dynamic_legal(w.valuation_shifted, m, w.bindings).ok
    )
    return s


@_timed
def section_legality_sweep(trials: int = 1000, seed: int = 0) -> Section:
    s = Section("Born valuations are dynamically legal (random sweep)")
    rng = np.random.default_rng(seed)
    m = quantum_nmatrix(1.0)
    p, q = Atom("P"), Atom("Q")
    formulas = [p, q, Not(p), Not(q), And(p, q), Or(p, q)]
    for dim in (2, 3, 4, 5):
        # each trial draws P, Q, rho in this order; the closure is then
        # evaluated once over the whole stack
        ps, qs, rho = hilbert.random_stacks(rng, dim, trials, ("projector", "projector", "density"))
        legal = born_legality_mask(rho, {"P": ps, "Q": qs}, formulas, m)
        violations = int(np.count_nonzero(~legal))
        s.check_value(f"dim {dim}: illegal valuations among {trials}", 0.0, float(violations), 0.0)
    return s


@_timed
def section_lattice_laws(trials: int = 1000, seed: int = 0) -> Section:
    s = Section("projection-lattice law suite (random sweep)")
    rng = np.random.default_rng(seed)
    tol = 1e-8
    for dim in (2, 3, 4, 5, 6):
        # each trial draws p, q, r in this order; every law is then one
        # kernel call per operation on the whole stack
        p, q, r = hilbert.random_stacks(rng, dim, trials, ("projector",) * 3)
        small = hilbert.meet(p, q)
        big = hilbert.join(small, r)
        # drop each stack once spent: at dim 6 a stack is 0.6 MB, and holding
        # them all would make this section set the demo's peak memory
        del r
        inner = hilbert.meet(big, hilbert.ortho(small))
        worst = {"orthomodular": max_norm(big - hilbert.join(small, inner))}
        del big, inner
        worst["absorption"] = max_norm(hilbert.join(p, small) - p)
        worst["de_morgan"] = max_norm(
            hilbert.ortho(hilbert.join(p, q)) - hilbert.meet(hilbert.ortho(p), hilbert.ortho(q))
        )
        for law, value in worst.items():
            s.check_value(f"dim {dim}: {law} residual", 0.0, value, tol)
    return s


@_timed
def section_ks_obstruction() -> Section:
    s = Section("no classical truth-valued function on the bundled vector family")
    family = fixtures.ks18()
    report = kscheck.verify_contexts(family)
    s.check_flag("fixture contexts verified", True, report.ok)
    s.check_flag("backtracking verdict UNSAT", True, kscheck.search_classical_valuation(family) is None)
    s.check_value("exhaustive assignment count", 0.0, float(kscheck.exhaustive_count(family)), 0.0)
    single = fixtures.single_context_dim3()
    s.check_value("single-context solutions", 3.0, float(kscheck.count_solutions(single)), 0.0)
    s.check_value(
        "single-context exhaustive count", 3.0, float(kscheck.exhaustive_count(single)), 0.0
    )
    return s


@_timed
def section_cav_boolean() -> Section:
    s = Section("two-valued valuations on Boolean algebras")
    for n in (2, 3, 4):
        lattice = oml.boolean_lattice(n)
        first, count = oml.find_two_valued_valuation(lattice, count_all=True)
        s.check_value(f"Boolean 2^{n}: solution count", float(n), float(count), 0.0)
        s.check_flag(f"Boolean 2^{n}: a solution exists", True, first is not None)
    mo2_first, mo2_count = oml.find_two_valued_valuation(oml.mo2(), count_all=True)
    s.check_value("MO2: solution count", 0.0, float(mo2_count), 0.0)
    return s


@_timed
def section_adequacy() -> Section:
    s = Section("adequacy of the sharp tables vs the classical matrix")
    report = adequacy_check(quantum_nmatrix(1.0))
    s.check_flag("sharp tables inadequate", True, not report.adequate)
    witness = next(
        (
            v
            for v in report.violations
            if v.connective == "or" and v.case == "orthogonal" and v.witness == (0.5, 0.5)
        ),
        None,
    )
    s.check_flag("disjunction clause violated at a=b=1/2 (orthogonal case)", True, witness is not None)
    s.check_flag("classical matrix adequate", True, adequacy_check(classical_matrix()).adequate)
    three = adequacy_check(three_valued_matrix())
    s.check_flag(
        "three-valued conjunction clause violated at (t,t)",
        True,
        any(v.connective == "and" and v.witness == ("t", "t") for v in three.violations),
    )
    return s


@_timed
def section_rexpansion() -> Section:
    s = Section("collapse maps onto the finite matrices")
    m2 = quantum_nmatrix(1.0)
    r3 = verify_rexpansion(three_valued_matrix(), m2, three_valued_collapse())
    s.check_flag("three-valued collapse passes", True, r3.ok)
    r2 = verify_rexpansion(two_valued_matrix(), m2, two_valued_collapse())
    s.check_flag("two-valued collapse passes", True, r2.ok)
    corrupted = ThresholdMap((("F", 1.0, 1.0), ("F", 0.0, 0.0), ("T", 0.0, 1.0)))
    bad = verify_rexpansion(three_valued_matrix(), m2, corrupted)
    s.check_flag(
        "corrupted map fails the designation condition",
        True,
        any(issue.condition == 1 for issue in bad.issues),
    )
    return s


@_timed
def section_double_negation(trials: int = 1000, seed: int = 0) -> Section:
    s = Section("double negation ordering chain")
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(trials):
        alpha = 0.5 + 0.5 * rng.random()
        if alpha <= 0.5:
            alpha = 0.5 + 1e-9
        a = alpha + (1.0 - alpha) * rng.random()
        b = (1.0 - a) * rng.random()
        report = double_negation_chain(alpha, a, b)
        if not report.ok:
            failures += 1
    s.check_value(f"chain failures among {trials}", 0.0, float(failures), 0.0)
    instance = negation_set("neg1", 0.9, 0.8)
    s.check_value("first negation of 0.8 at threshold 0.9: lower end", 0.2, instance.lo, 1e-12)
    s.check_value("first negation of 0.8 at threshold 0.9: upper end", 1.0, instance.hi, 1e-12)
    involution = negation_set("deterministic", 1.0, 0.3)
    s.check_value("deterministic double negation returns the input", 0.3, 1.0 - involution.lo, 1e-12)
    return s


def _consequence_pool() -> list:
    p, q = Atom("P"), Atom("Q")
    depth1 = [p, q, Not(p), Not(q), And(p, q), Or(p, q), And(q, p), Or(q, p)]
    depth2 = [
        Not(And(p, q)),
        Not(Or(p, q)),
        Not(Not(p)),
        And(p, Or(p, q)),
        Or(And(p, q), q),
        Or(p, And(q, p)),
        And(Or(p, q), Or(q, p)),
        Or(Not(p), q),
        And(p, Not(q)),
        And(Not(p), Not(q)),
    ]
    return depth1 + depth2


def _consequence_sequents() -> list[tuple[list, list]]:
    """The 380 sequents of the consequence section: every pair of pool
    formulas, then two premises or two conclusions from the depth-1 pool."""
    pool = _consequence_pool()
    pairs = list(itertools.combinations(pool[:8], 2))
    sequents = [([g], [d]) for g in pool for d in pool]
    sequents += [([a, b], [pool[4]]) for a, b in pairs[:40]]
    sequents += [([pool[0]], [a, b]) for a, b in pairs[:40]]
    return sequents


# rows of one enumeration chunk in brute_force_consequence: its index grid
# holds at most log_|V|(rows) columns of rows indices, under 200 KB
_GRID_ROWS = 3**7


def brute_force_consequence(m: FiniteNMatrix, gamma, delta) -> bool:
    """Independent oracle: enumerate every function from the closure to V,
    at most ``_GRID_ROWS`` at a time as an ``np.indices`` grid over the last
    closure positions (the leading ones by cartesian product), and filter the
    legal ones through boolean lookup arrays read off the table cells."""
    from .formulas import subformula_closure

    closure = subformula_closure(list(gamma) + list(delta))
    at = {f: i for i, f in enumerate(closure)}
    n, k = len(closure), len(m.values)
    allowed = {}  # allowed[conn][*args, value]: is value in the cell of args
    for conn, arity in (("not", 1), ("and", 2), ("or", 2)):
        if conn in m.tables:
            cells = [m.cell(conn, args).labels for args in itertools.product(m.values, repeat=arity)]
            allowed[conn] = np.array([[x in c for x in m.values] for c in cells]).reshape((k,) * (arity + 1))
    designated = np.array([v in m.designated for v in m.values])
    tail = 0
    while tail < n and k ** (tail + 1) <= _GRID_ROWS:
        tail += 1
    grid = list(np.indices((k,) * tail).reshape(tail, k**tail))
    for head in itertools.product(range(k), repeat=n - tail):
        v = list(head) + grid  # v[i]: the value index of closure[i], per row
        legal = np.ones(k**tail, dtype=bool)
        for i, f in enumerate(closure):
            if isinstance(f, Not):
                legal &= allowed["not"][v[at[f.child]], v[i]]
            elif isinstance(f, And):
                legal &= allowed["and"][v[at[f.left]], v[at[f.right]], v[i]]
            elif isinstance(f, Or):
                legal &= allowed["or"][v[at[f.left]], v[at[f.right]], v[i]]
        for g in gamma:
            legal &= designated[v[at[g]]]
        for d in delta:
            legal &= ~designated[v[at[d]]]
        if legal.any():  # a legal valuation designating gamma and no conclusion
            return False
    return True


@_timed
def section_consequence_oracle() -> Section:
    s = Section("consequence engine agrees with brute-force enumeration")
    m = three_valued_matrix()
    sequents = _consequence_sequents()
    disagreements = 0
    holds = 0
    for gamma, delta in sequents:
        fast = dynamic_consequence(m, gamma, delta).holds
        slow = brute_force_consequence(m, gamma, delta)
        if fast != slow:
            disagreements += 1
        holds += fast
    s.check_value(f"disagreements over {len(sequents)} sequents", 0.0, float(disagreements), 0.0)
    s.check_flag("some sequents hold and some fail", True, 0 < holds < len(sequents))
    return s


@_timed
def section_state_feasibility() -> Section:
    s = Section("state space feasibility (Boolean, MO2, state-free fixture)")
    for label, lattice in (("Boolean 2^3", oml.boolean_lattice(3)), ("MO2", oml.mo2())):
        result = oml.find_state(lattice)
        s.check_flag(f"{label}: state found", True, result.feasible)
        if result.feasible:
            s.check_value(f"{label}: constraint residual", 0.0, result.residual, 0.0)
    lattice = fixtures.nostate_lattice()
    s.check_flag("state-free fixture verifies as an OML", True, oml.verify_oml(lattice).ok)
    result = oml.find_state(lattice)
    s.check_flag("state-free fixture infeasible", True, not result.feasible)
    names, rows = oml.state_constraints(lattice)
    s.check_flag(
        "infeasibility certificate verifies",
        True,
        result.certificate is not None and result.certificate.verify(rows),
    )
    return s


@_timed
def section_parser_roundtrip(count: int = 10_000, seed: int = 0) -> Section:
    """Render and re-parse ``count`` random formulas of depth 1..8, drawn
    with the stdlib ``random.Random(seed)``."""
    s = Section("parser and printer round trip")
    rnd = random.Random(seed)
    atoms = [Atom(name) for name in ("P", "Q", "R", "S", "T0", "U_1")]

    def random_formula(depth: int):
        if depth == 0 or rnd.random() < 0.3:
            return rnd.choice(atoms)
        kind = rnd.random()
        if kind < 0.34:
            return Not(random_formula(depth - 1))
        left = random_formula(depth - 1)
        right = random_formula(depth - 1)
        return And(left, right) if kind < 0.67 else Or(left, right)

    failures = 0
    for _ in range(count):
        f = random_formula(rnd.randint(1, 8))
        if parse(render(f)) != f:
            failures += 1
    s.check_value(f"round-trip failures among {count}", 0.0, float(failures), 0.0)
    return s


def run_all(seed: int = 0, trials: int = 1000, roundtrips: int = 10_000) -> list[Section]:
    """Run every reproduction section with the acceptance-grade parameters:
    ``trials`` random cases per property suite (numpy draws) and
    ``roundtrips`` random formulas through the parser (stdlib draws)."""
    return [
        section_static_witness(),
        section_dynamic_witness(),
        section_legality_sweep(trials=trials, seed=seed),
        section_lattice_laws(trials=trials, seed=seed),
        section_ks_obstruction(),
        section_cav_boolean(),
        section_adequacy(),
        section_rexpansion(),
        section_double_negation(trials=trials, seed=seed),
        section_consequence_oracle(),
        section_state_feasibility(),
        section_parser_roundtrip(count=roundtrips, seed=seed),
    ]
