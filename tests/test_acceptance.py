"""Acceptance suite: one test per contractual criterion, each printing a
pass/fail line with its runtime.  Tolerances are pinned here and nowhere
else; run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import functools
import itertools
import time

import numpy as np
import pytest

from qnsem import fixtures, hilbert, kscheck, oml
from qnsem.formulas import And, Atom, Not, Or, parse, render, subformula_closure
from qnsem.nmatrix import (
    FiniteNMatrix,
    ThresholdMap,
    adequacy_check,
    classical_matrix,
    dynamic_consequence,
    is_dynamic_legal,
    is_static,
    three_valued_matrix,
    two_valued_matrix,
    verify_rexpansion,
)
from qnsem.quantum import (
    ProjectorBindings,
    double_negation_chain,
    dynamic_witness,
    evaluate_state,
    negation_set,
    quantum_nmatrix,
    static_violation_witness,
    three_valued_collapse,
    two_valued_collapse,
)

P, Q = Atom("P"), Atom("Q")


def criterion(number, title, seconds_limit):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number:02d} {title}: FAIL")
                raise
            elapsed = time.perf_counter() - start
            assert elapsed < seconds_limit, f"runtime {elapsed:.2f}s exceeds {seconds_limit}s"
            print(f"ACCEPTANCE {number:02d} {title}: PASS ({elapsed:.2f}s)")

        return wrapper

    return decorate


@criterion(1, "static-violation reproduction (dim 3)", 1.0)
def test_criterion_01_static_violation():
    w = static_violation_witness()
    v = w.valuation
    tol = 1e-12
    assert abs(v[Atom("P")] - 0.0) <= tol
    assert abs(v[Atom("Q")] - 0.5) <= tol
    assert abs(v[w.first] - 1.0) <= tol
    assert abs(v[Atom("Pp")] - 0.0) <= tol
    assert abs(v[Atom("Qp")] - 0.5) <= tol
    assert abs(v[w.second] - 0.5) <= tol
    report = is_static(v)
    assert len(report.violations) == 1
    assert {report.violations[0].first, report.violations[0].second} == {w.first, w.second}


@criterion(2, "dynamic-witness reproduction (dim 4)", 1.0)
def test_criterion_02_dynamic_witness():
    w = dynamic_witness(weights=(0.25, 0.25, 0.25, 0.25), eps=0.125)
    tol = 1e-12
    for formula, expected, expected_eps in (
        (P, 0.5, 0.5),
        (Q, 0.5, 0.5),
        (And(P, Q), 0.25, 0.125),
        (Or(P, Q), 0.75, 0.875),
    ):
        a, b = w.pair(formula)
        assert abs(a - expected) <= tol
        assert abs(b - expected_eps) <= tol
    m = quantum_nmatrix(1.0)
    assert is_dynamic_legal(w.valuation, m, w.bindings).ok
    assert is_dynamic_legal(w.valuation_shifted, m, w.bindings).ok


@criterion(3, "quantum-state legality sweep (1000 per dim 2..5)", 30.0)
def test_criterion_03_legality_sweep():
    rng = np.random.default_rng(0)
    m = quantum_nmatrix(1.0)
    formulas = [P, Q, Not(P), Not(Q), And(P, Q), Or(P, Q)]
    violations = 0
    for dim in (2, 3, 4, 5):
        for _ in range(1000):
            bindings = ProjectorBindings(
                {
                    "P": hilbert.random_projector(rng, dim),
                    "Q": hilbert.random_projector(rng, dim),
                }
            )
            rho = hilbert.random_density(rng, dim)
            valuation = evaluate_state(rho, bindings, formulas)
            if not is_dynamic_legal(valuation, m, bindings, tol=1e-9).ok:
                violations += 1
    assert violations == 0


@criterion(4, "lattice-law suite (1000 pairs per dim 2..6)", 60.0)
def test_criterion_04_lattice_laws():
    rng = np.random.default_rng(1)
    bound = 1e-8
    for dim in (2, 3, 4, 5, 6):
        for _ in range(1000):
            p = hilbert.random_projector(rng, dim)
            q = hilbert.random_projector(rng, dim)
            absorption = hilbert.join(p, hilbert.meet(p, q))
            assert float(np.max(np.abs(absorption - p))) <= bound
            de_morgan_left = hilbert.ortho(hilbert.join(p, q))
            de_morgan_right = hilbert.meet(hilbert.ortho(p), hilbert.ortho(q))
            assert float(np.max(np.abs(de_morgan_left - de_morgan_right))) <= bound
            small = hilbert.meet(p, q)
            big = hilbert.join(small, hilbert.random_projector(rng, dim))
            rebuilt = hilbert.join(small, hilbert.meet(big, hilbert.ortho(small)))
            assert float(np.max(np.abs(big - rebuilt))) <= bound


@criterion(5, "Kochen-Specker obstruction (18 vectors, dim 4)", 10.0)
def test_criterion_05_ks_obstruction():
    family = fixtures.ks18()
    assert kscheck.verify_contexts(family).ok
    assert kscheck.search_classical_valuation(family) is None
    assert kscheck.exhaustive_count(family) == 0
    single = fixtures.single_context_dim3()
    assert kscheck.count_solutions(single) == 3
    assert kscheck.exhaustive_count(single) == 3
    assert kscheck.search_classical_valuation(single) is not None


def _vectorized_cav_count(lattice):
    """Independent enumeration over all two-valued assignments."""
    meet, join = lattice._bound_tables()
    n = len(lattice.elements)
    bits = ((np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1).astype(np.int8)
    ok = (bits[:, lattice.bottom] == 0) & (bits[:, lattice.top] == 1)
    ok &= (bits[:, lattice.ortho] == 1 - bits).all(axis=1)
    for i in range(n):
        for j in range(i, n):
            ok &= bits[:, meet[i, j]] == np.minimum(bits[:, i], bits[:, j])
            ok &= bits[:, join[i, j]] == np.maximum(bits[:, i], bits[:, j])
    return int(ok.sum())


@criterion(6, "two-valued valuations on Boolean algebras", 5.0)
def test_criterion_06_cav_boolean():
    for n in (2, 3, 4):
        lattice = oml.boolean_lattice(n)
        _, count = oml.find_two_valued_valuation(lattice, count_all=True)
        assert count == n
        assert count == _vectorized_cav_count(lattice)


@criterion(7, "adequacy verdicts (sharp tables vs classical)", 5.0)
def test_criterion_07_adequacy():
    report = adequacy_check(quantum_nmatrix(1.0))
    assert not report.adequate
    assert any(
        v.connective == "or" and v.case == "orthogonal" and v.witness == (0.5, 0.5)
        for v in report.violations
    )
    assert adequacy_check(classical_matrix()).adequate


@criterion(8, "rexpansion verification with collapse maps", 30.0)
def test_criterion_08_rexpansion():
    m2 = quantum_nmatrix(1.0)
    assert verify_rexpansion(three_valued_matrix(), m2, three_valued_collapse()).ok
    assert verify_rexpansion(two_valued_matrix(), m2, two_valued_collapse()).ok
    corrupted = ThresholdMap((("F", 1.0, 1.0), ("F", 0.0, 0.0), ("T", 0.0, 1.0)))
    report = verify_rexpansion(three_valued_matrix(), m2, corrupted)
    assert any(issue.condition == 1 for issue in report.issues)


@criterion(9, "double-negation ordering chain", 10.0)
def test_criterion_09_double_negation():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        alpha = 0.5 + 0.499999998 * rng.random() + 1e-9
        a = alpha + (1.0 - alpha) * rng.random()
        b = (1.0 - a) * rng.random()
        report = double_negation_chain(alpha, a, b)
        assert report.chain_holds  # exact comparisons, no tolerance
        assert report.stays_designated
    instance = negation_set("neg1", 0.9, 0.8)
    assert abs(instance.lo - 0.2) <= 1e-12
    assert instance.hi == 1.0


def _all_depth2_pool():
    atoms = [P, Q]
    depth1 = list(atoms)
    for a in atoms:
        depth1.append(Not(a))
    for a in atoms:
        for b in atoms:
            depth1.append(And(a, b))
            depth1.append(Or(a, b))
    extra = [
        Not(And(P, Q)),
        Not(Or(P, Q)),
        Not(Not(P)),
        And(P, Or(P, Q)),
        Or(And(P, Q), Q),
        And(Or(P, Q), Or(Q, P)),
        Or(Not(P), Q),
        And(P, Not(Q)),
    ]
    return depth1 + extra


def _oracle_consequence(m, gamma, delta):
    closure = subformula_closure(list(gamma) + list(delta))
    for combo in itertools.product(m.values, repeat=len(closure)):
        v = dict(zip(closure, combo))
        legal = True
        for f in closure:
            if isinstance(f, Not):
                legal = v[f] in m.cell("not", (v[f.child],)).labels
            elif isinstance(f, And):
                legal = v[f] in m.cell("and", (v[f.left], v[f.right])).labels
            elif isinstance(f, Or):
                legal = v[f] in m.cell("or", (v[f.left], v[f.right])).labels
            if not legal:
                break
        if not legal:
            continue
        if all(v[g] in m.designated for g in gamma) and not any(
            v[d] in m.designated for d in delta
        ):
            return False
    return True


@criterion(10, "consequence engine vs brute-force oracle", 30.0)
def test_criterion_10_consequence_oracle():
    m = three_valued_matrix()
    pool = _all_depth2_pool()
    sequents = [([g], [d]) for g in pool for d in pool]
    pairs = list(itertools.combinations(pool[:7], 2))
    sequents += [([a, b], [pool[5]]) for a, b in pairs]
    sequents += [([pool[0]], [a, b]) for a, b in pairs]
    assert len(sequents) >= 300
    held = 0
    for gamma, delta in sequents:
        fast = dynamic_consequence(m, gamma, delta).holds
        assert fast == _oracle_consequence(m, gamma, delta), (
            [render(g) for g in gamma],
            [render(d) for d in delta],
        )
        held += fast
    assert 0 < held < len(sequents)


@criterion(11, "state feasibility and the state-free fixture", 60.0)
def test_criterion_11_state_feasibility():
    for lattice in (oml.boolean_lattice(2), oml.boolean_lattice(3), oml.mo2()):
        result = oml.find_state(lattice)
        assert result.feasible
        assert result.residual == 0.0  # exact arithmetic path
        assert oml.verify_general_state(lattice, result.state) <= 1e-9
    grid = fixtures.nostate_lattice()
    assert oml.verify_oml(grid).ok
    result = oml.find_state(grid)
    assert not result.feasible
    assert result.certificate is not None
    _, rows = oml.state_constraints(grid)
    assert result.certificate.verify(rows)


@criterion(12, "parser round trip on 10^4 seeded formulas", 30.0)
def test_criterion_12_parser_roundtrip():
    rng = np.random.default_rng(3)
    atom_names = ["P", "Q", "R", "S", "T0", "U_1"]

    def random_formula(depth):
        if depth == 0 or rng.random() < 0.3:
            return Atom(atom_names[int(rng.integers(len(atom_names)))])
        kind = rng.random()
        if kind < 0.34:
            return Not(random_formula(depth - 1))
        left = random_formula(depth - 1)
        right = random_formula(depth - 1)
        return And(left, right) if kind < 0.67 else Or(left, right)

    for _ in range(10_000):
        f = random_formula(int(rng.integers(1, 9)))
        assert parse(render(f)) == f
