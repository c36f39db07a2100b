import random
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import collapse_label, empty_negation_tables, is_orthogonal, leq, random_density, random_projector
from qnsem import hilbert
from qnsem.formulas import And, Atom, Not, Or, parse, subformula_closure
from qnsem.linalg import DimensionMismatch, InvariantViolation, NotHermitian
from qnsem.nmatrix import (
    AMBIGUOUS,
    ANY,
    DESIGNATED,
    NON_ORTHOGONAL,
    ORTHOGONAL,
    IntervalNMatrix,
    LegalityReport,
    LegalityViolation,
    RelationOracle,
    Valuation,
    _ADEQUACY_CLAUSES,
    adequacy_check,
    is_dynamic_legal,
    is_static,
)
from qnsem.quantum import (
    CAP_AND,
    DETERMINISTIC_NOT,
    NEGATION_VARIANTS,
    ORTHOGONAL_AND,
    ORTHOGONAL_OR,
    SPAN_OR,
    OrderReport,
    OrderViolation,
    ProjectorBindings,
    born_legality_mask,
    double_negation_chain,
    dynamic_witness,
    evaluate_state,
    negation_set,
    order_preservation_check,
    quantum_nmatrix,
    static_violation_witness,
    three_valued_collapse,
    two_valued_collapse,
)
from qnsem.valuesets import OPEN_SHIFT, interval, interval_union

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

P, Q = Atom("P"), Atom("Q")


# ---------------------------------------------------------------------------
# tables

# The IntervalRule contract: lo and hi are monotone in each argument, which
# is what makes ``hull`` (corner evaluations) the exact union over a box.
ALPHAS = (0.55, 0.6, 0.75, 0.9, 0.99)
GRID = np.linspace(0.0, 1.0, 41)


def _every_rule():
    """(label, rule) for every rule of the shipped interval tables."""
    matrices = [quantum_nmatrix(1.0), quantum_nmatrix(0.7), quantum_nmatrix(0.7, "neg1")]
    matrices += [quantum_nmatrix(a, "neg2") for a in ALPHAS]
    rules = {}  # the relation-split rules are shared objects: test each once
    for m in matrices:
        for conn, table in m.tables.items():
            for case, rule in table.items():
                rules.setdefault(id(rule), (f"{m.name} {conn}[{case}]", rule))
    return list(rules.values())


def _array_matches_scalars(rule):
    """The bounds act elementwise: an array of inputs gives, entry by entry,
    exactly the value of each scalar input."""
    args = [GRID] if rule.arity == 1 else [a.ravel() for a in np.meshgrid(GRID, GRID)]
    for bound in (rule.lo, rule.hi):
        got = np.broadcast_to(bound(*args), args[0].shape)
        want = [bound(*(float(a[i]) for a in args)) for i in range(args[0].size)]
        if not np.array_equal(got, want):
            return False
    return True


def _monotone(values, eps=1e-12):
    steps = np.diff(values)
    return bool(np.all(steps >= -eps) or np.all(steps <= eps))


@pytest.mark.parametrize("label,rule", _every_rule())
def test_interval_rule_contract(label, rule):
    for bound in (rule.lo, rule.hi):
        if rule.arity == 1:
            assert _monotone([bound(x) for x in GRID]), label
            continue
        for fixed in GRID:
            assert _monotone([bound(x, fixed) for x in GRID]), (label, "left", fixed)
            assert _monotone([bound(fixed, y) for y in GRID]), (label, "right", fixed)
    # the hull over a random box contains every sampled inner output
    rng = np.random.default_rng(0)
    for _ in range(40):
        boxes = [tuple(sorted(rng.uniform(0.0, 1.0, 2))) for _ in range(rule.arity)]
        lo, hi = rule.hull(*boxes)
        for _ in range(20):
            x = [rng.uniform(a, b) for a, b in boxes]
            assert lo - 1e-12 <= max(0.0, rule.lo(*x)), (label, boxes, x)
            assert min(1.0, rule.hi(*x)) <= hi + 1e-12, (label, boxes, x)
        # reports print these, so no numpy scalar may leak into them
        assert all(type(v) is float for v in (lo, hi)), label
    assert all(type(v) is float for v in rule.value_set(*(1.0,) * rule.arity).segments[0]), label
    assert _array_matches_scalars(rule), label


def test_quantum_rules_at_sharp_threshold():
    m = quantum_nmatrix(1.0)
    or_orth = m.tables["or"][ORTHOGONAL]
    assert or_orth.value_set(0.3, 0.2).segments == ((0.5, 0.5),)
    and_span = m.tables["and"][NON_ORTHOGONAL]
    assert and_span.value_set(0.6, 0.4).segments == ((0.0, 0.4),)
    neg = m.cell("not", (0.3,))
    assert neg.contains(0.7) and neg.segments[0][0] == neg.segments[0][1]


def test_orthogonal_disjunction_is_capped():
    m = quantum_nmatrix(1.0)
    assert m.tables["or"][ORTHOGONAL].value_set(0.8, 0.7).segments == ((1.0, 1.0),)


def test_parameter_validation():
    with pytest.raises(ValueError):
        quantum_nmatrix(0.0)
    with pytest.raises(ValueError):
        quantum_nmatrix(1.2)
    with pytest.raises(ValueError, match="neg2"):
        quantum_nmatrix(1.0, "neg2")
    with pytest.raises(ValueError, match="unknown negation"):
        quantum_nmatrix(1.0, "neg3")


def test_negation_variants():
    designated = negation_set("neg1", 0.8, 0.9)
    assert designated.segments == ((0.0, 1 - 0.9),)
    undesignated = negation_set("neg1", 0.9, 0.8)
    assert undesignated.lo == pytest.approx(0.2, abs=1e-12)
    assert undesignated.hi == 1.0


def test_neg2_wellformed_over_parameter_grid():
    for alpha in np.linspace(0.51, 0.99, 25):
        for a in np.linspace(0.0, 1.0, 41):
            vs = negation_set("neg2", float(alpha), float(a))
            assert vs.segments
            lo, hi = vs.lo, vs.hi
            assert 0.0 <= lo <= hi <= 1.0
            if a >= alpha:  # designated inputs map strictly below the threshold
                assert hi < alpha
            else:
                assert lo >= alpha - 1e-12


# ---------------------------------------------------------------------------
# Born valuations


def test_evaluate_state_eigenstate():
    e = [hilbert.basis_vector(2, i) for i in range(2)]
    p = hilbert.projector_from_span([e[0]])
    bindings = ProjectorBindings({"P": p})
    rho = np.outer(e[0], e[0].conj())
    v = evaluate_state(rho, bindings, [P])
    assert v[P] == pytest.approx(1.0, abs=1e-12)


def test_evaluate_state_witness_values():
    w = static_violation_witness()
    v = w.valuation
    assert v[Atom("P")] == pytest.approx(0.0, abs=1e-12)
    assert v[Atom("Q")] == pytest.approx(0.5, abs=1e-12)
    assert v[w.first] == pytest.approx(1.0, abs=1e-12)
    assert v[Atom("Pp")] == pytest.approx(0.0, abs=1e-12)
    assert v[Atom("Qp")] == pytest.approx(0.5, abs=1e-12)
    assert v[w.second] == pytest.approx(0.5, abs=1e-12)


def test_evaluate_state_unbound_atom():
    bindings = ProjectorBindings({"P": np.diag([1.0, 0.0]).astype(complex)})
    with pytest.raises(ValueError, match="unbound atom"):
        evaluate_state(np.diag([1.0, 0.0]).astype(complex), bindings, [Atom("R")])


def test_bindings_reject_mixed_dimensions():
    with pytest.raises(ValueError, match="dimensions"):
        ProjectorBindings(
            {"P": np.diag([1.0, 0.0]).astype(complex), "Q": np.eye(3, dtype=complex)}
        )


def test_oracle_classification_with_borderline_pair():
    e = [hilbert.basis_vector(2, i) for i in range(2)]
    tilt = 5e-9 * e[0] + np.sqrt(1 - 25e-18) * e[1]
    bindings = ProjectorBindings(
        {
            "P": hilbert.projector_from_span([e[0]]),
            "Q": hilbert.projector_from_span([tilt]),
            "R": hilbert.projector_from_span([e[1]]),
        }
    )
    assert bindings.classify(Atom("P"), Atom("R")) == ORTHOGONAL
    assert bindings.classify(Atom("P"), Atom("Q")) == AMBIGUOUS
    wide = 0.3 * e[0] + np.sqrt(1 - 0.09) * e[1]
    bindings2 = ProjectorBindings(
        {"P": hilbert.projector_from_span([e[0]]), "Q": hilbert.projector_from_span([wide])}
    )
    assert bindings2.classify(Atom("P"), Atom("Q")) == NON_ORTHOGONAL


# ---------------------------------------------------------------------------
# counterexamples


def test_dynamic_witness_default_values():
    w = dynamic_witness()
    assert w.pair(P) == (pytest.approx(0.5, abs=1e-12), pytest.approx(0.5, abs=1e-12))
    assert w.pair(Q) == (pytest.approx(0.5, abs=1e-12), pytest.approx(0.5, abs=1e-12))
    assert w.pair(And(P, Q)) == (pytest.approx(0.25, abs=1e-12), pytest.approx(0.125, abs=1e-12))
    assert w.pair(Or(P, Q)) == (pytest.approx(0.75, abs=1e-12), pytest.approx(0.875, abs=1e-12))


def test_dynamic_witness_legality():
    w = dynamic_witness()
    m = quantum_nmatrix(1.0)
    assert is_dynamic_legal(w.valuation, m, w.bindings).ok
    assert is_dynamic_legal(w.valuation_shifted, m, w.bindings).ok


def test_static_witness_flags_exactly_one_pair():
    w = static_violation_witness()
    report = is_static(w.valuation)
    assert len(report.violations) == 1
    assert {report.violations[0].first, report.violations[0].second} == {w.first, w.second}
    assert is_dynamic_legal(w.valuation, quantum_nmatrix(1.0), w.bindings).ok


# ---------------------------------------------------------------------------
# order preservation


def test_order_preservation_random_nested(rng):
    from qnsem.quantum import order_preservation_check

    for _ in range(1000):
        dim = int(rng.integers(2, 5))
        p = random_projector(rng, dim)
        q = hilbert.join(p, random_projector(rng, dim))
        rho = random_density(rng, dim)
        assert hilbert.born(rho, p) <= hilbert.born(rho, q) + 1e-9


def test_order_preservation_report(rng):
    from qnsem.quantum import order_preservation_check

    e = [hilbert.basis_vector(3, i) for i in range(3)]
    bindings = ProjectorBindings(
        {
            "P": hilbert.projector_from_span([e[0]]),
            "Q": hilbert.projector_from_span([e[0], e[1]]),
            "R": hilbert.projector_from_span([e[2]]),
            "Z": np.zeros((3, 3), complex),
        }
    )
    rho = random_density(rng, 3)
    formulas = [Atom("P"), Atom("Q"), Atom("R"), Atom("Z")]
    valuation = evaluate_state(rho, bindings, formulas)
    report = order_preservation_check(valuation, bindings)
    assert report.ok
    assert report.comparable_pairs > 0 and report.orthogonal_pairs > 0
    # the zero projector sits below everything
    assert valuation[Atom("Z")] == 0.0


# ---------------------------------------------------------------------------
# double negation


def order_check_oracle(valuation, bindings, tol=1e-9):
    """The order check one pair at a time, through conftest.leq and
    is_orthogonal: the oracle of the stacked rows."""
    domain = valuation.domain()
    violations, comparable, orthogonal = [], 0, 0
    for f in domain:
        for g in domain:
            if f is not g and leq(bindings.denote(f), bindings.denote(g), tol):
                comparable += 1
                if valuation[f] > valuation[g] + tol:
                    violations.append(OrderViolation(f, g, "order", f"{valuation[f]} > {valuation[g]}"))
    for i, f in enumerate(domain):
        for g in domain[i + 1 :]:
            if is_orthogonal(bindings.denote(f), bindings.denote(g), tol):
                orthogonal += 1
                total = valuation[f] + valuation[g]
                if total > 1.0 + tol:
                    violations.append(
                        OrderViolation(f, g, "orthogonal-sum", f"{valuation[f]} + {valuation[g]} = {total} > 1")
                    )
    return OrderReport(tuple(violations), comparable, orthogonal)


def test_order_check_matches_per_pair_oracle():
    import workloads

    rnd, rng = random.Random(0), np.random.default_rng(0)
    for dim in (2, 3, 4, 6):
        atoms = {name: random_projector(rng, dim) for name in ("A", "B", "C")}
        formula = workloads._formula_with_closure(rnd, [Atom(n) for n in atoms], 30, 6)
        bindings = ProjectorBindings(atoms)
        born = evaluate_state(random_density(rng, dim), bindings, [formula])
        # random values break the order and the orthogonal sums: the
        # violations must come out the same and in the same order
        scrambled = Valuation({f: float(rng.random()) for f in born.domain()})
        for valuation in (born, scrambled):
            report = order_preservation_check(valuation, bindings)
            assert report == order_check_oracle(valuation, bindings)
            assert report.comparable_pairs > 0 and report.orthogonal_pairs > 0
        assert report.violations and {v.kind for v in report.violations} == {"order", "orthogonal-sum"}
    assert order_preservation_check(Valuation({}), bindings) == OrderReport((), 0, 0)


def test_double_negation_chain_example():
    report = double_negation_chain(0.9, 0.95, 0.02)
    assert report.chain == (0.0, 0.02, pytest.approx(0.05), 0.9, 0.95, 0.98, 1.0)
    assert report.chain_holds and report.stays_designated
    assert report.second_negation.lo == pytest.approx(0.98)


def test_double_negation_chain_validation():
    with pytest.raises(ValueError, match="alpha"):
        double_negation_chain(0.4, 0.5, 0.1)
    with pytest.raises(ValueError, match="designated"):
        double_negation_chain(0.9, 0.5, 0.1)
    with pytest.raises(ValueError, match="negation set"):
        double_negation_chain(0.9, 0.95, 0.5)


def test_double_negation_sampled(rng):
    for _ in range(1000):
        alpha = 0.5 + 0.499999 * rng.random() + 1e-9
        a = alpha + (1.0 - alpha) * rng.random()
        b = (1.0 - a) * rng.random()
        report = double_negation_chain(alpha, a, b)
        assert report.chain_holds and report.stays_designated


def test_nondesignated_negation_straddles_threshold():
    vs = negation_set("neg1", 0.9, 0.8)
    assert vs.contains(0.95) and vs.contains(0.3)  # both sides of 0.9


def test_deterministic_negation_involution():
    vs = negation_set("deterministic", 1.0, 0.3)
    inner = vs.lo
    back = negation_set("deterministic", 1.0, inner)
    assert back.lo == pytest.approx(0.3, abs=1e-12) and back.lo == back.hi


# ---------------------------------------------------------------------------
# adequacy


def test_quantum_adequacy_witness():
    report = adequacy_check(quantum_nmatrix(1.0))
    assert not report.adequate
    assert any(
        v.connective == "or" and v.case == "orthogonal" and v.witness == (0.5, 0.5)
        for v in report.violations
    )
    assert any(v.connective == "and" for v in report.violations)


@pytest.mark.parametrize("alpha", [1.0, 0.9, 0.75, 0.6, 0.5])
def test_adequacy_reports_every_escaping_hull(alpha):
    # one violation per (clause, case) whose hull over the clause's input
    # region escapes the target side, each with a witness whose cell
    # escapes it too: no failing hull check goes unreported
    regions = {True: (alpha, 1.0), False: (0.0, alpha - OPEN_SHIFT), None: (0.0, 1.0)}
    for negation in NEGATION_VARIANTS:
        if negation == "neg2" and not 0.5 < alpha < 1.0:
            continue
        m = quantum_nmatrix(alpha, negation)
        report = adequacy_check(m)
        targets, failing, checked = {}, [], 0
        for conn, clauses in _ADEQUACY_CLAUSES.items():
            for pattern, designated, text in clauses:
                target = m.designated_set() if designated else m.undesignated_set()
                targets[conn, text] = target
                for case, rule in sorted(m.tables[conn].items()):
                    checked += 1
                    lo, hi = rule.hull(regions[pattern[0]], regions[pattern[1]])
                    if not interval(lo, hi).subset_of(target):
                        failing.append((conn, text, case))
        assert report.clauses_checked == checked
        assert [(v.connective, v.clause, v.case) for v in report.violations] == failing
        for v in report.violations:
            assert not m.tables[v.connective][v.case].value_set(*v.witness).subset_of(targets[v.connective, v.clause])


# ---------------------------------------------------------------------------
# collapse maps


def test_collapse_labels():
    three = three_valued_collapse()
    assert [collapse_label(three, x) for x in (1.0, 0.0, 0.5)] == ["t", "F", "T"]
    two = two_valued_collapse()
    assert [collapse_label(two, x) for x in (1.0, 0.0, 0.5)] == ["t", "F", "F"]


def test_legality_sweep_small(rng):
    m = quantum_nmatrix(1.0)
    formulas = [P, Q, Not(P), Not(Q), And(P, Q), Or(P, Q)]
    for dim in (2, 3, 4, 5):
        for _ in range(60):
            bindings = ProjectorBindings(
                {
                    "P": random_projector(rng, dim),
                    "Q": random_projector(rng, dim),
                }
            )
            rho = random_density(rng, dim)
            valuation = evaluate_state(rho, bindings, formulas)
            report = is_dynamic_legal(valuation, m, bindings)
            assert report.ok, report.violations


# ---------------------------------------------------------------------------
# stacked legality against the per-trial path

SWEEP = [P, Q, Not(P), Not(Q), And(P, Q), Or(P, Q)]
DEEPER = SWEEP + [Not(And(P, Not(Q))), Or(Not(P), And(Q, Not(P)))]


def governing_cells(matrix, conn, args, case=None, tol=1e-9):
    """Value sets of the rules of ``matrix.tables[conn]`` that govern the
    scalar inputs ``args`` under the relation case ``case`` (None for a
    negation), selected straight from the table keys: the reference for
    the case decision ``IntervalNMatrix`` makes."""
    cells = []
    for key, rule in matrix.tables[conn].items():
        if key == ANY:
            governs = True
        elif key in (ORTHOGONAL, NON_ORTHOGONAL):
            governs = case in (key, AMBIGUOUS)
        else:
            governs = (args[0] >= matrix.alpha - tol) == (key == DESIGNATED)
        if governs:
            cells.append(rule.value_set(*args))
    return cells


def reference_legality(valuation, matrix, oracle, tol=1e-9):
    """The scalar interval branch of ``is_dynamic_legal`` as it read before
    the case decision moved into ``IntervalNMatrix``: cells from
    ``governing_cells``, membership by ``IntervalUnion.contains``."""
    values = dict(valuation.values if isinstance(valuation, Valuation) else valuation)
    unit = interval(0.0, 1.0)
    violations, ambiguous, checked = [], [], 0
    for f, v in values.items():
        if isinstance(f, Atom):
            if not unit.contains(float(v), tol):
                violations.append(LegalityViolation(f, v, unit))
            continue
        checked += 1
        if isinstance(f, Not):
            conn, args, case = "not", (float(values[f.child]),), None
        else:
            conn, case = ("and" if isinstance(f, And) else "or"), oracle.classify(f.left, f.right)
            if case == AMBIGUOUS:
                ambiguous.append((f.left, f.right))
            args = (float(values[f.left]), float(values[f.right]))
        cells = governing_cells(matrix, conn, args, case, tol)
        if not any(cell.contains(float(v), tol) for cell in cells):
            expected = interval_union([seg for cell in cells for seg in cell.segments])
            violations.append(LegalityViolation(f, v, expected, case))
    return LegalityReport(tuple(violations), tuple(ambiguous), checked)


def per_trial_verdicts(rho, atoms, formulas, matrix, tol=1e-9):
    """The oracle: evaluate_state and reference_legality, one trial at a time."""
    verdicts = []
    for t in range(len(rho)):
        bindings = ProjectorBindings({name: stack[t] for name, stack in atoms.items()}, tol)
        valuation = evaluate_state(rho[t], bindings, formulas, tol)
        verdicts.append(reference_legality(valuation, matrix, bindings, tol).ok)
    return np.array(verdicts)


class RandomRelations(RelationOracle):
    """Draws each pair's relation case once, ambiguous included."""

    def __init__(self, rnd):
        self.rnd, self.cases = rnd, {}

    def classify(self, left, right):
        key = (left, right)
        if key not in self.cases:
            self.cases[key] = self.rnd.choice((ORTHOGONAL, NON_ORTHOGONAL, AMBIGUOUS))
        return self.cases[key]


def _random_formula(rnd, depth):
    if depth == 0 or rnd.random() < 0.25:
        return Atom(rnd.choice("PQR"))
    kind = rnd.choice((Not, And, Or))
    if kind is Not:
        return Not(_random_formula(rnd, depth - 1))
    return kind(_random_formula(rnd, depth - 1), _random_formula(rnd, depth - 1))


def _random_valuation(rnd, matrix, oracle, tol):
    """Values on the closure of three random formulas.  Atoms, and a few
    compounds, take any value, often on the threshold or within the
    tolerance below it; the other compounds take an inner point or an end
    of a governing cell, or an end moved outward by half the tolerance
    (legal) or, rarely, by twice the tolerance (illegal)."""
    values = {}
    specials = (0.0, 1.0, matrix.alpha, matrix.alpha - tol / 2, matrix.alpha - 2 * tol, 0.5)
    for f in subformula_closure([_random_formula(rnd, 4) for _ in range(3)]):
        values[f] = rnd.choice(specials) if rnd.random() < 0.4 else rnd.random()
        if isinstance(f, Atom) or rnd.random() < 0.03:
            continue
        if isinstance(f, Not):
            conn, args, case = "not", (values[f.child],), None
        else:
            conn, case = ("and" if isinstance(f, And) else "or"), oracle.classify(f.left, f.right)
            args = (values[f.left], values[f.right])
        try:
            cells = governing_cells(matrix, conn, args, case, tol)
        except ValueError:  # an empty cell: both checks must raise
            continue
        if cells:
            lo, hi = rnd.choice(cells).segments[0]
            end, outward = rnd.choice(((lo, -tol), (hi, tol)))
            pick = rnd.choice((lo + (hi - lo) * rnd.random(), end, end + outward / 2))
            if rnd.random() < 0.03:
                pick = end + 2 * outward
            values[f] = min(1.0, max(0.0, pick))
    return values


def test_dynamic_legality_matches_reference():
    tol = 1e-9
    matrices = [quantum_nmatrix(1.0), quantum_nmatrix(0.7), quantum_nmatrix(0.7, "neg1")]
    matrices += [quantum_nmatrix(a, "neg2") for a in ALPHAS]
    matrices += [empty_negation_tables(a) for a in (0.3, 0.6)]
    rnd = random.Random(11)
    legal = illegal = empty = 0
    for matrix in matrices:
        for _ in range(40):
            oracle = RandomRelations(random.Random(rnd.random()))
            valuation = _random_valuation(rnd, matrix, oracle, tol)
            try:
                want = reference_legality(valuation, matrix, oracle, tol)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    is_dynamic_legal(valuation, matrix, oracle, tol)
                assert str(got.value) == str(exc), matrix.name
                empty += 1
                continue
            report = is_dynamic_legal(valuation, matrix, oracle, tol)
            # same violations in the same order, with the same expected
            # sets and cases, the same ambiguous pairs and count
            assert report == want, matrix.name
            legal += report.ok
            illegal += not report.ok
    assert legal > 100 and illegal > 100 and empty > 0, (legal, illegal, empty)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_stacked_verdict_matches_per_trial(dim):
    rng = np.random.default_rng(dim)
    p, q, rho = hilbert.random_stacks(rng, dim, 100, ("projector", "projector", "density"))
    atoms = {"P": p, "Q": q}
    # the sharp tables and a relation-keyed table with a designation-keyed
    # negation
    for matrix, all_legal in (
        (quantum_nmatrix(1.0), True),
        (quantum_nmatrix(0.55, "neg2"), False),
    ):
        for formulas in (SWEEP, DEEPER):
            mask = born_legality_mask(rho, atoms, formulas, matrix)
            assert mask.dtype == bool and mask.shape == (100,)
            assert np.array_equal(mask, per_trial_verdicts(rho, atoms, formulas, matrix)), matrix.name
            assert mask.all() == all_legal, matrix.name


def test_stacked_verdict_inside_ambiguity_band():
    # rank-one P, Q whose product has max-norm ~eps: orthogonal below tol,
    # ambiguous in (tol, 10 tol], non-orthogonal above.  In the band,
    # v(P|Q) misses the orthogonal cell {a+b} by 2 eps / 3 > tol, so the
    # verdict is legal only because an ambiguous pair may take either cell.
    tol = 1e-9
    e = np.eye(3, dtype=complex)
    epsilons = (5e-10, 2e-9, 5e-9, 9e-9, 5e-8)
    ps, qs, rho = [], [], []
    for eps in epsilons:
        tilt = eps * e[0] + np.sqrt(1 - eps**2) * e[1]
        for sign in (1, -1):
            psi = (e[0] + sign * e[1] + e[2]) / np.sqrt(3)
            ps.append(np.outer(e[0], e[0]))
            qs.append(np.outer(tilt, tilt.conj()))
            rho.append(np.outer(psi, psi.conj()))
    atoms = {"P": np.array(ps), "Q": np.array(qs)}
    rho = np.array(rho)
    matrix = quantum_nmatrix(1.0)
    mask = born_legality_mask(rho, atoms, SWEEP, matrix)
    assert mask.all()
    assert np.array_equal(mask, per_trial_verdicts(rho, atoms, SWEEP, matrix, tol))
    cases, fits_orthogonal = [], []
    for t in range(len(rho)):
        bindings = ProjectorBindings({"P": ps[t], "Q": qs[t]}, tol)
        v = evaluate_state(rho[t], bindings, SWEEP, tol)
        cases.append(bindings.classify(P, Q))
        cell = matrix.tables["or"][ORTHOGONAL].value_set(v[P], v[Q])
        fits_orthogonal.append(cell.contains(v[Or(P, Q)], tol))
    assert cases == [ORTHOGONAL] * 2 + [AMBIGUOUS] * 6 + [NON_ORTHOGONAL] * 2
    assert fits_orthogonal[2:8] == [False] * 6
    # tables with the relation cells swapped: the shipped orthogonal cells
    # sit inside the non-orthogonal ones, so only swapped cells show that
    # each pair is checked against the cell of its own relation
    swapped = IntervalNMatrix(
        1.0,
        {
            "or": {ORTHOGONAL: SPAN_OR, NON_ORTHOGONAL: ORTHOGONAL_OR},
            "and": {ORTHOGONAL: CAP_AND, NON_ORTHOGONAL: ORTHOGONAL_AND},
            "not": {ANY: DETERMINISTIC_NOT},
        },
    )
    mask = born_legality_mask(rho, atoms, SWEEP, swapped)
    assert mask.tolist() == [True] * 8 + [False] * 2
    assert np.array_equal(mask, per_trial_verdicts(rho, atoms, SWEEP, swapped, tol))


def test_stacked_legality_refuses_bad_slices():
    rng = np.random.default_rng(7)
    p, q, rho = hilbert.random_stacks(rng, 3, 5, ("projector", "projector", "density"))
    m = quantum_nmatrix(1.0)
    # a non-projector, and a non-density, anywhere in the stack
    bad = p.copy()
    bad[3] = np.diag([0.5, 0.0, 0.0])
    with pytest.raises(InvariantViolation, match=r"not a projector at slice \(3,\)"):
        born_legality_mask(rho, {"P": bad, "Q": q}, SWEEP, m)
    with pytest.raises(InvariantViolation, match="not a projector"):
        ProjectorBindings({"P": bad[3], "Q": q[3]})
    bad = rho.copy()
    bad[1] = np.eye(3)
    with pytest.raises(InvariantViolation, match=r"not a density operator at slice \(1,\)"):
        born_legality_mask(bad, {"P": p, "Q": q}, SWEEP, m)
    with pytest.raises(InvariantViolation, match="not a density operator"):
        evaluate_state(bad[1], ProjectorBindings({"P": p[1], "Q": q[1]}), SWEEP)
    # trace 1 + 5e-8 passes the density check (tolerance 1e-7) but gives a
    # Born value above 1 + tol on the identity
    bad, one = rho.copy(), p.copy()
    bad[2], one[2] = np.eye(3) * (1 + 5e-8) / 3, np.eye(3)
    with pytest.raises(InvariantViolation, match="Born value"):
        born_legality_mask(bad, {"P": one, "Q": q}, SWEEP, m)
    with pytest.raises(InvariantViolation, match="Born value"):
        evaluate_state(bad[2], ProjectorBindings({"P": one[2], "Q": q[2]}), SWEEP)
    # at tol 1e-5 an asymmetry of 8e-6 passes the projector check, but
    # meet(P, P) = kernel of 2I - 2P doubles it past the kernel's guard
    skew = np.diag([1.0, 0.0, 0.0]).astype(complex)
    skew[0, 1] = 8e-6
    with pytest.raises(NotHermitian):
        evaluate_state(rho[4], ProjectorBindings({"P": skew, "Q": skew}, 1e-5), SWEEP, 1e-5)
    # stacks of different lengths or dimensions
    with pytest.raises(DimensionMismatch):
        born_legality_mask(rho, {"P": p[:4], "Q": q[:4]}, SWEEP, m)
    with pytest.raises(DimensionMismatch):
        born_legality_mask(rho[0], {"P": p[0], "Q": q[0]}, SWEEP, m)
