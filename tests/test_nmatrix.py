import inspect
import itertools
import random
import sys

import numpy as np
import pytest

from qnsem import cli
from qnsem.formulas import And, Atom, Not, Or, children, parse, subformula_closure
from qnsem.nmatrix import (
    AMBIGUOUS,
    ANY,
    CONNECTIVE_ARITY,
    ConsequenceResult,
    DESIGNATED,
    UNDESIGNATED,
    NON_ORTHOGONAL,
    ORTHOGONAL,
    FiniteNMatrix,
    IntervalNMatrix,
    RelationOracle,
    RexpansionIssue,
    ThresholdMap,
    Valuation,
    adequacy_check,
    classical_matrix,
    dynamic_consequence,
    f_expansion,
    is_deterministic,
    is_dynamic_legal,
    is_dynamically_valid,
    is_refinement,
    is_static,
    three_valued_matrix,
    two_valued_matrix,
    verify_rexpansion,
    _ValueNetwork,
    _ordered_domain,
)
from qnsem.quantum import adequate_restricted_tables, quantum_nmatrix, three_valued_collapse
from qnsem.valuesets import FiniteValues, finite

P, Q = Atom("P"), Atom("Q")


class FixedOracle(RelationOracle):
    """Relation oracle with an explicit pair table, for tests."""

    def __init__(self, pairs, default=NON_ORTHOGONAL):
        self.pairs = {frozenset(k): v for k, v in pairs.items()}
        self.default = default

    def classify(self, left, right):
        return self.pairs.get(frozenset((left, right)), self.default)


# ---------------------------------------------------------------------------
# construction and serialization


def test_matrix_validation(write_json, capsys):
    with pytest.raises(ValueError, match="designated"):
        FiniteNMatrix(("t", "F"), frozenset({"t", "F"}), classical_matrix().tables)
    with pytest.raises(ValueError, match="cells"):
        m = classical_matrix()
        broken = dict(m.tables)
        broken["or"] = {("t", "t"): m.cell("or", ("t", "t"))}
        FiniteNMatrix(m.values, m.designated, broken)
    # implication is not a connective of the formula language
    with_imp = classical_matrix().to_json()
    with_imp["tables"]["imp"] = {"t,t": ["t"], "t,F": ["F"], "F,t": ["t"], "F,F": ["t"]}
    with pytest.raises(ValueError, match="unknown connective 'imp'"):
        FiniteNMatrix.from_json(with_imp)
    assert cli.main(["adequacy", "--matrix", write_json("imp.json", with_imp)]) == 2
    assert "unknown connective 'imp'" in capsys.readouterr().err


def test_json_roundtrip():
    m = three_valued_matrix()
    back = FiniteNMatrix.from_json(m.to_json())
    assert back.values == m.values
    assert back.designated == m.designated
    for conn, table in m.tables.items():
        for key, cell in table.items():
            assert back.cell(conn, key).labels == cell.labels


# ---------------------------------------------------------------------------
# legality and the composability check


def test_dynamic_legal_deterministic_negation():
    m = quantum_nmatrix(1.0)
    v = {P: 1.0, Not(P): 0.0}
    report = is_dynamic_legal(v, m, oracle=FixedOracle({}))
    assert report.ok


def test_dynamic_legal_orthogonal_sum():
    m = quantum_nmatrix(1.0)
    oracle = FixedOracle({(P, Q): ORTHOGONAL})
    good = {P: 0.5, Q: 0.5, Or(P, Q): 1.0}
    assert is_dynamic_legal(good, m, oracle).ok
    bad = {P: 0.5, Q: 0.5, Or(P, Q): 0.9}
    report = is_dynamic_legal(bad, m, oracle)
    assert not report.ok
    assert report.violations[0].formula == Or(P, Q)


def test_dynamic_legal_requires_oracle():
    with pytest.raises(ValueError, match="oracle"):
        is_dynamic_legal({P: 0.4, Q: 0.2, And(P, Q): 0.1}, quantum_nmatrix(1.0))


def test_dynamic_legal_ambiguous_pairs_accept_either_case():
    m = quantum_nmatrix(1.0)
    oracle = FixedOracle({(P, Q): AMBIGUOUS})
    v = {P: 0.5, Q: 0.5, Or(P, Q): 1.0}
    report = is_dynamic_legal(v, m, oracle)
    assert report.ok and report.ambiguous == ((P, Q),)


@pytest.mark.parametrize("x, legal_not", [(1 + 1e-10, 0.0), (-1e-10, 1.0)])
def test_dynamic_legal_inputs_just_outside_the_unit_interval(x, legal_not):
    # atoms within tol of [0,1] are legal, and the cells they select may lie
    # just outside it: the report names the violation instead of raising
    m = quantum_nmatrix(1.0)
    assert is_dynamic_legal({P: x, Not(P): legal_not}, m).ok
    report = is_dynamic_legal({P: x, Not(P): 0.5}, m)
    assert [v.formula for v in report.violations] == [Not(P)]
    assert report.violations[0].expected.segments == ((legal_not, legal_not),)
    oracle = FixedOracle({(P, Q): ORTHOGONAL})
    assert is_dynamic_legal({P: x, Q: 0.0, Or(P, Q): 1.0 - legal_not}, m, oracle).ok
    report = is_dynamic_legal({P: x, Q: 0.0, Or(P, Q): 0.5}, m, oracle)
    assert [v.formula for v in report.violations] == [Or(P, Q)]


def test_empty_interval_rule_still_raises():
    # the designated-designated conjunction cell [alpha, min(a, b)] is empty
    # when an input sits just below the threshold
    m = adequate_restricted_tables(0.5)
    with pytest.raises(ValueError, match=r"rule '.*' is empty at"):
        m.cell("and", (0.5 - 1e-10, 0.8))


def test_dynamic_legal_finite_matrix():
    m = three_valued_matrix()
    v = {P: "t", Q: "F", Or(P, Q): "t"}
    assert is_dynamic_legal(v, m).ok
    v = {P: "t", Q: "F", Or(P, Q): "F"}
    assert not is_dynamic_legal(v, m).ok


def test_valuation_closure_enforced():
    with pytest.raises(ValueError, match="closed under subformulas"):
        Valuation({Or(P, Q): "t"})


def test_static_vacuous_and_deterministic():
    v = {P: 0.3, Q: 0.6, Or(P, Q): 0.9, And(P, Q): 0.1}
    assert is_static(v).ok  # only one disjunction, one conjunction: no pairs
    m = classical_matrix()
    for valuation in enumerate_dynamic_valuations(m, [parse("P|Q"), parse("Q|P"), parse("P&Q")]):
        assert is_static(valuation.values).ok


def test_static_flags_equal_component_pairs():
    v = {P: 0.0, Q: 0.5, Atom("R"): 0.0, Atom("S"): 0.5,
         Or(P, Q): 1.0, Or(Atom("R"), Atom("S")): 0.5}
    report = is_static(v)
    assert len(report.violations) == 1
    assert {report.violations[0].first, report.violations[0].second} == {
        Or(P, Q), Or(Atom("R"), Atom("S"))
    }


# ---------------------------------------------------------------------------
# enumeration, validity, consequence


def enumerate_dynamic_valuations(m, formulas):
    """Yield exactly the legal dynamic valuations on the subformula closure:
    the oracle the countermodel search is checked against.

    Atoms range over V in lexicographic name order; each compound ranges over
    its table cell in closure (children-first) order, so the enumeration is
    deterministic.
    """
    domain = _ordered_domain(formulas)
    assignment = {}

    def options(f):
        if isinstance(f, Atom):
            return list(m.values)
        if isinstance(f, Not):
            return m.cell_values_ordered(m.cell("not", (assignment[f.child],)))
        conn = "and" if isinstance(f, And) else "or"
        return m.cell_values_ordered(m.cell(conn, (assignment[f.left], assignment[f.right])))

    if not domain:
        yield Valuation({})
        return
    # one iterator over the options of each assigned prefix of the domain
    stack = [iter(options(domain[0]))]
    done = object()
    while stack:
        f = domain[len(stack) - 1]
        v = next(stack[-1], done)
        if v is done:
            stack.pop()
            assignment.pop(f, None)
            continue
        assignment[f] = v
        if len(stack) == len(domain):
            yield Valuation(dict(assignment))
        else:
            stack.append(iter(options(domain[len(stack)])))


def test_enumeration_counts():
    m = three_valued_matrix()
    assert len(list(enumerate_dynamic_valuations(m, [P]))) == 3
    assert len(list(enumerate_dynamic_valuations(m, [Not(P)]))) == 3
    both_false = [
        v
        for v in enumerate_dynamic_valuations(m, [Or(P, Q)])
        if v[P] == "F" and v[Q] == "F"
    ]
    assert len(both_false) == 3  # the (F,F) disjunction cell has three members


def test_enumeration_is_deterministic():
    m = three_valued_matrix()
    runs = [
        [tuple(v.values.items()) for v in enumerate_dynamic_valuations(m, [parse("P|Q&!P")])]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_consequence_reflexivity_and_basics():
    m = three_valued_matrix()
    assert dynamic_consequence(m, [P], [P]).holds
    empty_premise = dynamic_consequence(m, [], [P])
    assert not empty_premise.holds
    assert empty_premise.countermodel[P] not in m.designated
    assert dynamic_consequence(m, [P], [Or(P, Q)]).holds  # designated row is {t}


def test_consequence_empty_conclusion_convention():
    m = classical_matrix()
    assert not dynamic_consequence(m, [P], []).holds
    assert dynamic_consequence(m, [P, Not(P)], []).holds  # premises have no model


def test_consequence_monotonicity():
    m = three_valued_matrix()
    pool = [P, Q, Not(P), Or(P, Q), And(P, Q)]
    held = [
        (g, d)
        for g in pool
        for d in pool
        if dynamic_consequence(m, [g], [d]).holds
    ]
    assert held
    for g, d in held[:10]:
        for extra_g, extra_d in itertools.product(pool[:3], pool[:3]):
            assert dynamic_consequence(m, [g, extra_g], [d, extra_d]).holds


def enumerated_consequence(m, gamma, delta):
    """The consequence check the countermodel search replaced: every legal
    valuation in enumeration order, filtered by designation."""
    gamma, delta = list(gamma), list(delta)
    for v in enumerate_dynamic_valuations(m, gamma + delta):
        if all(m.is_designated(v[g]) for g in gamma):
            if not any(m.is_designated(v[d]) for d in delta):
                return ConsequenceResult(False, v)
    return ConsequenceResult(True, None)


def assert_same_consequence(m, gamma, delta):
    got, want = dynamic_consequence(m, gamma, delta), enumerated_consequence(m, gamma, delta)
    assert got.holds == want.holds
    if not want.holds:
        assert list(got.countermodel.items()) == list(want.countermodel.items())
    return got.holds


def _empty_cell() -> FiniteValues:
    """A cell with no values.  ``finite()`` refuses one; the search must
    still agree with the enumeration, which yields nothing through it."""
    cell = object.__new__(FiniteValues)
    object.__setattr__(cell, "labels", frozenset())
    return cell


def _random_matrix(rnd, n_values: int) -> FiniteNMatrix:
    values = tuple("abcde"[:n_values])
    designated = frozenset(rnd.sample(values, rnd.randint(1, n_values - 1)))
    tables = {}
    for conn, arity in CONNECTIVE_ARITY.items():
        tables[conn] = {
            key: _empty_cell() if rnd.random() < 0.08 else finite(*rnd.sample(values, rnd.randint(1, n_values)))
            for key in itertools.product(values, repeat=arity)
        }
    return FiniteNMatrix(values, designated, tables, name="random")


def _random_formula(rnd, atoms, pool, size: int):
    """A formula of at most ``size`` connectives over ``atoms`` that reuses
    members of ``pool`` (and adds its own subformulas to it), so sequents
    share subformulas and repeat atoms."""
    if size == 0 or rnd.random() < 0.2:
        return rnd.choice(pool) if pool and rnd.random() < 0.4 else rnd.choice(atoms)
    if rnd.random() < 0.3:
        f = Not(_random_formula(rnd, atoms, pool, size - 1))
    else:
        cut = rnd.randint(0, size - 1)
        left = _random_formula(rnd, atoms, pool, cut)
        f = rnd.choice((And, Or))(left, _random_formula(rnd, atoms, pool, size - 1 - cut))
    pool.append(f)
    return f


def test_consequence_search_matches_enumeration():
    rnd = random.Random(20261018)
    matrices = [classical_matrix(), two_valued_matrix(), three_valued_matrix()]
    matrices += [_random_matrix(rnd, n) for n in (2, 2, 3, 3, 3, 4)]
    atoms = [P, Q, Atom("R")]
    outcomes, shared = set(), 0
    for m in matrices:
        for _ in range(60):
            pool: list = []
            gamma = [_random_formula(rnd, atoms, pool, rnd.randint(0, 4)) for _ in range(rnd.randint(0, 2))]
            delta = [_random_formula(rnd, atoms, pool, rnd.randint(0, 4)) for _ in range(rnd.randint(0, 2))]
            closure = subformula_closure(gamma + delta)
            if len(closure) > 10:  # keeps the enumeration small
                continue
            outcomes.add((bool(gamma), bool(delta), assert_same_consequence(m, gamma, delta)))
            parents = [c for f in closure for c in dict.fromkeys(children(f))]
            shared += len(parents) > len(set(parents))  # a node with two parents
    # both verdicts with and without premises and conclusions; with neither,
    # the empty valuation is a countermodel
    assert len(outcomes) == 7 and (False, False, True) not in outcomes
    assert shared > 100


def test_consequence_search_matches_enumeration_on_the_demo_sequents():
    from qnsem.demo import _consequence_sequents

    m = three_valued_matrix()
    for gamma, delta in _consequence_sequents():
        assert_same_consequence(m, gamma, delta)


def _tree(rnd, size: int, names):
    """A formula with ``size`` nodes, no shared subformula and each atom
    fresh, so its closure is tree-shaped."""
    if size == 1:
        return Atom(next(names))
    if size == 2 or rnd.random() < 0.3:
        return Not(_tree(rnd, size - 1, names))
    cut = rnd.randint(1, size - 2)
    return rnd.choice((And, Or))(_tree(rnd, cut, names), _tree(rnd, size - 1 - cut, names))


def test_consequence_search_never_backtracks_on_trees(monkeypatch):
    assigned = []
    assign = _ValueNetwork.assign

    def counted(self, k, bit):
        assigned.append(k)
        return assign(self, k, bit)

    monkeypatch.setattr(_ValueNetwork, "assign", counted)
    rnd = random.Random(7)
    names = (f"x{i}" for i in itertools.count())
    refuted = 0
    for m in (three_valued_matrix(), two_valued_matrix(), _random_matrix(random.Random(3), 3)):
        for size in range(10, 41):
            a = _tree(rnd, rnd.randint(1, size - 2), names)
            b = _tree(rnd, size - 1 - len(subformula_closure([a])), names)
            for gamma, delta in (([a], [Or(a, b)]), ([a, b], [And(a, b)]), ([], [Or(a, b)]), ([Or(a, b)], [])):
                closure = len(subformula_closure(gamma + delta))
                assigned.clear()
                result = dynamic_consequence(m, gamma, delta)
                assert len(assigned) <= closure * len(m.values)
                if not result.holds:
                    assert len(assigned) == closure  # each node's first value extends
                    refuted += 1
    assert refuted > 100


def test_consequence_search_has_no_depth_limit():
    chain = P
    for _ in range(5000):
        chain = Not(chain)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        result = dynamic_consequence(three_valued_matrix(), [], [chain])
    finally:
        sys.setrecursionlimit(limit)
    assert not result.holds and result.countermodel[P] == "T"  # !T = T all the way up


def _brute_valid(m, psi):
    closure = subformula_closure([psi])
    for combo in itertools.product(m.values, repeat=len(closure)):
        v = dict(zip(closure, combo))
        ok = True
        for f in closure:
            if isinstance(f, Not):
                ok = v[f] in m.cell("not", (v[f.child],)).labels
            elif isinstance(f, And):
                ok = v[f] in m.cell("and", (v[f.left], v[f.right])).labels
            elif isinstance(f, Or):
                ok = v[f] in m.cell("or", (v[f.left], v[f.right])).labels
            if not ok:
                break
        if ok and v[psi] not in m.designated:
            return False
    return True


def test_validity_against_enumeration_oracle():
    m = three_valued_matrix()
    excluded_middle = parse("P | !P")
    assert is_dynamically_valid(m, excluded_middle) == _brute_valid(m, excluded_middle)
    assert not is_dynamically_valid(m, excluded_middle)  # the (T,T) cell reaches T
    assert not is_dynamically_valid(m, P)  # atoms are never valid
    for text in ("P & Q", "!(P & !P)", "P | !P | Q"):
        psi = parse(text)
        assert is_dynamically_valid(m, psi) == _brute_valid(m, psi)


# ---------------------------------------------------------------------------
# adequacy (finite)


def test_adequacy_finite():
    assert adequacy_check(classical_matrix()).adequate
    report = adequacy_check(three_valued_matrix())
    assert any(v.connective == "and" and v.witness == ("t", "t") for v in report.violations)
    report = adequacy_check(two_valued_matrix())
    assert any(v.connective == "and" and v.witness == ("t", "t") for v in report.violations)


# ---------------------------------------------------------------------------
# refinement / expansion / rexpansion


def test_every_matrix_refines_itself():
    for m in (classical_matrix(), two_valued_matrix(), three_valued_matrix()):
        assert is_refinement(m, m)


def test_classical_refines_two_valued():
    # the classical tables shrink every cell of the coarse two-valued matrix
    assert is_refinement(classical_matrix(), two_valued_matrix())
    assert not is_refinement(two_valued_matrix(), classical_matrix())


def test_classical_refines_three_valued_restriction():
    from qnsem.valuesets import finite

    m3 = three_valued_matrix()
    keep = {"t", "F"}
    tables = {
        conn: {
            key: finite(*(cell.labels & keep))
            for key, cell in table.items()
            if all(k in keep for k in key)
        }
        for conn, table in m3.tables.items()
    }
    restricted = FiniteNMatrix(("t", "F"), frozenset({"t"}), tables)
    assert is_refinement(classical_matrix(), restricted)
    # and the restriction itself refines the full three-valued matrix
    assert is_refinement(restricted, m3)


def test_refinement_fails_on_enlarged_cell():
    m = two_valued_matrix()
    tables = {conn: dict(table) for conn, table in m.tables.items()}
    from qnsem.valuesets import finite

    tables["or"][("t", "t")] = finite("t", "F")
    bigger = FiniteNMatrix(m.values, m.designated, tables)
    assert not is_refinement(bigger, m)


def test_f_expansion_identity():
    m = three_valued_matrix()
    expanded = f_expansion(m, {x: [x] for x in m.values})
    assert expanded.values == m.values
    for conn, table in m.tables.items():
        for key, cell in table.items():
            assert expanded.cell(conn, key).labels == cell.labels


def test_f_expansion_duplicates_values():
    m = two_valued_matrix()
    expanded = f_expansion(m, {"t": ["t1", "t2"], "F": ["F1", "F2"]})
    assert set(expanded.values) == {"t1", "t2", "F1", "F2"}
    assert expanded.designated == {"t1", "t2"}
    # cell copies: or(F,F) = {t,F} becomes all four values, for every copy pair
    for a in ("F1", "F2"):
        for b in ("F1", "F2"):
            assert expanded.cell("or", (a, b)).labels == {"t1", "t2", "F1", "F2"}
    assert expanded.cell("or", ("t1", "F2")).labels == {"t1", "t2"}


def test_f_expansion_rejects_overlap():
    with pytest.raises(ValueError, match="overlap"):
        f_expansion(two_valued_matrix(), {"t": ["x"], "F": ["x"]})


def test_expansion_projection_is_rexpansion(rng):
    # twenty random image maps: the expansion with its projection always
    # passes the collapse-map characterization
    base = three_valued_matrix()
    for trial in range(20):
        images = {}
        counter = 0
        for x in base.values:
            copies = [f"{x}_{k}" for k in range(int(rng.integers(1, 4)))]
            images[x] = copies
            counter += len(copies)
        expanded = f_expansion(base, images)
        projection = {y: x for x, copies in images.items() for y in copies}
        report = verify_rexpansion(base, expanded, projection)
        assert report.ok, report.issues[:3]


def test_rexpansion_condition1_failure():
    base = two_valued_matrix()
    expanded = f_expansion(base, {"t": ["t1"], "F": ["F1"]})
    bad_projection = {"t1": "F", "F1": "F"}
    report = verify_rexpansion(base, expanded, bad_projection)
    assert any(issue.condition == 1 for issue in report.issues)


def _refine_expansion(expanded):
    """Drop the last member of every multi-member cell: still a refinement."""
    from qnsem.valuesets import finite

    tables = {}
    for conn, table in expanded.tables.items():
        tables[conn] = {}
        for key, cell in table.items():
            ordered = expanded.cell_values_ordered(cell)
            keep = ordered[:-1] if len(ordered) > 1 else ordered
            tables[conn][key] = finite(*keep)
    return FiniteNMatrix(expanded.values, expanded.designated, tables, name="refined")


def test_rexpansion_consequence_containment():
    base = three_valued_matrix()
    expanded = f_expansion(base, {"t": ["t"], "T": ["T1", "T2"], "F": ["F"]})
    refined = _refine_expansion(expanded)
    assert is_refinement(refined, expanded)
    projection = {"t": "t", "T1": "T", "T2": "T", "F": "F"}
    assert verify_rexpansion(base, refined, projection).ok
    pool = [P, Q, Not(P), Or(P, Q), And(P, Q), And(Q, P), Or(Not(P), Q), Not(And(P, Q))]
    checked = held = 0
    for gamma in pool:
        for delta in pool:
            checked += 1
            if dynamic_consequence(base, [gamma], [delta]).holds:
                held += 1
                assert dynamic_consequence(refined, [gamma], [delta]).holds
    assert 0 < held < checked


# The random re-check that ran after the symbolic interval pass, kept as an
# oracle: it draws argument pairs (a fifth each exactly 0 and 1), computes
# the cell's value set and collapses its ends and one inner point.
def _interval_rexpansion_sampled(
    m1: FiniteNMatrix, m2: IntervalNMatrix, f: ThresholdMap, samples: int, seed: int
):
    issues = []
    rng = np.random.default_rng(seed)
    margin = 1e-6

    def draw() -> float:
        u = rng.random()
        if u < 0.2:
            return 0.0
        if u < 0.4:
            return 1.0
        return margin + (1.0 - 2.0 * margin) * rng.random()

    for _ in range(samples):
        a, b = draw(), draw()
        for conn, cases in m2.tables.items():
            arity = CONNECTIVE_ARITY[conn]
            for case, rule in sorted(cases.items()):
                args = (a,) if arity == 1 else (a, b)
                if arity == 1 and ANY not in cases:
                    want = DESIGNATED if m2.is_designated(a) else UNDESIGNATED
                    if case != want:
                        continue
                if case in ("dd", "du", "ud", "uu"):
                    want = ("d" if m2.is_designated(a) else "u") + (
                        "d" if m2.is_designated(b) else "u"
                    )
                    if case != want:
                        continue
                vs = rule.value_set(*args)
                lo, hi = vs.lo, vs.hi
                ys = {lo, hi, lo + (hi - lo) * rng.random()}
                labels = tuple(f.label(x) for x in args)
                target = m1.cell(conn, labels)
                for y in ys:
                    if not target.contains(f.label(y)):
                        issues.append(
                            RexpansionIssue(
                                2,
                                f"sampled {conn}[{case}]{args}: y={y!r} maps to "
                                f"{f.label(y)!r} outside {target}",
                            )
                        )
                        if len(issues) > 20:
                            return issues
    return issues


def _collapse_variants():
    """(base matrix, map) pairs: the paper's three- and two-valued collapses,
    every relabelling of their pieces and variants with moved cuts."""
    three = [("t", 1.0, 1.0), ("F", 0.0, 0.0), ("T", 0.0, 1.0)]
    two = [("t", 1.0, 1.0), ("F", 0.0, 1.0)]
    out = []
    for base, pieces in ((three_valued_matrix(), three), (two_valued_matrix(), two)):
        cuts = [pieces]
        for top in (0.5, 0.9):
            cuts.append([("t", top, 1.0), *pieces[1:]])
        if len(pieces) == 3:
            cuts += [[pieces[0], ("F", 0.0, low), pieces[2]] for low in (0.1, 0.4)]
        for cut in cuts:
            for labels in itertools.permutations([name for name, _, _ in cut]):
                out.append(
                    (base, ThresholdMap(tuple((n, lo, hi) for n, (_, lo, hi) in zip(labels, cut))))
                )
    return out


def test_symbolic_rexpansion_rejects_every_sampled_failure():
    # neg2 needs alpha strictly between 1/2 and 1
    matrices = [quantum_nmatrix(1.0)] + [
        quantum_nmatrix(alpha, negation)
        for negation in ("deterministic", "neg1", "neg2")
        for alpha in (0.55, 0.7, 0.85, 0.95)
    ]
    matrices += [adequate_restricted_tables(alpha) for alpha in (0.6, 1.0)]
    flagged = 0
    for m2 in matrices:
        for m1, f in _collapse_variants():
            if _interval_rexpansion_sampled(m1, m2, f, 300, 0):
                flagged += 1
                assert not verify_rexpansion(m1, m2, f).ok, (m2.name, f)
    assert flagged > 0


def test_threshold_map_totality():
    with pytest.raises(ValueError, match="cover"):
        ThresholdMap((("t", 1.0, 1.0), ("F", 0.0, 0.4))).check_total()
    good = three_valued_collapse()
    good.check_total()
    assert good.label(1.0) == "t"
    assert good.label(0.0) == "F"
    assert good.label(0.5) == "T"
    assert good.label(1.0 - 5e-13) == "t"  # within the closing displacement
    assert good.label(0.999999) == "T"


def test_threshold_map_json_roundtrip():
    m = three_valued_collapse()
    assert ThresholdMap.from_json(m.to_json()) == m


def test_deterministic_detection():
    assert is_deterministic(classical_matrix())
    assert not is_deterministic(three_valued_matrix())
