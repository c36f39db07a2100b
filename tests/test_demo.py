import itertools
import random

import pytest

from qnsem import demo
from qnsem.formulas import And, Atom, Not, Or, parse, subformula_closure
from qnsem.nmatrix import classical_matrix, three_valued_matrix, two_valued_matrix

MATRICES = [classical_matrix(), two_valued_matrix(), three_valued_matrix()]


def product_consequence(m, gamma, delta) -> bool:
    """The cartesian-product loop the array oracle replaced: every function
    from the closure to V, filtered by table membership one formula at a time."""
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
        if all(v[g] in m.designated for g in gamma):
            if not any(v[d] in m.designated for d in delta):
                return False
    return True


def random_formula(rnd, atoms, depth):
    if depth == 0 or rnd.random() < 0.25:
        return rnd.choice(atoms)
    kind = rnd.random()
    if kind < 0.3:
        return Not(random_formula(rnd, atoms, depth - 1))
    left, right = random_formula(rnd, atoms, depth - 1), random_formula(rnd, atoms, depth - 1)
    return And(left, right) if kind < 0.65 else Or(left, right)


def random_sequents(seed, count, max_closure):
    """Sequents of up to three premises and two conclusions over P, Q, R
    whose closure has 1..``max_closure`` formulas, some of either side empty."""
    rnd = random.Random(seed)
    atoms = [Atom(n) for n in "PQR"]
    out = []
    while len(out) < count:
        gamma = [random_formula(rnd, atoms, 3) for _ in range(rnd.randint(0, 3))]
        delta = [random_formula(rnd, atoms, 3) for _ in range(rnd.randint(0, 2))]
        if 0 < len(subformula_closure(gamma + delta)) <= max_closure:
            out.append((gamma, delta))
    return out


@pytest.mark.parametrize("m", MATRICES, ids=lambda m: f"{len(m.values)}-valued {m.name}")
def test_array_oracle_matches_product_loop_on_the_demo_sequents(m):
    sequents = demo._consequence_sequents()
    verdicts = [demo.brute_force_consequence(m, g, d) for g, d in sequents]
    assert len(verdicts) == 380
    assert verdicts == [product_consequence(m, g, d) for g, d in sequents]
    assert 0 < sum(verdicts) < 380


@pytest.mark.parametrize(
    "m, max_closure",
    [(classical_matrix(), 12), (two_valued_matrix(), 12), (three_valued_matrix(), 8)],
    ids=["classical", "two-valued", "three-valued"],
)
def test_array_oracle_matches_product_loop_on_random_sequents(m, max_closure, monkeypatch):
    sequents = random_sequents(max_closure, 120, max_closure) + [([], [])]
    expected = [product_consequence(m, g, d) for g, d in sequents]
    assert [demo.brute_force_consequence(m, g, d) for g, d in sequents] == expected
    assert 0 < sum(expected) < len(sequents)
    # small chunks: the leading closure positions come from the cartesian
    # product, several chunks per sequent
    for rows in (3, 30):
        monkeypatch.setattr(demo, "_GRID_ROWS", rows)
        assert [demo.brute_force_consequence(m, g, d) for g, d in sequents] == expected


def test_array_oracle_over_several_full_chunks():
    # closures of 11 and 12 over three values: 81 and 243 chunks of 3**7 rows
    m = three_valued_matrix()
    p, q, r = Atom("P"), Atom("Q"), Atom("R")
    big = And(Or(p, Not(q)), Or(Not(r), And(q, Not(p))))  # closure 10
    cases = [
        ([big], [Or(big, r)]),  # closure 11, holds: every chunk is searched
        ([big, Not(big)], [Or(big, r)]),  # closure 12
        ([Or(big, r)], [big]),  # closure 11, fails
    ]
    for gamma, delta in cases:
        assert len(subformula_closure(gamma + delta)) in (11, 12)
        assert demo.brute_force_consequence(m, gamma, delta) == product_consequence(m, gamma, delta)


def test_empty_sequent_fails():
    # no premises and no conclusions: the empty valuation is a countermodel
    for m in MATRICES:
        assert demo.brute_force_consequence(m, [], []) is False


def test_roundtrip_section_reports_a_lossy_parser(monkeypatch):
    assert demo.section_parser_roundtrip(count=200, seed=3).passed
    monkeypatch.setattr(demo, "parse", lambda text: parse(text.replace("Q", "P")))
    section = demo.section_parser_roundtrip(count=200, seed=3)
    assert not section.passed
    (line,) = section.lines
    assert line.label == "round-trip failures among 200"
    assert 0 < float(line.computed) < 200
