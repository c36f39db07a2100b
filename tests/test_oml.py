import inspect
import itertools
import math
import random
import re
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import LatticeBindings, chain_with_fixed_point, join_oml, lattice_orthogonal, lattice_to_json, meet_oml
from test_feasibility import inequality, reference_check_point, reference_solve
from qnsem import feasibility, fixtures, oml
from qnsem.feasibility import check_point, make_row, solve_feasibility, to_fraction
from qnsem.nmatrix import NON_ORTHOGONAL, ORTHOGONAL, is_dynamic_legal
from qnsem.formulas import And, Atom, Not, Or, render
from qnsem.quantum import ProjectorBindings, quantum_nmatrix

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "perfbench"))
import known  # noqa: E402  (the benchmark's lattice builders)
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# verification


def test_boolean_verifies():
    assert oml.verify_oml(oml.boolean_lattice(2)).ok
    assert oml.verify_oml(oml.boolean_lattice(3)).ok


def test_self_complement_chain_fails():
    report = oml.verify_oml(chain_with_fixed_point())
    assert not report.ok
    assert any("complement" in f for f in report.failures)


def test_mo2_verifies():
    assert oml.verify_oml(oml.mo2()).ok


def test_meet_join_examples():
    m = oml.mo2()
    assert meet_oml(m, "a", "1") == "a"
    assert meet_oml(m, "a", "b") == "0"  # horizontal sum
    assert join_oml(m, "a", "a'") == "1"


def test_bound_error_on_broken_poset():
    # two incomparable middle layers with no unique bounds
    elements = ["0", "x", "y", "p", "q", "1"]
    pairs = [("0", e) for e in elements if e != "0"]
    pairs += [(e, "1") for e in elements if e != "1"]
    pairs += [("x", "p"), ("x", "q"), ("y", "p"), ("y", "q")]
    ortho = {"0": "1", "1": "0", "x": "p", "p": "x", "y": "q", "q": "y"}
    broken = oml.FiniteOML(elements, pairs, ortho, "0", "1")
    with pytest.raises(ValueError, match="does not exist or is not unique"):
        meet_oml(broken, "p", "q")
    assert not oml.verify_oml(broken).ok


def bound_tables_oracle(leq):
    """The pair-by-pair bound search the array-product tables replaced."""
    n = len(leq)
    meet = -np.ones((n, n), dtype=int)
    join = -np.ones((n, n), dtype=int)
    for i in range(n):
        for j in range(i, n):
            lower = leq[:, i] & leq[:, j]
            cand = [z for z in np.flatnonzero(lower) if leq[lower, z].all()]
            if len(cand) == 1:
                meet[i, j] = meet[j, i] = cand[0]
            upper = leq[i, :] & leq[j, :]
            cand = [z for z in np.flatnonzero(upper) if leq[z, upper].all()]
            if len(cand) == 1:
                join[i, j] = join[j, i] = cand[0]
    return meet, join


def _assert_bounds_match_oracle(lattice):
    meet, join = lattice._bound_tables()
    want_meet, want_join = bound_tables_oracle(lattice.leq)
    assert np.array_equal(meet, want_meet)
    assert np.array_equal(join, want_join)


def test_bound_tables_match_oracle_on_benchmark_lattices():
    lattices = [known.boolean(n) for n in workloads.BOOLEAN_ATOMS]
    lattices += [known.mo(n) for n in workloads.MO_SIZES]
    lattices += [known.chain(k) for k in workloads.CHAIN_BLOCKS]
    lattices.append(known.state_free(REPO_ROOT))
    assert len(lattices) == 17
    for data in lattices:
        _assert_bounds_match_oracle(oml.FiniteOML(data.elements, data.pairs, data.ortho, "0", "1"))
    _assert_bounds_match_oracle(fixtures.nostate_lattice())


def _poset(leq):
    """The order ``leq`` (a partial order on 0..n-1) as a FiniteOML, for its
    bound tables."""
    names = [str(k) for k in range(len(leq))]
    pairs = [(names[i], names[j]) for i, j in np.argwhere(leq) if i != j]
    return oml.FiniteOML(names, pairs, {e: e for e in names}, "0", "0")


def _random_poset(rnd, n):
    """The transitive closure of a random DAG, its elements shuffled."""
    density = rnd.uniform(0.05, 0.6)
    leq = np.eye(n, dtype=bool) | np.triu([[rnd.random() < density for _ in range(n)] for _ in range(n)])
    for k in range(n):
        leq |= np.outer(leq[:, k], leq[k])
    perm = rnd.sample(range(n), n)
    return _poset(leq[np.ix_(perm, perm)])


def test_bound_tables_match_oracle_on_random_posets():
    # posets that need not be lattices: the order builder must find every
    # bound and every missing one (ties cannot occur in a poset)
    rnd = random.Random(11)
    missing = 0
    for _ in range(300):
        poset = _random_poset(rnd, rnd.randint(1, 12))
        _assert_bounds_match_oracle(poset)
        meet, join = poset._bound_tables()
        missing += np.count_nonzero(meet < 0) + np.count_nonzero(join < 0)
    assert missing


def test_bound_tables_match_oracle_on_total_orders():
    # one down-set size per element: one size class per column
    rnd = random.Random(3)
    for n in (1, 2, 5, 17, 40):
        rank = rnd.sample(range(n), n)
        _assert_bounds_match_oracle(_poset(np.array([[rank[i] <= rank[j] for j in range(n)] for i in range(n)])))


def test_bound_tables_match_oracle_on_repeated_down_set_sizes():
    # grids of two chains, (a, b) <= (c, d) componentwise, where (a, b) and
    # (b, a) share a down-set size; side by side, their pairs have no bound;
    # and random posets of 20..40 elements
    for shape in ((2, 2), (3, 4), (5, 8)):
        cells = list(itertools.product(range(shape[0]), range(shape[1])))
        grid = np.array([[a <= c and b <= d for c, d in cells] for a, b in cells])
        _assert_bounds_match_oracle(_poset(grid))
        n = len(cells)
        twins = np.zeros((2 * n, 2 * n), dtype=bool)
        twins[:n, :n] = twins[n:, n:] = grid
        _assert_bounds_match_oracle(_poset(twins))
    rnd = random.Random(29)
    repeated = 0
    for _ in range(15):
        poset = _random_poset(rnd, rnd.randint(20, 40))
        sizes = np.count_nonzero(poset.leq, axis=0)
        repeated += len(np.unique(sizes)) < len(sizes)
        _assert_bounds_match_oracle(poset)
    assert repeated == 15


def argmax_bound_table(down):
    """The size-sorted argmax builder the size-class products replaced: row
    i takes the member of ``down[i] & down[j]`` with the largest down-set
    for every j >= i, and keeps it when its down-set is the whole set."""
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


def test_bound_tables_on_mo_300_match_argmax_builder():
    data = known.mo(300)
    lattice = oml.FiniteOML(data.elements, data.pairs, data.ortho, "0", "1")
    meet, join = lattice._bound_tables()
    assert np.array_equal(meet, argmax_bound_table(lattice.leq.T))
    assert np.array_equal(join, argmax_bound_table(lattice.leq))


def test_bound_tables_on_large_mo_match_oracle():
    # sizes the benchmark does not reach (62 and 202 elements)
    for n in (30, 100):
        data = known.mo(n)
        _assert_bounds_match_oracle(oml.FiniteOML(data.elements, data.pairs, data.ortho, "0", "1"))


def _below_its_dual(leq, perm):
    """The partial order ``leq`` on 0..n-1 glued below its order dual: the
    elements q', with p' <= q' when q <= p and every p below every q'.
    q <-> q' is an order-reversing involution.  The elements are listed in
    the order ``perm``."""
    n = len(leq)
    glued = np.ones((2 * n, 2 * n), dtype=bool)
    glued[n:, :n] = False
    glued[:n, :n], glued[n:, n:] = leq, leq.T
    names = [str(k) for k in range(n)] + [f"{k}'" for k in range(n)]
    pairs = [(names[i], names[j]) for i, j in np.argwhere(glued) if i != j]
    ortho = {names[k]: names[(k + n) % (2 * n)] for k in range(2 * n)}
    listed = [names[k] for k in perm]
    return oml.FiniteOML(listed, pairs, ortho, listed[0], listed[0])


def test_join_table_by_de_morgan_matches_oracle_with_missing_bounds(monkeypatch):
    # under an order-reversing involution the join table is read off the
    # meet table, with no second product; a random poset glued below its
    # dual lacks meets and joins on both sides
    built = []
    greatest_below = oml._greatest_below
    monkeypatch.setattr(oml, "_greatest_below", lambda down: built.append(down) or greatest_below(down))
    rnd = random.Random(28)
    missing = 0
    for _ in range(200):
        leq = _random_poset(rnd, rnd.randint(1, 10)).leq
        poset = _below_its_dual(leq, rnd.sample(range(2 * len(leq)), 2 * len(leq)))
        _assert_bounds_match_oracle(poset)
        meet, join = poset._bound_tables()
        missing += bool((meet < 0).any() and (join < 0).any())
    assert len(built) == 200 and missing > 100


def test_order_defects_are_computed_once_per_lattice(monkeypatch):
    # the bound tables, every verify_oml and the precondition of the
    # two-valued search read one check of the order
    calls = []
    check = oml._order_defects
    monkeypatch.setattr(oml, "_order_defects", lambda leq: calls.append(leq) or check(leq))
    lattice = oml.FiniteOML.from_json(lattice_to_json(oml.boolean_lattice(3)))
    assert oml.verify_oml(lattice).ok and oml.verify_oml(lattice, max_failures=1).ok
    assert oml.find_two_valued_valuation(lattice, count_all=True)[1] == 3
    assert len(calls) == 1
    broken = chain_with_fixed_point()
    assert not oml.verify_oml(broken).ok and not oml.verify_oml(broken).ok
    assert len(calls) == 2


def _poset_without_orthogonal_join():
    # a and b are orthogonal (a <= b' = x) but have two minimal upper bounds
    elements = ["0", "a", "b", "x", "y", "1"]
    pairs = [("0", e) for e in elements if e != "0"]
    pairs += [(e, "1") for e in elements if e != "1"]
    pairs += [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")]
    ortho = {"0": "1", "1": "0", "a": "y", "y": "a", "b": "x", "x": "b"}
    return oml.FiniteOML(elements, pairs, ortho, "0", "1")


def test_missing_bound_is_an_error_not_an_index():
    broken = _poset_without_orthogonal_join()
    assert lattice_orthogonal(broken, "a", "b")
    message = "join of 'a' and 'b' does not exist or is not unique"
    with pytest.raises(ValueError, match=message):
        oml.state_constraints(broken)
    with pytest.raises(ValueError, match=message):
        oml.find_state(broken)
    with pytest.raises(ValueError, match="does not exist or is not unique"):
        oml.find_two_valued_valuation(broken)
    with pytest.raises(ValueError, match="does not exist or is not unique"):
        oml.lattice_valuation_legal(broken, quantum_nmatrix(1.0), dict.fromkeys(broken.elements, 0.5))
    with pytest.raises(ValueError, match="does not exist or is not unique"):
        oml.legal_valuation_search(broken, quantum_nmatrix(1.0))
    report = oml.verify_oml(broken)
    assert "join(a, b) missing or not unique" in report.failures
    with pytest.raises(ValueError, match=message):  # a recorded failure still looks for it
        oml.find_state(broken)


def _two_way_relation():
    # a <= b <= a: reflexive and transitive, not antisymmetric
    elements = ["0", "a", "b", "1"]
    pairs = [("0", "a"), ("0", "b"), ("0", "1"), ("a", "b"), ("b", "a"), ("a", "1"), ("b", "1")]
    return oml.FiniteOML(elements, pairs, {"0": "1", "1": "0", "a": "b", "b": "a"}, "0", "1")


def _unclosed_relation():
    # 0 <= a <= b without 0 <= b: reflexive and antisymmetric, not transitive
    return oml.FiniteOML(["0", "a", "b"], [("0", "a"), ("a", "b")], {"0": "b", "b": "0", "a": "a"}, "0", "b")


@pytest.mark.parametrize("build, fault", [
    (_two_way_relation, "antisymmetry fails at (a, b)"),
    (_unclosed_relation, "transitivity fails: 0 <= ... <= b but not directly"),
])
def test_every_table_reader_refuses_a_relation_that_is_no_partial_order(build, fault):
    message = f"^not a partial order: {re.escape(fault)}$"
    lattice = build()
    bindings = LatticeBindings(lattice, {"P": "a", "Q": "b"})
    readers = [
        lambda: meet_oml(lattice, "a", "b"),
        lambda: join_oml(lattice, "a", "a"),
        lambda: lattice.bound_table("meet"),
        lambda: bindings.denote(And(Atom("P"), Atom("Q"))),
        lambda: bindings.denote(Or(Atom("P"), Atom("Q"))),
        lambda: oml.state_constraints(lattice),
        lambda: oml.find_state(lattice),
        lambda: oml.lattice_valuation_legal(lattice, quantum_nmatrix(1.0), dict.fromkeys(lattice.elements, 0.5)),
        lambda: oml.legal_valuation_search(lattice, quantum_nmatrix(1.0)),
        lambda: oml.find_two_valued_valuation(lattice, count_all=True),
    ]
    for read in readers:
        with pytest.raises(ValueError, match=message):
            read()
    # verify_oml stops after the order and bottom/top stage
    failures = oml.verify_oml(lattice).failures
    assert fault in failures
    assert not any(f.startswith(("meet(", "join(")) for f in failures)
    assert failures == verify_oml_oracle(lattice)


def verify_oml_oracle(l, max_failures=50):
    """``verify_oml`` as Python loops over elements and pairs, kept as the
    oracle of the array expressions."""
    failures = []

    def fail(msg):
        if len(failures) < max_failures:
            failures.append(msg)

    n = len(l.elements)
    leq = l.leq
    both = leq & leq.T
    for i, j in zip(*np.nonzero(both)):
        if i != j:
            fail(f"antisymmetry fails at ({l.name(i)}, {l.name(j)})")
    closure = (leq.astype(np.int64) @ leq.astype(np.int64)) > 0
    for i, j in zip(*np.nonzero(closure & ~leq)):
        fail(f"transitivity fails: {l.name(i)} <= ... <= {l.name(j)} but not directly")
    two_way = both & ~np.eye(n, dtype=bool)
    partial_order = not two_way.any() and not (closure & ~leq).any()
    if not leq[l.bottom, :].all():
        fail("bottom is not below every element")
    if not leq[:, l.top].all():
        fail("top is not above every element")
    if not partial_order:
        return tuple(failures)
    meet, join = l._bound_tables()
    for i in range(n):
        for j in range(i, n):
            if meet[i, j] < 0:
                fail(f"meet({l.name(i)}, {l.name(j)}) missing or not unique")
            if join[i, j] < 0:
                fail(f"join({l.name(i)}, {l.name(j)}) missing or not unique")
    if failures:
        return tuple(failures)
    for i in range(n):
        oi = l.ortho[i]
        if l.ortho[oi] != i:
            fail(f"orthocomplement not involutive at {l.name(i)}")
        if meet[i, oi] != l.bottom:
            fail(f"{l.name(i)} meet its complement is not bottom")
        if join[i, oi] != l.top:
            fail(f"{l.name(i)} join its complement is not top")
    for i in range(n):
        for j in range(n):
            if leq[i, j] and not leq[l.ortho[j], l.ortho[i]]:
                fail(f"orthocomplement not order-reversing at ({l.name(i)}, {l.name(j)})")
    for i in range(n):
        for j in range(n):
            if leq[i, j]:
                inner = meet[j, l.ortho[i]]
                if inner < 0 or join[i, inner] != j:
                    fail(
                        f"orthomodular law fails: {l.name(j)} != "
                        f"{l.name(i)} v ({l.name(j)} ^ {l.name(l.ortho[i])})"
                    )
    return tuple(failures)


def _o6() -> oml.FiniteOML:
    """The hexagon 0 < a < b < 1, 0 < b' < a' < 1: an ortholattice that is
    not orthomodular, since a <= b but a v (b ^ a') = a."""
    elements = ["0", "a", "b", "b'", "a'", "1"]
    pairs = [("0", e) for e in elements[1:]] + [(e, "1") for e in elements[:-1]]
    pairs += [("a", "b"), ("b'", "a'")]
    ortho = {"0": "1", "1": "0", "a": "a'", "a'": "a", "b": "b'", "b'": "b"}
    return oml.FiniteOML(elements, pairs, ortho, "0", "1")


def _scrambled_complements(n_atoms: int, seed: int) -> oml.FiniteOML:
    """Boolean 2^n with a random permutation as complement: every bound
    exists, so the complement and orthomodular checks all run."""
    b = oml.boolean_lattice(n_atoms)
    perm = list(b.elements)
    random.Random(seed).shuffle(perm)
    pairs = [(x, y) for x in b.elements for y in b.elements if x != y and b.leq[b.index[x], b.index[y]]]
    return oml.FiniteOML(b.elements, pairs, dict(zip(b.elements, perm)), "0", "1")


def _broken_lattices():
    """Fixtures failing each law, and seeded random relations (nearly all
    broken, often in many places)."""
    lattices = [chain_with_fixed_point(), _o6(), _poset_without_orthogonal_join()]
    lattices += [_scrambled_complements(n, seed) for n in (2, 3, 5, 6) for seed in range(5)]
    rnd = random.Random(11)
    for _ in range(100):
        names = [str(k) for k in range(rnd.randint(1, 10))]
        density = rnd.uniform(0.1, 0.9)
        pairs = [(a, b) for a in names for b in names if a != b and rnd.random() < density]
        perm = names[:]
        rnd.shuffle(perm)
        lattices.append(oml.FiniteOML(names, pairs, dict(zip(names, perm)), "0", names[-1]))
    return lattices


def test_verify_oml_matches_loop_oracle():
    capped = set()
    for lattice in _broken_lattices():
        for max_failures in (1, 7, 50):
            want = verify_oml_oracle(lattice, max_failures)
            assert oml.verify_oml(lattice, max_failures).failures == want
            if len(want) == max_failures:
                capped.add(max_failures)
    assert capped == {1, 7, 50}
    # at least one fixture overflows the default cap in the late laws
    assert len(verify_oml_oracle(_scrambled_complements(6, 0), 10**6)) > 50
    for lattice in _search_lattices():
        assert oml.verify_oml(lattice).failures == verify_oml_oracle(lattice) == ()


def test_o6_fails_only_the_orthomodular_law():
    failures = oml.verify_oml(_o6()).failures
    assert failures and all(f.startswith("orthomodular law fails") for f in failures)
    assert "orthomodular law fails: b != a v (b ^ a')" in failures
    # the complement is named by its element, not by priming a name
    assert "orthomodular law fails: a' != b' v (a' ^ b)" in failures
    assert not any("''" in f for f in failures)


def test_json_roundtrip():
    m = oml.mo2()
    back = oml.FiniteOML.from_json(lattice_to_json(m))
    assert back.elements == m.elements
    assert (back.leq == m.leq).all()
    assert (back.ortho == m.ortho).all()


# ---------------------------------------------------------------------------
# states


def test_find_state_boolean():
    result = oml.find_state(oml.boolean_lattice(3))
    assert result.feasible and result.residual == 0.0
    assert check_point(oml.state_constraints(oml.boolean_lattice(3))[1], result.state) == 0


def test_uniform_atom_weights_are_a_state():
    lattice = oml.boolean_lattice(3)
    third = Fraction(1, 3)
    mu = {}
    for e in lattice.elements:
        size = 0 if e == "0" else (3 if e == "1" else len(e))
        mu[e] = size * third
    assert check_point(oml.state_constraints(lattice)[1], mu) == 0


def test_mo2_half_state_checks_directly():
    mu = {"0": Fraction(0), "1": Fraction(1), "a": Fraction(1, 2), "a'": Fraction(1, 2),
          "b": Fraction(1, 2), "b'": Fraction(1, 2)}
    assert check_point(oml.state_constraints(oml.mo2())[1], mu) == 0


@pytest.mark.parametrize("bad", [float("nan"), -1e-6, 1 + 1e-6, float("inf"), float("-inf")])
def test_general_state_value_out_of_range(bad):
    # the state rows are equalities (the [0, 1] box is the solver's), so a
    # value out of range shows as the broken row a + a' = 1; NaN fails every
    # comparison, so check_point reports it as an infinite violation before
    # the exact residual tries to convert it to a ratio
    _, rows = oml.state_constraints(oml.mo2())
    mu = {"0": 0.0, "1": 1.0, "a": bad, "a'": 0.5, "b": 0.5, "b'": 0.5}
    want = pytest.approx(abs(bad - 0.5), abs=1e-12) if np.isfinite(bad) else float("inf")
    assert check_point(rows, mu) == want
    assert check_point(rows, {**mu, "a": 0.5}) == 0


def test_find_state_mo2():
    result = oml.find_state(oml.mo2())
    assert result.feasible and result.residual == 0.0


def test_state_rows_are_built_once_and_returned_as_new_lists():
    # a second build would make new Row objects and a new cache entry
    lattice = oml.boolean_lattice(3)
    names, rows = oml.state_constraints(lattice)
    cached = lattice._state_rows
    assert names == list(lattice.elements) and cached[1] == tuple(rows)
    names.append("junk")
    rows.append(make_row({"a": 1}, 1, "junk"))
    again_names, again_rows = oml.state_constraints(lattice)
    assert lattice._state_rows is cached
    assert all(again is row for again, row in zip(again_rows, cached[1]))
    assert again_names == list(lattice.elements) and again_rows == rows[:-1]
    assert again_names is not names and again_rows is not rows


def test_legal_search_pins_stay_out_of_the_state_rows():
    # two orthogonal atoms cannot both be 1; the pins of that search, and a
    # row solved with the state rows, must not reach a later state search on
    # the same lattice
    lattice = oml.boolean_lattice(3)
    names, before = oml.state_constraints(lattice)
    pinned = oml.legal_valuation_search(lattice, quantum_nmatrix(1.0), partial={"a": 1, "b": 1})
    assert not pinned.feasible
    assert solve_feasibility(names, before + [make_row({"ab": 1}, 1, "extra")]).feasible
    assert oml.state_constraints(lattice)[1] == before
    result = oml.find_state(lattice)
    assert result.feasible and result.residual == 0.0
    assert oml.legal_valuation_search(lattice, quantum_nmatrix(1.0)).feasible


def test_legal_search_builds_the_state_rows_only_for_a_certificate():
    # a point needs no state rows; a certificate is mapped back to them,
    # so the search that finds one builds them on a fresh lattice
    matrix = quantum_nmatrix(1.0)
    feasible = oml.boolean_lattice(3)
    assert oml.legal_valuation_search(feasible, matrix, partial={"a": Fraction(1, 3)}).feasible
    assert feasible._state_rows is None
    lattice = oml.boolean_lattice(3)
    pins = {"a": 1, "bc": 1}  # a' = bc: contradicts the complement row at presolve
    result = oml.legal_valuation_search(lattice, matrix, partial=pins)
    assert not result.feasible and result.certificate is not None
    pin_rows = [make_row({e: 1}, v, f"pin:{e}") for e, v in pins.items()]
    assert result.certificate.verify(oml.state_constraints(lattice)[1] + pin_rows)


def _greechie_chain(blocks: int) -> oml.FiniteOML:
    atoms = [f"c{i}" for i in range(2 * blocks + 1)]
    return oml.from_greechie(atoms, [atoms[2 * i:2 * i + 3] for i in range(blocks)])


@pytest.mark.parametrize(
    "build",
    [lambda: oml.boolean_lattice(5), lambda: oml.boolean_lattice(6), lambda: _greechie_chain(15),
     lambda: oml.boolean_lattice(7)],
    ids=["boolean-2^5", "boolean-2^6", "chain-15", "boolean-2^7"],
)
def test_exact_find_state_at_benchmark_sizes(build):
    lattice = build()
    result = oml.find_state(lattice)
    assert result.feasible and result.residual == 0.0
    assert all(isinstance(v, Fraction) for v in result.state.values())
    assert check_point(oml.state_constraints(lattice)[1], result.state) == 0


def test_nostate_fixture_structure():
    obj = fixtures.nostate_greechie()
    assert len(obj["atoms"]) == 36
    assert len(obj["blocks"]) == 21
    sizes = sorted(len(b) for b in obj["blocks"])
    assert sizes == [3] * 12 + [4] * 9
    for b1, b2 in itertools.combinations(obj["blocks"], 2):
        assert len(set(b1) & set(b2)) <= 1


def test_nostate_fixture_is_a_verified_oml():
    lattice = fixtures.nostate_lattice()
    assert len(lattice) == 128
    assert oml.verify_oml(lattice).ok


def test_nostate_fixture_infeasible_with_certificate():
    lattice = fixtures.nostate_lattice()
    result = oml.find_state(lattice)
    assert not result.feasible
    assert result.certificate is not None
    names, rows = oml.state_constraints(lattice)
    assert result.certificate.verify(rows)
    # independent oracle: combining row blocks against column blocks gives
    # total atom mass 9 one way and 12 the other
    obj = fixtures.nostate_greechie()
    mass = {a: 0 for a in obj["atoms"]}
    row_total = sum(1 for b in obj["blocks"] if len(b) == 4)
    col_total = sum(1 for b in obj["blocks"] if len(b) == 3)
    for b in obj["blocks"]:
        for a in b:
            mass[a] += 1 if len(b) == 4 else -1
    assert all(v == 0 for v in mass.values()) and row_total - col_total != 0


def test_nostate_default_path_also_infeasible():
    result = oml.find_state(fixtures.nostate_lattice())
    assert not result.feasible and result.certificate is not None


def maximal_cliques_oracle(adjacent):
    """Every maximal clique, by listing all vertex subsets."""
    k = len(adjacent)
    cliques = [set(c) for r in range(k + 1) for c in itertools.combinations(range(k), r)
               if all(adjacent[i][j] for i, j in itertools.combinations(c, 2))]
    return sorted(tuple(sorted(c)) for c in cliques if not any(c < other for other in cliques))


def test_maximal_cliques_match_subset_oracle():
    rnd = random.Random(1972)
    for _ in range(300):
        k = rnd.randint(0, 9)
        density = rnd.random()
        adjacent = np.zeros((k, k), dtype=bool)
        for i, j in itertools.combinations(range(k), 2):
            adjacent[i, j] = adjacent[j, i] = rnd.random() < density
        assert list(oml._maximal_cliques(adjacent)) == maximal_cliques_oracle(adjacent)


def _context_solve_lattices():
    """The one-element lattice, whose one context is empty, the benchmark
    lattices with chain-8, then seeded random Greechie diagrams that verify
    as OMLs, 30 distinct ones of three-atom blocks and 30 of three- and
    four-atom blocks mixed."""
    from test_feasibility import BENCHMARK_LATTICES

    lattices = {"one-element": oml.FiniteOML(["0"], [], {"0": "0"}, "0", "0")}
    lattices.update((name, oml.FiniteOML(data.elements, data.pairs, data.ortho, "0", "1"))
                    for name, data in BENCHMARK_LATTICES.items())
    rnd = random.Random(23)
    for sizes in ((3,), (3, 4)):
        found = 0
        while found < 30:
            atoms, blocks = _random_diagram(rnd, sizes)
            name = f"greechie:{blocks}"
            lattice = oml.from_greechie(atoms, blocks)
            if name not in lattices and oml.verify_oml(lattice).ok:
                lattices[name] = lattice
                found += 1
    return lattices


def test_context_solve_matches_the_state_row_solve():
    # the state and legal searches solve one row per context; the rows of
    # state_constraints, solved directly, are the oracle: the same verdict,
    # points that satisfy every state row and pin exactly, and
    # certificates over the state rows and pins
    matrix = quantum_nmatrix(1.0)
    seen = Counter()
    lattices = _context_solve_lattices()
    for name, lattice in lattices.items():
        names, rows = oml.state_constraints(lattice)
        oracle = solve_feasibility(names, rows)
        result = oml.find_state(lattice)
        assert result.feasible == oracle.feasible, name
        if result.feasible:
            assert result.residual == 0.0 and check_point(rows, result.state) == 0, name
        else:
            assert result.certificate.verify(rows), name
        atoms = [lattice.name(i) for i in np.flatnonzero(lattice.leq.sum(axis=0) == 2).tolist()]
        # inconsistent equalities through the top, the bottom and an atom;
        # a feasible pin; two orthogonal atoms at 1, infeasible only in the
        # bounded phase when their context has a third atom
        pin_sets = [{lattice.name(lattice.top): 0}, {lattice.name(lattice.bottom): Fraction(1, 2)}]
        if atoms:
            atom = atoms[0]
            mate = next(b for b in atoms if lattice_orthogonal(lattice, atom, b))
            ortho = lattice.elements[lattice.ortho[lattice.index[atom]]]
            pin_sets += [{atom: 1, ortho: 1}, {atom: Fraction(1, 3)}, {atom: 1, mate: 1}]
        for pins in pin_sets:
            pin_rows = [make_row({e: 1}, v, f"pin:{e}") for e, v in pins.items()]
            got = oml.legal_valuation_search(lattice, matrix, partial=pins)
            want = solve_feasibility(names, rows + pin_rows)
            assert (got.feasible, got.detail) == (want.feasible, want.detail), (name, pins)
            if got.feasible:
                assert check_point(rows + pin_rows, got.point) == 0, (name, pins)
            elif want.certificate is not None:
                assert got.certificate.verify(rows + pin_rows), (name, pins)
            else:
                assert got.certificate is None
            seen[got.feasible, want.certificate is not None] += 1
    assert len(lattices) == 79 and seen[True, False] and seen[False, True] and seen[False, False]


def _identity_residual(lattice, point):
    """``oml._state_residual`` at ``point``, its coordinates read as
    ``check_point`` reads them and put over one common denominator."""
    values = [to_fraction(point[e], 10**15) for e in lattice.elements]
    den = math.lcm(*(v.denominator for v in values))
    num = np.array([v.numerator * (den // v.denominator) for v in values],
                   dtype=np.int64 if den < 2**60 else object)
    return oml._state_residual(lattice, *oml._orthogonal_joins(lattice), num, den)


def test_state_residual_identities_match_check_point_over_the_state_rows():
    # find_state checks its point by one identity per state row, without
    # the rows; check_point over them is the oracle.  The points: the state
    # found (or, on a lattice with none, every element at 1/2 but bottom
    # and top), one atom moved by 1/7 and by a fraction whose denominator
    # needs Python ints, an atom and its complement swapped, a float copy
    lattices = {**_context_solve_lattices(), "nostate-fixture": fixtures.nostate_lattice()}
    broken = Counter()
    for name, lattice in lattices.items():
        rows = oml.state_constraints(lattice)[1]
        result = oml.find_state(lattice)
        if result.feasible:
            base = result.state
            assert result.residual == check_point(rows, base) == 0.0, name
        else:
            base = dict.fromkeys(lattice.elements, Fraction(1, 2))
            base[lattice.name(lattice.bottom)], base[lattice.name(lattice.top)] = Fraction(0), Fraction(1)
        atoms = np.flatnonzero(lattice.leq.sum(axis=0) == 2).tolist()
        a = lattice.name(atoms[0] if atoms else lattice.top)
        a_ = lattice.name(lattice.ortho[lattice.index[a]])
        points = {
            "base": base,
            "+1/7": {**base, a: base[a] + Fraction(1, 7)},
            "+1/(2**61-1)": {**base, a: base[a] + Fraction(1, 2**61 - 1)},
            "swapped": {**base, a: base[a_], a_: base[a]},
            "float": {e: float(v) for e, v in base.items()},
        }
        for kind, point in points.items():
            want = check_point(rows, point)
            assert _identity_residual(lattice, point) == want, (name, kind)
            broken[kind] += want > 0
    assert len(lattices) == 80
    assert broken["+1/7"] == broken["+1/(2**61-1)"] == 80 and broken["swapped"] and broken["base"] == 3


def test_find_state_builds_no_state_rows_for_a_state(monkeypatch):
    def refuse(*args):
        raise AssertionError("check_point was called")

    monkeypatch.setattr(feasibility, "check_point", refuse)
    monkeypatch.setattr(oml, "check_point", refuse, raising=False)
    for lattice in (oml.mo2(), oml.boolean_lattice(7), _greechie_chain(15)):
        result = oml.find_state(lattice)
        assert result.feasible and result.residual == 0.0
        assert lattice._state_rows is None


def test_searches_read_no_bound_table_on_a_verified_lattice(monkeypatch):
    # verify_oml has found every bound, so the precondition checks none
    lattice = oml.boolean_lattice(3)
    assert oml.verify_oml(lattice).ok

    def refuse(*args):
        raise AssertionError("bound_table was read")

    monkeypatch.setattr(lattice, "bound_table", refuse)
    oml._require_oml(lattice)
    assert oml.find_two_valued_valuation(lattice, count_all=True)[1] == 3
    assert oml.legal_valuation_search(lattice, quantum_nmatrix(1.0), partial={"a": 1}).feasible


def test_law_check_runs_once_per_lattice(monkeypatch):
    calls = []
    verify = oml.verify_oml
    monkeypatch.setattr(oml, "verify_oml", lambda l, *args, **kwargs: calls.append(l) or verify(l, *args, **kwargs))
    lattice = fixtures.nostate_lattice()
    assert oml.verify_oml(lattice).ok
    oml.find_state(lattice)
    oml.find_two_valued_valuation(lattice)
    oml.legal_valuation_search(lattice, quantum_nmatrix(1.0))
    assert len(calls) == 1
    # a lattice not yet verified is checked by the first search, once
    fresh = oml.boolean_lattice(3)
    oml.find_state(fresh)
    oml.find_state(fresh)
    assert calls == [lattice, fresh]
    # a cap below 1 could list no failure: it is refused and records no
    # verdict
    for broken in (chain_with_fixed_point(), _o6()):
        for cap in (0, -1):
            with pytest.raises(ValueError, match=f"max_failures must be at least 1, got {cap}"):
                oml.verify_oml(broken, max_failures=cap)
        assert broken._first_failure is None
        with pytest.raises(ValueError, match="not an orthomodular lattice"):
            oml.find_state(broken)


# ---------------------------------------------------------------------------
# two-valued valuations


def _brute_cav_count(lattice):
    meet, join = lattice._bound_tables()
    n = len(lattice.elements)
    count = 0
    for bits in itertools.product((0, 1), repeat=n):
        if bits[lattice.bottom] != 0 or bits[lattice.top] != 1:
            continue
        ok = all(bits[lattice.ortho[i]] == 1 - bits[i] for i in range(n))
        if ok:
            for i in range(n):
                for j in range(i, n):
                    if bits[meet[i, j]] != min(bits[i], bits[j]):
                        ok = False
                        break
                    if bits[join[i, j]] != max(bits[i], bits[j]):
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            count += 1
    return count


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cav_counts_match_brute_force(n):
    lattice = oml.boolean_lattice(n)
    first, count = oml.find_two_valued_valuation(lattice, count_all=True)
    assert count == n
    assert count == _brute_cav_count(lattice)
    assert first is not None and first["1"] == 1 and first["0"] == 0


def test_cav_boolean_16_elements():
    lattice = oml.boolean_lattice(4)
    _, count = oml.find_two_valued_valuation(lattice, count_all=True)
    assert count == 4


def test_cav_mo2_unsat_matches_brute_force():
    lattice = oml.mo2()
    first, count = oml.find_two_valued_valuation(lattice, count_all=True)
    assert first is None and count == 0
    assert _brute_cav_count(lattice) == 0


def recursive_two_valued(l, count_all=False):
    """``find_two_valued_valuation`` as one recursion level per element:
    same choice order, kept as the oracle of the explicit-stack loop."""
    meet, join = l.bound_table("meet"), l.bound_table("join")
    n = len(l.elements)
    values = [-1] * n
    triples_at = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            for target, kind in ((meet[i, j], "meet"), (join[i, j], "join")):
                triples_at[max(i, j, target)].append((i, j, target, kind))
    found = {"first": None, "count": 0}

    def consistent(k):
        v = values[k]
        if (k == l.bottom and v != 0) or (k == l.top and v != 1):
            return False
        o = l.ortho[k]
        if values[o] >= 0 and values[o] != 1 - v:
            return False
        for i, j, target, kind in triples_at[k]:
            a, b, t = values[i], values[j], values[target]
            if min(a, b, t) >= 0 and t != (min(a, b) if kind == "meet" else max(a, b)):
                return False
        return True

    def rec(k):
        if k == n:
            found["count"] += 1
            if found["first"] is None:
                found["first"] = {l.elements[i]: values[i] for i in range(n)}
            return not count_all
        for v in (1, 0):
            values[k] = v
            if consistent(k) and rec(k + 1):
                return True
            values[k] = -1
        return False

    rec(0)
    return found["first"], found["count"]


def _mo(n: int) -> oml.FiniteOML:
    """MO_n: n pairs {x, x'} between 0 and 1."""
    pairs = [(f"x{i}", f"x{i}'") for i in range(n)]
    middle = [e for pair in pairs for e in pair]
    leq = [("0", e) for e in middle + ["1"]] + [(e, "1") for e in middle]
    ortho = {"0": "1", "1": "0", **{a: b for a, b in pairs}, **{b: a for a, b in pairs}}
    return oml.FiniteOML(["0", *middle, "1"], leq, ortho, "0", "1")


def _search_lattices():
    """Boolean 2^3..2^7, MO_2, MO_3, MO_5, MO_8, seven block chains and the
    state-free fixture: the shapes the lattice benchmark searches."""
    return (
        [oml.boolean_lattice(n) for n in (3, 4, 5, 6, 7)]
        + [_mo(n) for n in (2, 3, 5, 8)]
        + [_greechie_chain(k) for k in (2, 3, 6, 10, 15, 16, 24)]
        + [fixtures.nostate_lattice()]
    )


def _assert_two_valued_matches_oracle(lattice):
    for count_all in (False, True):
        want = recursive_two_valued(lattice, count_all)
        assert oml.find_two_valued_valuation(lattice, count_all) == want


def test_two_valued_loop_matches_recursive_oracle():
    lattices = _search_lattices()
    assert len(lattices) == 17
    counts = []
    for lattice in lattices:
        _assert_two_valued_matches_oracle(lattice)
        counts.append(recursive_two_valued(lattice, count_all=True)[1])
    assert counts[:9] == [3, 4, 5, 6, 7, 0, 0, 0, 0]  # one per atom of 2^n; MO_n has none
    assert counts[9] == 1 and counts[10:] == [0] * 7  # chain-2 shares one atom


def test_two_valued_search_has_no_depth_limit():
    # one element per level: deeper than the recursion limit allows the
    # recursive oracle, which must fail where the loop gets a verdict
    lattice = oml.boolean_lattice(7)  # 128 elements, every one assigned on the way to a solution
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        with pytest.raises(RecursionError):
            recursive_two_valued(lattice)
        first, count = oml.find_two_valued_valuation(lattice, count_all=True)
    finally:
        sys.setrecursionlimit(limit)
    assert count == 7 and first["1"] == 1 and first["0"] == 0


def _random_greechie(rnd: random.Random) -> oml.FiniteOML | None:
    """A seeded pasting of 1-4 blocks of 3-4 atoms; None when the blocks
    break the loader's rules (two shared atoms, an unused atom)."""
    atoms = [f"p{k}" for k in range(rnd.randint(4, 9))]
    blocks = [rnd.sample(atoms, rnd.choice((3, 4))) for _ in range(rnd.randint(1, 4))]
    try:
        return oml.from_greechie(sorted({a for b in blocks for a in b}), blocks)
    except ValueError:
        return None


def test_two_valued_matches_oracles_on_random_greechie_pastings():
    rnd = random.Random(5)
    counts, rejected, brute = Counter(), 0, 0
    for _ in range(300):
        lattice = _random_greechie(rnd)
        if lattice is None:
            continue
        if not oml.verify_oml(lattice).ok:  # a loop of order 3 or 4
            rejected += 1
            continue
        _assert_two_valued_matches_oracle(lattice)
        _, count = oml.find_two_valued_valuation(lattice, count_all=True)
        counts[count] += 1
        if len(lattice) <= 12:
            assert count == _brute_cav_count(lattice)
            brute += 1
    assert rejected and brute >= 10
    assert counts[0] and counts[1] and max(counts) >= 3


def test_two_valued_mo100_has_none():
    lattice = _mo(100)
    assert oml.find_two_valued_valuation(lattice, count_all=True) == (None, 0)
    assert recursive_two_valued(lattice, count_all=True) == (None, 0)


@pytest.mark.parametrize("build", [chain_with_fixed_point, _o6], ids=["chain-fixed-point", "O6"])
def test_two_valued_refuses_a_non_orthomodular_lattice(build):
    lattice = build()
    first_law = oml.verify_oml(lattice).failures[0]
    with pytest.raises(ValueError, match="not an orthomodular lattice") as info:
        oml.find_two_valued_valuation(lattice, count_all=True)
    assert str(info.value).endswith(first_law)


# ---------------------------------------------------------------------------
# interval tables over lattices


def test_general_tables_accept_states():
    pasted = oml.from_greechie(
        ["a", "b", "c", "d", "e"], [["a", "b", "c"], ["c", "d", "e"]]
    )
    for lattice in (oml.boolean_lattice(2), oml.boolean_lattice(3), oml.mo2(), pasted):
        matrix = quantum_nmatrix(1.0)
        result = oml.find_state(lattice)
        mu = {k: float(v) for k, v in result.state.items()}
        report = oml.lattice_valuation_legal(lattice, matrix, mu)
        assert report.ok, report.violations[:3]


def test_general_tables_negation_cell():
    lattice = oml.boolean_lattice(2)
    matrix = quantum_nmatrix(1.0)
    mu = {"0": 0.0, "a": 0.3, "b": 0.7, "1": 1.0}
    assert oml.lattice_valuation_legal(lattice, matrix, mu).ok
    mu_bad = {"0": 0.0, "a": 0.3, "b": 0.6, "1": 1.0}
    report = oml.lattice_valuation_legal(lattice, matrix, mu_bad)
    assert any("complement" in v for v in report.violations)


def pairwise_lattice_legality(l, m, mu, tol=1e-9):
    """The element-by-element, pair-by-pair loop ``lattice_valuation_legal``
    ran before its three ``admits`` calls, with the cells of
    ``test_quantum.governing_cells``: kept as its oracle."""
    from test_quantum import governing_cells

    meet, join = l.bound_table("meet"), l.bound_table("join")
    names = l.elements
    violations, checked = [], 0
    for i in range(len(names)):
        a = float(mu[names[i]])
        (cell,) = governing_cells(m, "not", (a,), None, tol)
        checked += 1
        if not cell.contains(float(mu[names[l.ortho[i]]]), tol):
            violations.append(f"complement of {names[i]}: {mu[names[l.ortho[i]]]} not in {cell}")
        for j in range(i, len(names)):
            b = float(mu[names[j]])
            case = ORTHOGONAL if l.leq[i, l.ortho[j]] else NON_ORTHOGONAL
            for conn, table in (("or", join), ("and", meet)):
                target = mu[names[table[i, j]]]
                checked += 1
                cells = governing_cells(m, conn, (a, b), case, tol)
                if not any(c.contains(float(target), tol) for c in cells):
                    violations.append(f"{conn}({names[i]}, {names[j]}) [{case}]: {target} not in {cells[0]}")
    return violations, checked


def test_lattice_legality_matches_pair_loop():
    # the benchmark lattices, under the sharp tables and the first
    # non-deterministic negation, with a
    # found state (Fractions up to 64 elements), the state with one value
    # moved, and on the smaller lattices random maps, which break most
    # cells; above 64 elements only the sharp tables, to bound the time
    lattices = [known.boolean(n) for n in workloads.BOOLEAN_ATOMS]
    lattices += [known.mo(n) for n in workloads.MO_SIZES]
    lattices += [known.chain(k) for k in workloads.CHAIN_BLOCKS]
    lattices.append(known.state_free(REPO_ROOT))
    matrices = (quantum_nmatrix(1.0), quantum_nmatrix(0.8, "neg1"))
    rng = np.random.default_rng(4)
    states = 0
    for data in lattices:
        lattice = oml.FiniteOML(data.elements, data.pairs, data.ortho, "0", "1")
        maps = []
        if len(lattice) <= 32:
            maps.append(dict(zip(lattice.elements, rng.random(len(lattice)))))
            maps.append(dict(zip(lattice.elements, rng.choice((0.0, 0.25, 0.5, 1.0), len(lattice)))))
        result = oml.find_state(lattice)
        if result.feasible:
            states += 1
            moved = {e: float(v) for e, v in result.state.items()}
            moved[lattice.elements[1]] = 1.0 - moved[lattice.elements[1]] / 2
            maps += [result.state, moved]
        for mu in maps:
            for matrix in matrices if len(lattice) <= 64 else matrices[:1]:
                report = oml.lattice_valuation_legal(lattice, matrix, mu)
                violations, checked = pairwise_lattice_legality(lattice, matrix, mu)
                assert report.checked == checked, (data.name, matrix.name)
                # only the order differs: complements, then joins, then meets
                assert Counter(report.violations) == Counter(violations), (data.name, matrix.name)
    assert states == len(lattices) - 1


def test_mo2_distinct_blocks_are_not_orthogonal():
    # in the horizontal sum, a sits below no complement of b, so the
    # disjunction cell for (a, b) is the non-orthogonal interval
    lattice = oml.mo2()
    assert not lattice_orthogonal(lattice, "a", "b")
    assert lattice_orthogonal(lattice, "a", "a'")
    bindings = LatticeBindings(lattice, {"P": "a", "Q": "b"})
    assert bindings.classify(Atom("P"), Atom("Q")) == NON_ORTHOGONAL
    assert bindings.denote(Or(Atom("P"), Atom("Q"))) == "1"


def test_lattice_bindings_formula_legality():
    lattice = oml.mo2()
    matrix = quantum_nmatrix(1.0)
    bindings = LatticeBindings(lattice, {"P": "a", "Q": "b"})
    mu = {Atom("P"): 0.5, Atom("Q"): 0.5, Or(Atom("P"), Atom("Q")): 1.0,
          Not(Atom("P")): 0.5}
    assert is_dynamic_legal(mu, matrix, bindings).ok


def _random_formula(rnd: random.Random, depth: int):
    if depth == 0 or rnd.random() < 0.25:
        return Atom(rnd.choice("abc"))
    kind = rnd.choice((Not, And, Or))
    if kind is Not:
        return Not(_random_formula(rnd, depth - 1))
    return kind(_random_formula(rnd, depth - 1), _random_formula(rnd, depth - 1))


def test_bindings_agree_across_backends():
    # 2^3 with its atoms bound to a, b, c, and the diagonal rank-one
    # projectors: element "ab" must denote diag(1, 1, 0), and so on
    lattice = oml.boolean_lattice(3)
    on_lattice = LatticeBindings(lattice, {x: x for x in "abc"})
    on_projectors = ProjectorBindings({x: np.diag([float(x == y) for y in "abc"]) for x in "abc"})

    def diagonal(element: str) -> np.ndarray:
        support = {"0": "", "1": "abc"}.get(element, element)
        return np.diag([float(y in support) for y in "abc"])

    rnd = random.Random(7)
    formulas = [_random_formula(rnd, 6) for _ in range(300)]
    for f, g in zip(formulas, formulas[1:]):
        assert np.allclose(on_projectors.denote(f), diagonal(on_lattice.denote(f))), render(f)
        for other in (Not(f), g):
            assert on_lattice.classify(f, other) == on_projectors.classify(f, other), render(other)


# ---------------------------------------------------------------------------
# valuation search by feasibility


def test_valuation_search_unconstrained():
    matrix = quantum_nmatrix(1.0)
    for lattice in (oml.boolean_lattice(2), oml.boolean_lattice(3)):
        result = oml.legal_valuation_search(lattice, matrix)
        assert result.feasible
        mu = {k: float(v) for k, v in result.point.items()}
        assert oml.lattice_valuation_legal(lattice, matrix, mu).ok


def test_valuation_search_contradictory_pin():
    lattice = oml.mo2()
    matrix = quantum_nmatrix(1.0)
    # the complement equality makes pinning both a and a' to one impossible
    result = oml.legal_valuation_search(lattice, matrix, partial={"a": 1, "a'": 1})
    assert not result.feasible


def test_valuation_search_respects_partial():
    lattice = oml.mo2()
    matrix = quantum_nmatrix(1.0)
    result = oml.legal_valuation_search(lattice, matrix, partial={"a": Fraction(1, 3)})
    assert result.feasible
    assert result.point["a"] == Fraction(1, 3)
    assert result.point["a'"] == Fraction(2, 3)


def test_valuation_search_reads_any_real_pin():
    # a Rational pin exactly, any other number through float(); a pin that
    # is not a finite number in [0,1], compared exactly, is refused: a huge
    # Rational, one just above 1, and what is no number, a string included
    lattice = oml.mo2()
    matrix = quantum_nmatrix(1.0)
    for pin, want in [(np.float32(0.5), Fraction(1, 2)), (Decimal("0.25"), Fraction(1, 4)), (0.1, Fraction(1, 10)),
                      (Fraction(1, 3), Fraction(1, 3)), (np.int64(1), 1)]:
        result = oml.legal_valuation_search(lattice, matrix, partial={"a": pin})
        assert result.feasible and (result.point["a"], result.point["a'"]) == (want, 1 - want), pin
    for bad in (Decimal("nan"), np.float32("nan"), float("inf"), np.float32(1.5), -1, 1 + 1e-12, -1e-12,
                10**400, Fraction(10**400, 3), None, "0.5"):
        with pytest.raises(ValueError, match="out of"):
            oml.legal_valuation_search(lattice, matrix, partial={"a": bad})


def test_pairwise_constraints_propagate_to_families():
    # binary additivity over orthogonal pairs forces full additivity on any
    # orthogonal family in a lattice, so distorting a ternary family sum has
    # no feasible valuation
    lattice = oml.boolean_lattice(3)
    matrix = quantum_nmatrix(1.0)
    names, rows = oml.state_constraints(lattice)
    gap = make_row({"1": 1, "a": -1, "b": -1, "c": -1}, Fraction(1, 10), "ternary-gap")
    assert not solve_feasibility(names, rows + [gap]).feasible
    # sanity: without the distortion the same system is feasible
    assert oml.legal_valuation_search(lattice, matrix).feasible


def test_valuation_search_rejects_other_tables():
    # the rows encode the deterministic negation only; under the first
    # non-deterministic negation this valuation is legal, yet a complement
    # equality would reject it
    lattice = oml.boolean_lattice(2)
    matrix = quantum_nmatrix(0.8, "neg1")
    assert oml.lattice_valuation_legal(lattice, matrix, {"0": 0, "a": 0.6, "b": 0.6, "1": 1}).ok
    with pytest.raises(ValueError, match="neg1"):
        oml.legal_valuation_search(lattice, matrix, partial={"a": 0.6, "b": 0.6})
    assert oml.legal_valuation_search(lattice, quantum_nmatrix(0.8)).feasible


def legal_rows_oracle(l):
    """The rows the legal search built before it reduced to the state rows:
    an ``and-zero:`` equality for every orthogonal pair and the interval
    ``bound:`` inequalities for every other pair, on top of the state rows.
    Kept as the reference the state rows must agree with; the solver takes
    equalities only, so ``reference_solve`` solves these."""
    meet, join = l.bound_table("meet"), l.bound_table("join")
    names, rows = oml.state_constraints(l)
    n = len(names)
    for i in range(n):
        for j in range(i + 1, n):
            jj, mm = join[i, j], meet[i, j]
            if l.leq[i, l.ortho[j]]:
                rows.append(make_row({names[mm]: 1}, 0, f"and-zero:{names[i]}|{names[j]}"))
            else:
                for low, high in ((names[i], names[jj]), (names[j], names[jj]),
                                  (names[mm], names[i]), (names[mm], names[j])):
                    if low == high:
                        continue
                    rows.append(inequality({high: 1, low: -1}, ">=", 0, f"bound:{low}<={high}"))
    return names, rows


def _pin_sets(l):
    """(label, pins, feasible): none, one atom-like element at 1/3, an
    orthogonal pair overloaded past 1, and where the lattice has one a
    comparable pair x < y with mu(x) > mu(y)."""
    inner = [i for i in range(len(l)) if i not in (l.bottom, l.top)]
    x, y = next((i, j) for i in inner for j in inner if i != j and l.leq[i, l.ortho[j]])
    sets = [
        ("none", {}, True),
        ("one", {l.name(inner[0]): Fraction(1, 3)}, True),
        ("orthogonal-overload", {l.name(x): Fraction(3, 5), l.name(y): Fraction(3, 5)}, False),
    ]
    below = [(i, j) for i in inner for j in inner if i != j and l.leq[i, j]]
    if below:
        x, y = below[0]
        sets.append(("order-reversed", {l.name(x): Fraction(3, 4), l.name(y): Fraction(1, 4)}, False))
    return sets


def test_legal_search_matches_the_interval_row_oracle():
    matrix = quantum_nmatrix(1.0)
    lattices = (
        [oml.boolean_lattice(n) for n in (2, 3, 4, 5)]
        + [_mo(n) for n in range(2, 9)]
        + [_greechie_chain(k) for k in (2, 3, 8)]
    )
    seen = Counter()
    for lattice in lattices:
        names, oracle_rows = legal_rows_oracle(lattice)
        for label, pins, feasible in _pin_sets(lattice):
            pin_rows = [make_row({e: 1}, v, f"pin:{e}") for e, v in pins.items()]
            result = oml.legal_valuation_search(lattice, matrix, partial=pins)
            oracle = reference_solve(names, oracle_rows + pin_rows)
            assert result.feasible == oracle.feasible == feasible, (len(lattice), label)
            seen[label] += 1
            if feasible:
                assert reference_check_point(oracle_rows + pin_rows, result.point) == 0.0, (len(lattice), label)
    assert seen["order-reversed"] == 6  # Boolean 2^3..2^5 and the three chains


@pytest.mark.parametrize("build", [chain_with_fixed_point, _o6], ids=["chain-fixed-point", "O6"])
def test_legal_search_refuses_a_non_orthomodular_lattice(build):
    lattice = build()
    first_law = oml.verify_oml(lattice).failures[0]
    with pytest.raises(ValueError, match="not an orthomodular lattice") as info:
        oml.legal_valuation_search(lattice, quantum_nmatrix(1.0))
    assert str(info.value) == f"not an orthomodular lattice: {first_law}"


def test_valuation_search_rejects_bad_partial():
    lattice = oml.mo2()
    matrix = quantum_nmatrix(1.0)
    with pytest.raises(ValueError, match="out of"):
        oml.legal_valuation_search(lattice, matrix, partial={"a": 1.5})
    with pytest.raises(ValueError, match="unknown element"):
        oml.legal_valuation_search(lattice, matrix, partial={"zz": 0.5})


# ---------------------------------------------------------------------------
# the block-diagram loader


def test_greechie_loader_validation():
    with pytest.raises(ValueError, match="more than one atom"):
        oml.from_greechie(["a", "b", "c", "d"], [["a", "b", "c"], ["a", "b", "d"]])
    with pytest.raises(ValueError, match="too small"):
        oml.from_greechie(["a", "b"], [["a", "b"]])
    with pytest.raises(ValueError, match="undeclared"):
        oml.from_greechie(["a", "b", "c"], [["a", "b", "z"]])
    with pytest.raises(ValueError, match="no block"):
        oml.from_greechie(["a", "b", "c", "d"], [["a", "b", "c"]])
    # the empty diagram: 0 and 1 would be two elements over one atom set
    with pytest.raises(ValueError, match="blocks is empty"):
        oml.from_greechie([], [])


@pytest.mark.parametrize("atoms, message", [
    # bottom and top are 0 and 1: the block made 6 elements, not 8
    (["0", "1", "2"], "atom name '0' equals a generated element name"),
    # a' is the complement of a: verify_oml failed while find_state found a "state"
    (["a", "a'", "b"], "atom name \"a'\" equals a generated element name"),
    (["a'", "a", "b"], "atom name \"a'\" equals a generated element name"),
    (["a", "b", "a+b", "c"], "atom name 'a+b' equals a generated element name"),
    # no atom clashes, but {a, b+c} and {a+b, c} both join to "a+b+c"
    (["a", "a+b", "b+c", "c"], "generated element name 'a+b+c' arises twice"),
])
def test_greechie_refuses_atom_names_that_clash_with_generated_ones(atoms, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        oml.from_greechie(atoms, [atoms])


def test_greechie_accepts_primed_atom_names_that_clash_with_nothing():
    lattice = oml.from_greechie(["x'", "y", "z"], [["x'", "y", "z"]])
    assert len(lattice) == 8 and oml.verify_oml(lattice).ok
    assert lattice.elements[lattice.ortho[lattice.index["x'"]]] == "x''"


def _random_diagram(rnd: random.Random, sizes=(3,)):
    """A connected diagram of 1-6 blocks whose sizes are drawn from
    ``sizes``: each new block shares an atom with an earlier one, and its
    other atoms are fresh or, now and then, earlier atoms (which closes
    loops), never two atoms shared with one block.  A single size is used
    without a draw, so it leaves the other draws as they are."""

    def size():
        return sizes[0] if len(sizes) == 1 else rnd.choice(sizes)

    atoms = [f"a{i}" for i in range(size())]
    blocks = [list(atoms)]
    for _ in range(rnd.randint(0, 5)):
        block = [rnd.choice(atoms)]
        for _ in range(size() - 1):
            free = [a for a in atoms if a not in block and all(len(set(b) & {*block, a}) <= 1 for b in blocks)]
            if free and rnd.random() < 0.3:
                block.append(rnd.choice(free))
            else:
                atoms.append(f"a{len(atoms)}")
                block.append(atoms[-1])
        blocks.append(block)
    return atoms, blocks


def _incidence_girth(atoms, blocks) -> float:
    """Shortest cycle of the block-atom incidence graph (inf for a tree), by
    a BFS from every vertex; a loop of order n is a cycle of length 2n."""
    adj = {a: [] for a in atoms}
    for i, b in enumerate(blocks):
        adj[i] = list(b)
        for a in b:
            adj[a].append(i)
    girth = float("inf")
    for source in adj:
        dist, parent = {source: 0}, {source: None}
        queue = [source]
        for u in queue:
            for v in adj[u]:
                if v not in dist:
                    dist[v], parent[v] = dist[u] + 1, u
                    queue.append(v)
                elif parent[u] != v:
                    girth = min(girth, dist[u] + dist[v] + 1)
    return girth


def test_greechie_is_oml_exactly_without_short_loops():
    # the from_greechie contract: an orthomodular lattice exactly when the
    # diagram has no loop of order three or four, i.e. incidence girth >= 10
    rnd = random.Random(0)
    orders = Counter()
    for _ in range(400):
        atoms, blocks = _random_diagram(rnd)
        girth = _incidence_girth(atoms, blocks)
        assert oml.verify_oml(oml.from_greechie(atoms, blocks)).ok == (girth >= 10), blocks
        orders["tree" if girth == float("inf") else girth // 2] += 1
    assert {"tree", 3, 4, 5} <= set(orders), orders


def test_greechie_single_block_is_boolean():
    lattice = oml.from_greechie(["a", "b", "c"], [["a", "b", "c"]])
    assert oml.verify_oml(lattice).ok
    assert len(lattice) == 8
    result = oml.find_state(lattice)
    assert result.feasible


def test_greechie_pasted_pair():
    lattice = oml.from_greechie(["a", "b", "c", "d", "e"], [["a", "b", "c"], ["c", "d", "e"]])
    assert oml.verify_oml(lattice).ok
    # shared atom: complement of c absorbs the other four atoms
    assert lattice.leq[lattice.index["a"], lattice.index["c'"]] and lattice.leq[lattice.index["d"], lattice.index["c'"]]
    result = oml.find_state(lattice)
    assert result.feasible and result.residual == 0.0
