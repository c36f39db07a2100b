import inspect
import itertools
import random
import re
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qnsem import fixtures, hilbert, oml
from qnsem.feasibility import EQ, GE, check_point, make_row, solve_feasibility
from qnsem.nmatrix import NON_ORTHOGONAL, ORTHOGONAL, is_dynamic_legal
from qnsem.formulas import And, Atom, Not, Or, render
from qnsem.quantum import ProjectorBindings, adequate_restricted_tables, quantum_nmatrix

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
    report = oml.verify_oml(oml.chain_with_fixed_point())
    assert not report.ok
    assert any("complement" in f for f in report.failures)


def test_mo2_verifies():
    assert oml.verify_oml(oml.mo2()).ok


def test_meet_join_examples():
    m = oml.mo2()
    assert oml.meet_oml(m, "a", "1") == "a"
    assert oml.meet_oml(m, "a", "b") == "0"  # horizontal sum
    assert oml.join_oml(m, "a", "a'") == "1"


def test_bound_error_on_broken_poset():
    # two incomparable middle layers with no unique bounds
    elements = ["0", "x", "y", "p", "q", "1"]
    pairs = [("0", e) for e in elements if e != "0"]
    pairs += [(e, "1") for e in elements if e != "1"]
    pairs += [("x", "p"), ("x", "q"), ("y", "p"), ("y", "q")]
    ortho = {"0": "1", "1": "0", "x": "p", "p": "x", "y": "q", "q": "y"}
    broken = oml.FiniteOML(elements, pairs, ortho, "0", "1")
    with pytest.raises(ValueError, match="does not exist or is not unique"):
        oml.meet_oml(broken, "p", "q")
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


def _random_poset(rnd, n):
    """The transitive closure of a random DAG, its elements shuffled."""
    density = rnd.uniform(0.05, 0.6)
    leq = np.eye(n, dtype=bool) | np.triu([[rnd.random() < density for _ in range(n)] for _ in range(n)])
    for k in range(n):
        leq |= np.outer(leq[:, k], leq[k])
    perm = rnd.sample(range(n), n)
    leq = leq[np.ix_(perm, perm)]
    names = [str(k) for k in range(n)]
    pairs = [(names[i], names[j]) for i, j in np.argwhere(leq) if i != j]
    return oml.FiniteOML(names, pairs, {e: e for e in names}, "0", "0")


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


def test_bound_tables_on_large_mo_match_oracle():
    # sizes the benchmark does not reach (62 and 202 elements)
    for n in (30, 100):
        data = known.mo(n)
        _assert_bounds_match_oracle(oml.FiniteOML(data.elements, data.pairs, data.ortho, "0", "1"))


def test_order_defects_are_computed_once_per_lattice(monkeypatch):
    # the bound tables, every verify_oml and the precondition of the
    # two-valued search read one check of the order
    calls = []
    check = oml._order_defects
    monkeypatch.setattr(oml, "_order_defects", lambda leq: calls.append(leq) or check(leq))
    lattice = oml.FiniteOML.from_json(oml.boolean_lattice(3).to_json())
    assert oml.verify_oml(lattice).ok and oml.verify_oml(lattice, max_failures=1).ok
    assert oml.find_two_valued_valuation(lattice, count_all=True)[1] == 3
    assert len(calls) == 1
    broken = oml.chain_with_fixed_point()
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
    assert broken.orthogonal("a", "b")
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
    bindings = oml.LatticeBindings(lattice, {"P": "a", "Q": "b"})
    readers = [
        lambda: oml.meet_oml(lattice, "a", "b"),
        lambda: oml.join_oml(lattice, "a", "a"),
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
    pairs = [(x, y) for x in b.elements for y in b.elements if x != y and b.leq_ids(x, y)]
    return oml.FiniteOML(b.elements, pairs, dict(zip(b.elements, perm)), "0", "1")


def _broken_lattices():
    """Fixtures failing each law, and seeded random relations (nearly all
    broken, often in many places)."""
    lattices = [oml.chain_with_fixed_point(), _o6(), _poset_without_orthogonal_join()]
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
    back = oml.FiniteOML.from_json(m.to_json())
    assert back.elements == m.elements
    assert (back.leq == m.leq).all()
    assert (back.ortho == m.ortho).all()


# ---------------------------------------------------------------------------
# states


def test_find_state_boolean():
    result = oml.find_state(oml.boolean_lattice(3))
    assert result.feasible and result.residual == 0.0
    assert oml.verify_general_state(oml.boolean_lattice(3), result.state) == 0.0


def test_uniform_atom_weights_are_a_state():
    lattice = oml.boolean_lattice(3)
    third = Fraction(1, 3)
    mu = {}
    for e in lattice.elements:
        size = 0 if e == "0" else (3 if e == "1" else len(e))
        mu[e] = size * third
    assert oml.verify_general_state(lattice, mu) == 0.0


def test_mo2_half_state_checks_directly():
    mu = {"0": Fraction(0), "1": Fraction(1), "a": Fraction(1, 2), "a'": Fraction(1, 2),
          "b": Fraction(1, 2), "b'": Fraction(1, 2)}
    assert oml.verify_general_state(oml.mo2(), mu) == 0.0


@pytest.mark.parametrize("bad", [float("nan"), -1e-6, 1 + 1e-6, float("inf"), float("-inf")])
def test_general_state_value_out_of_range(bad):
    # NaN fails every comparison, so it must be caught as out of range
    # before the exact residual tries to convert it to a ratio
    mu = {"0": 0.0, "1": 1.0, "a": bad, "a'": 0.5, "b": 0.5, "b'": 0.5}
    with pytest.raises(ValueError, match=r"state value out of range at 'a'"):
        oml.verify_general_state(oml.mo2(), mu)
    assert oml.verify_general_state(oml.mo2(), {**mu, "a": 0.5}) == 0.0


def test_find_state_mo2():
    result = oml.find_state(oml.mo2())
    assert result.feasible and result.residual == 0.0


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
    assert oml.verify_general_state(lattice, result.state) == 0.0


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


@pytest.mark.parametrize("build", [oml.chain_with_fixed_point, _o6], ids=["chain-fixed-point", "O6"])
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
    # the benchmark lattices, under the sharp tables, the first
    # non-deterministic negation and the designation-keyed tables, with a
    # found state (Fractions up to 64 elements), the state with one value
    # moved, and on the smaller lattices random maps, which break most
    # cells; above 64 elements only the sharp tables, to bound the time
    lattices = [known.boolean(n) for n in workloads.BOOLEAN_ATOMS]
    lattices += [known.mo(n) for n in workloads.MO_SIZES]
    lattices += [known.chain(k) for k in workloads.CHAIN_BLOCKS]
    lattices.append(known.state_free(REPO_ROOT))
    matrices = (quantum_nmatrix(1.0), quantum_nmatrix(0.8, "neg1"), adequate_restricted_tables(0.6))
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
    assert not lattice.orthogonal("a", "b")
    assert lattice.orthogonal("a", "a'")
    bindings = oml.LatticeBindings(lattice, {"P": "a", "Q": "b"})
    assert bindings.classify(Atom("P"), Atom("Q")) == NON_ORTHOGONAL
    assert bindings.denote(Or(Atom("P"), Atom("Q"))) == "1"


def test_lattice_bindings_formula_legality():
    lattice = oml.mo2()
    matrix = quantum_nmatrix(1.0)
    bindings = oml.LatticeBindings(lattice, {"P": "a", "Q": "b"})
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
    on_lattice = oml.LatticeBindings(lattice, {x: x for x in "abc"})
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
    # is not a finite number in [0,1] is refused
    lattice = oml.mo2()
    matrix = quantum_nmatrix(1.0)
    for pin, want in [(np.float32(0.5), Fraction(1, 2)), (Decimal("0.25"), Fraction(1, 4)), (0.1, Fraction(1, 10)),
                      (Fraction(1, 3), Fraction(1, 3)), (np.int64(1), 1)]:
        result = oml.legal_valuation_search(lattice, matrix, partial={"a": pin})
        assert result.feasible and (result.point["a"], result.point["a'"]) == (want, 1 - want), pin
    for bad in (Decimal("nan"), np.float32("nan"), float("inf"), np.float32(1.5), -1):
        with pytest.raises(ValueError, match="out of"):
            oml.legal_valuation_search(lattice, matrix, partial={"a": bad})


def test_pairwise_constraints_propagate_to_families():
    # binary additivity over orthogonal pairs forces full additivity on any
    # orthogonal family in a lattice, so distorting a ternary family sum has
    # no feasible valuation
    lattice = oml.boolean_lattice(3)
    matrix = quantum_nmatrix(1.0)
    gap = make_row({"1": 1, "a": -1, "b": -1, "c": -1}, EQ, Fraction(1, 10), "ternary-gap")
    result = oml.legal_valuation_search(lattice, matrix, extra_rows=[gap])
    assert not result.feasible
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
    Kept as the reference the state rows must agree with."""
    meet, join = l.bound_table("meet"), l.bound_table("join")
    names, rows = oml.state_constraints(l)
    n = len(names)
    for i in range(n):
        for j in range(i + 1, n):
            jj, mm = join[i, j], meet[i, j]
            if l.leq[i, l.ortho[j]]:
                rows.append(make_row({names[mm]: 1}, EQ, 0, f"and-zero:{names[i]}|{names[j]}"))
            else:
                for low, high in ((names[i], names[jj]), (names[j], names[jj]),
                                  (names[mm], names[i]), (names[mm], names[j])):
                    if low == high:
                        continue
                    rows.append(make_row({high: 1, low: -1}, GE, 0, f"bound:{low}<={high}"))
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
            pin_rows = [make_row({e: 1}, EQ, v, f"pin:{e}") for e, v in pins.items()]
            result = oml.legal_valuation_search(lattice, matrix, partial=pins)
            oracle = solve_feasibility(names, oracle_rows + pin_rows)
            assert result.feasible == oracle.feasible == feasible, (len(lattice), label)
            seen[label] += 1
            if feasible:
                assert check_point(oracle_rows + pin_rows, result.point) == 0.0, (len(lattice), label)
    assert seen["order-reversed"] == 6  # Boolean 2^3..2^5 and the three chains


@pytest.mark.parametrize("build", [oml.chain_with_fixed_point, _o6], ids=["chain-fixed-point", "O6"])
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
# projector fragments and the block-diagram loader


def test_fragment_closure_of_qubit_rays(rng):
    e = [hilbert.basis_vector(2, i) for i in range(2)]
    tilted = (e[0] + 2 * e[1]) / np.sqrt(5)
    fragment = oml.from_projectors(
        {"P": hilbert.projector_from_span([e[0]]), "Q": hilbert.projector_from_span([tilted])}
    )
    # closure adds the two complements: an MO2-shaped six-element lattice
    assert len(fragment) == 6
    assert oml.verify_oml(fragment).ok


def test_greechie_loader_validation():
    with pytest.raises(ValueError, match="more than one atom"):
        oml.from_greechie(["a", "b", "c", "d"], [["a", "b", "c"], ["a", "b", "d"]])
    with pytest.raises(ValueError, match="too small"):
        oml.from_greechie(["a", "b"], [["a", "b"]])
    with pytest.raises(ValueError, match="undeclared"):
        oml.from_greechie(["a", "b", "c"], [["a", "b", "z"]])
    with pytest.raises(ValueError, match="no block"):
        oml.from_greechie(["a", "b", "c", "d"], [["a", "b", "c"]])


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
    assert lattice.leq_ids("a", "c'") and lattice.leq_ids("d", "c'")
    result = oml.find_state(lattice)
    assert result.feasible and result.residual == 0.0
