import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnsem.formulas import (
    And,
    Atom,
    Not,
    Or,
    ParseError,
    children,
    parse,
    render,
    subformula_closure,
)


def test_parse_atom():
    assert parse("P") == Atom("P")
    assert parse("((P))") == Atom("P")


def test_parse_precedence():
    assert parse("P | Q & !R") == Or(Atom("P"), And(Atom("Q"), Not(Atom("R"))))


def test_parse_left_associativity():
    assert parse("P & Q & R") == And(And(Atom("P"), Atom("Q")), Atom("R"))
    assert parse("P | Q | R") == Or(Or(Atom("P"), Atom("Q")), Atom("R"))


def test_parse_unicode_aliases():
    assert parse("¬P ∧ Q ∨ R") == parse("!P & Q | R")


def test_parse_errors_carry_offset_and_expectations():
    with pytest.raises(ParseError) as err:
        parse("P | ")
    assert err.value.offset == 4
    assert any("atom" in e for e in err.value.expected)
    with pytest.raises(ParseError) as err:
        parse("(P | Q")
    assert err.value.offset == 6
    with pytest.raises(ParseError):
        parse("P Q")
    with pytest.raises(ParseError):
        parse("P $ Q")


def test_render_examples():
    assert render(Atom("P")) == "P"
    assert render(Or(Atom("P"), And(Atom("Q"), Atom("R")))) == "P | Q & R"
    assert render(And(Or(Atom("P"), Atom("Q")), Atom("R"))) == "(P | Q) & R"
    assert render(Not(And(Atom("P"), Atom("Q")))) == "!(P & Q)"


def test_closure_examples():
    p, q = Atom("P"), Atom("Q")
    assert subformula_closure([Or(p, q)]) == [p, q, Or(p, q)]
    assert subformula_closure([Not(Not(p))]) == [p, Not(p), Not(Not(p))]
    # syntactic identity: the two conjunctions stay distinct
    assert subformula_closure([And(p, q), And(q, p)]) == [p, q, And(p, q), And(q, p)]


def test_closure_is_topologically_sorted():
    f = parse("!(P & Q) | (Q & !P)")
    closure = subformula_closure([f])
    seen = set()
    for g in closure:
        assert all(c in seen for c in children(g))
        seen.add(g)


def test_atom_name_validation():
    with pytest.raises(ValueError):
        Atom("2bad")


@st.composite
def formulas(draw, depth=4):
    if depth == 0:
        return Atom(draw(st.sampled_from(["P", "Q", "R", "S", "T2", "U_x"])))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return Atom(draw(st.sampled_from(["P", "Q", "R", "S", "T2", "U_x"])))
    if kind == 1:
        return Not(draw(formulas(depth=depth - 1)))
    left = draw(formulas(depth=depth - 1))
    right = draw(formulas(depth=depth - 1))
    return And(left, right) if kind == 2 else Or(left, right)


@given(formulas(depth=6))
@settings(max_examples=400)
def test_roundtrip_property(f):
    assert parse(render(f)) == f


@given(formulas(depth=5))
@settings(max_examples=200)
def test_closure_children_first_property(f):
    closure = subformula_closure([f])
    assert closure[-1] == f
    assert len(set(closure)) == len(closure)


# ---------------------------------------------------------------------------
# hash-consing and the explicit-stack walkers, against the recursive oracles

import copy
import gc
import pickle
import random
import re
import sys
from pathlib import Path

from qnsem import formulas as formulas_mod
from qnsem.nmatrix import Bindings

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402  (the benchmark's formula generators)


_ORACLE_ALIASES = {"¬": "!", "∧": "&", "∨": "|"}
_ORACLE_ATOM_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def tokenize_oracle(text):
    """A character-by-character tokenizer that keeps every token's offset,
    independent of the one ``parse`` falls back on for its errors."""
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        c = _ORACLE_ALIASES.get(c, c)
        if c in "!&|()":
            tokens.append((c, i))
            i += 1
            continue
        m = _ORACLE_ATOM_RE.match(text, i)
        if m:
            tokens.append(("atom", i, m.group()))
            i = m.end()
            continue
        raise ParseError(text, i, ("'!'", "'&'", "'|'", "'('", "')'", "atom"))
    tokens.append(("end", len(text)))
    return tokens


def parse_oracle(text):
    """The recursive-descent parser the explicit-stack one replaced."""
    tokens = tokenize_oracle(text)
    pos = 0

    def peek():
        return tokens[pos]

    def fail(*expected):
        raise ParseError(text, peek()[1], expected)

    def parse_or():
        nonlocal pos
        node = parse_and()
        while peek()[0] == "|":
            pos += 1
            node = Or(node, parse_and())
        return node

    def parse_and():
        nonlocal pos
        node = parse_unary()
        while peek()[0] == "&":
            pos += 1
            node = And(node, parse_unary())
        return node

    def parse_unary():
        nonlocal pos
        kind = peek()[0]
        if kind == "!":
            pos += 1
            return Not(parse_unary())
        if kind == "atom":
            tok = peek()
            pos += 1
            return Atom(tok[2])
        if kind == "(":
            pos += 1
            node = parse_or()
            if peek()[0] != ")":
                fail("')'")
            pos += 1
            return node
        fail("atom", "'!'", "'('")

    node = parse_or()
    if peek()[0] != "end":
        fail("end of input", "'&'", "'|'")
    return node


def _level(f):
    return 1 if isinstance(f, Or) else 2 if isinstance(f, And) else 3 if isinstance(f, Not) else 4


def render_oracle(f):
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        child = render_oracle(f.child)
        return f"!({child})" if _level(f.child) < 3 else f"!{child}"
    op, lvl = ("&", 2) if isinstance(f, And) else ("|", 1)
    left, right = render_oracle(f.left), render_oracle(f.right)
    if _level(f.left) < lvl:
        left = f"({left})"
    if _level(f.right) <= lvl:
        right = f"({right})"
    return f"{left} {op} {right}"


def closure_oracle(roots):
    seen = {}

    def visit(f):
        if f in seen:
            return
        for c in children(f):
            visit(c)
        seen[f] = None

    for f in roots:
        visit(f)
    return list(seen)


class SetBindings(Bindings):
    """Subsets of a four-point universe, with every evaluation logged."""

    def __init__(self, atoms):
        super().__init__(atoms)
        self.log = []

    def ortho(self, x):
        self.log.append(("ortho", x))
        return frozenset(range(4)) - x

    def meet(self, x, y):
        self.log.append(("meet", x, y))
        return x & y

    def join(self, x, y):
        self.log.append(("join", x, y))
        return x | y


def denote_oracle(bindings, f):
    if f in bindings._cache:
        return bindings._cache[f]
    if isinstance(f, Atom):
        e = bindings.atoms[f.name]
    elif isinstance(f, Not):
        e = bindings.ortho(denote_oracle(bindings, f.child))
    elif isinstance(f, And):
        e = bindings.meet(denote_oracle(bindings, f.left), denote_oracle(bindings, f.right))
    else:
        e = bindings.join(denote_oracle(bindings, f.left), denote_oracle(bindings, f.right))
    bindings._cache[f] = e
    return e


def _set_atoms(names):
    rnd = random.Random(7)
    return {n: frozenset(i for i in range(4) if rnd.random() < 0.5) for n in names}


ATOM_NAMES = ["P", "Q", "R", "S", "T2", "U_x"]


def _agree_with_oracles(roots):
    """Same text, closure order, parse result and denotation order."""
    for f in roots:
        text = render(f)
        assert text == render_oracle(f)
        assert parse(text) is parse_oracle(text) is f
    assert subformula_closure(roots) == closure_oracle(roots)
    names = {g.name for g in subformula_closure(roots) if isinstance(g, Atom)}
    new, old = SetBindings(_set_atoms(names)), SetBindings(_set_atoms(names))
    assert [new.denote(f) for f in roots] == [denote_oracle(old, f) for f in roots]
    assert new.log == old.log and list(new._cache) == list(old._cache)


@given(st.lists(formulas(depth=6), min_size=1, max_size=4))
@settings(max_examples=150)
def test_walkers_match_recursive_oracles(roots):
    _agree_with_oracles(roots)


def test_walkers_match_oracles_on_benchmark_generators():
    rnd = random.Random(11)
    atoms = [Atom(n) for n in ATOM_NAMES]
    _agree_with_oracles([workloads._random_tree(rnd, atoms, 10) for _ in range(60)])
    _agree_with_oracles([workloads._formula_with_closure(rnd, atoms[:3], 60, 7) for _ in range(5)])
    _agree_with_oracles(workloads._dag(rnd, 150)[:20])
    for _kind, text, tree, rendered in workloads._nesting_chains(rnd, 200):
        assert parse(text) is parse_oracle(text) is tree
        assert render(tree) == render_oracle(tree) == rendered


token_soup = st.lists(
    st.sampled_from(
        ["P", "Q", "x_1", "!", "&", "|", "(", ")", " ", "\t", "\x1c", "¬", "∧", "∨", "$", "1", "é", "_",
         "\u00a0", "\u3000", "\n", "\x1f", "#", "9x"]
    ),
    max_size=30,
).map("".join)


@given(token_soup)
@settings(max_examples=400)
def test_parse_errors_match_recursive_oracle(text):
    try:
        expected = parse_oracle(text)
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            parse(text)
        assert (got.value.offset, got.value.expected, str(got.value)) == (err.offset, err.expected, str(err))
    else:
        assert parse(text) is expected


# a stray character where a unary or an operator belongs, and after a
# syntax error or an unclosed group: the lexical error always wins, as the
# oracle scans the whole text first
@pytest.mark.parametrize("text", ["P & $", "!9x", "(# | P)", "P $ Q", "P & & $", "(P $", "P Q #", "!)\u00a0é",
                                  "((P) | ) 9x", "P &\n", "&\x1f$"])
def test_lexical_error_wins(text):
    with pytest.raises(ParseError) as want:
        parse_oracle(text)
    with pytest.raises(ParseError) as got:
        parse(text)
    got, want = got.value, want.value
    assert (got.offset, got.expected, str(got)) == (want.offset, want.expected, str(want))


def test_parse_rebuilds_a_node_behind_a_dead_reference():
    # the table can hold a reference whose node is gone while its entry is
    # still there; parse must then build the node anew, not return None
    class Gone:
        pass

    table = formulas_mod._TABLE
    p, q = Atom("Dead_p"), Atom("Dead_q")
    keys = ["Dead_r", (p,), (p, q, And._tag), (p, q, Or._tag)]
    for key in keys:
        assert key not in table
        gone = Gone()
        ref = formulas_mod._Ref(gone)
        ref.key = key
        del gone
        assert ref() is None
        table[key] = ref
    f = parse("Dead_r | !Dead_p | Dead_p & Dead_q | (Dead_p | Dead_q)")
    assert render(f) == "Dead_r | !Dead_p | Dead_p & Dead_q | (Dead_p | Dead_q)"
    r, not_p, p_and_q, p_or_q = f.left.left.left, f.left.left.right, f.left.right, f.right
    assert (type(r), type(not_p), type(p_and_q), type(p_or_q)) == (Atom, Not, And, Or)
    assert r.name == "Dead_r" and not_p.child is p
    assert (p_and_q.left, p_and_q.right) == (p_or_q.left, p_or_q.right) == (p, q)
    for key, node in zip(keys, (r, not_p, p_and_q, p_or_q)):
        assert table[key]() is node
    assert parse("Dead_r | !Dead_p | Dead_p & Dead_q | (Dead_p | Dead_q)") is f


@pytest.mark.parametrize("text", [1, None, b"P & Q"])
def test_parse_refuses_a_non_string(text):
    with pytest.raises(TypeError):
        parse(text)


def test_equal_structure_is_the_same_object():
    f = parse("!(P & Q) | (Q & !P)")
    g = Or(Not(And(Atom("P"), Atom("Q"))), And(Atom("Q"), Not(Atom("P"))))
    assert f is g and hash(f) == hash(g)
    assert parse("P & Q") is not parse("Q & P")
    assert And(Atom("P"), Atom("Q")) is not Or(Atom("P"), Atom("Q"))
    assert copy.deepcopy(f) is f and pickle.loads(pickle.dumps(f)) is f


def test_nodes_are_immutable():
    f = parse("P & Q")
    with pytest.raises(AttributeError):
        f.left = Atom("R")
    with pytest.raises(AttributeError):
        del f.right
    assert parse("P & Q") is f and f.left is Atom("P")


def test_intern_table_holds_no_strong_references():
    gc.collect()
    baseline = len(formulas_mod._TABLE)
    kept = [And(Atom(f"fresh{i}"), Not(Atom(f"fresh{i + 1}"))) for i in range(10_000)]
    assert len(formulas_mod._TABLE) > baseline + 10_000
    del kept
    gc.collect()
    assert len(formulas_mod._TABLE) == baseline


def test_intern_table_frees_a_deep_chain():
    # a key holds its node's children: freeing the chain must free every
    # entry, key and all
    gc.collect()
    baseline = len(formulas_mod._TABLE)
    f = Atom("deep0")
    for i in range(10_000):
        f = Not(f) if i % 2 else And(f, Atom("deep1"))
    assert len(formulas_mod._TABLE) == baseline + 10_002
    del f
    gc.collect()
    assert len(formulas_mod._TABLE) == baseline


def _deep_chains(depth):
    """(text, formula) for four ways of nesting ``depth`` deep."""
    p, q = Atom("P"), Atom("Q")
    neg, left, right = p, p, p
    for _ in range(depth):
        neg, left, right = Not(neg), And(left, q), Or(q, right)
    return [
        ("!" * depth + "P", neg),
        ("(" * depth + "P" + ")" * depth, p),
        ("P" + " & Q" * depth, left),
        ("Q | (" * (depth - 1) + "Q | P" + ")" * (depth - 1), right),
    ]


def test_no_depth_limit():
    depth = 100_000
    assert sys.getrecursionlimit() < depth
    atoms = {"P": frozenset({0, 1}), "Q": frozenset({1, 2})}
    chains = _deep_chains(depth)
    for text, f in chains:
        g = parse(text)
        assert g is f and g == f and hash(g) == hash(f)
        assert render(f) == (text if f is not Atom("P") else "P")
        closure = subformula_closure([f])
        assert closure[-1] is f and len(closure) == len(set(closure))
        SetBindings(atoms).denote(f)
    assert len(subformula_closure([chains[2][1]])) == depth + 2
