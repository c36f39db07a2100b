"""Propositional formulas over negation, conjunction, and disjunction:
immutable AST, text grammar, parser, minimal-parenthesis printer, and
subformula closure.

Grammar (whitespace insignificant, both binary operators left-associative,
precedence ``!`` > ``&`` > ``|``)::

    or    := and ('|' and)*
    and   := unary ('&' unary)*
    unary := '!' unary | atom | '(' or ')'
    atom  := [A-Za-z_][A-Za-z0-9_]*

The unicode connectives ``¬ ∧ ∨`` are accepted as aliases of ``! & |``; the
renderer always emits ASCII.  Any other non-whitespace character that
starts no token is lexed as a one-character token of its own, which the
grammar never accepts: it is reported as a lexical error at its offset.
Formula identity is syntactic: ``P & Q`` and ``Q & P`` are distinct
formulas even though they denote the same lattice element.

Nodes are hash-consed (Filliâtre & Conchon, "Type-safe modular
hash-consing", 2006): constructing a node whose structure already exists
returns the existing object.  Formula identity is therefore object identity
of interned nodes: ``==`` and ``hash`` are the identity ones, O(1) at any
depth.  The intern table keys an atom by its name, a negation by the
tuple ``(child,)`` and a conjunction or disjunction by ``(left, right,
tag)``; tuples of identity-hashed nodes are cheap to build and to hash.
``parse`` looks nodes up in the table itself, with the same keys, and
calls a constructor only when the table has no live node for the key.
The table holds weak references to the nodes only; a node leaves it, key
and all, when it is garbage-collected.  The table is not locked, so
formulas are built by one thread at a time (qnsem starts no threads).
Nothing here recurses over a formula (parse, render, closure and the node
methods use explicit stacks), so there is no depth limit.
"""

from __future__ import annotations

import re
import weakref
from typing import Iterable, Union

_ATOM_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class _Ref(weakref.ref):
    """Weak reference to an interned node that knows its table key."""

    __slots__ = ("key",)


#: structure key -> weak reference to the one node with that structure.  An
#: atom's key is its name, a negation's ``(child,)`` and a binary node's
#: ``(left, right, tag)``.  A key holds the children only as long as the
#: node, which holds them too: ``_drop`` deletes the entry when the node dies.
_TABLE: dict[object, _Ref] = {}


def _drop(ref: _Ref) -> None:
    if _TABLE.get(ref.key) is ref:
        del _TABLE[ref.key]


def _register(node, key) -> None:
    ref = _Ref(node, _drop)
    ref.key = key
    _TABLE[key] = ref


class _Node:
    __slots__ = ("__weakref__",)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __str__(self):
        return render(self)

    def __repr__(self):
        return f"parse({render(self)!r})"


class Atom(_Node):
    __slots__ = ("name",)
    _level = 4

    def __new__(cls, name: str):
        ref = _TABLE.get(name)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        if not _ATOM_RE.fullmatch(name):
            raise ValueError(f"invalid atom name {name!r}")
        node = _new(cls)
        _set_name(node, name)
        _register(node, name)
        return node

    def __reduce__(self):
        return Atom, (self.name,)


class Not(_Node):
    __slots__ = ("child",)
    _level = 3

    def __new__(cls, child: "Formula"):
        key = (child,)
        ref = _TABLE.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = _new(cls)
        _set_child(node, child)
        _register(node, key)
        return node

    def __reduce__(self):
        return Not, (self.child,)


class _Binary(_Node):
    __slots__ = ("left", "right")

    def __new__(cls, left: "Formula", right: "Formula"):
        key = (left, right, cls._tag)
        ref = _TABLE.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = _new(cls)
        _set_left(node, left)
        _set_right(node, right)
        _register(node, key)
        return node

    def __reduce__(self):
        return type(self), (self.left, self.right)


class And(_Binary):
    __slots__ = ()
    _tag, _level, _sep = 2, 2, " & "


class Or(_Binary):
    __slots__ = ()
    _tag, _level, _sep = 3, 1, " | "


# slot setters, which bypass the immutability guard of __setattr__
_new = object.__new__
_set_name = Atom.name.__set__
_set_child = Not.child.__set__
_set_left, _set_right = _Binary.left.__set__, _Binary.right.__set__


Formula = Union[Atom, Not, And, Or]


class ParseError(ValueError):
    """Syntax error carrying the byte offset and the expected-token set."""

    def __init__(self, text: str, offset: int, expected: tuple[str, ...]):
        self.offset = offset
        self.expected = expected
        super().__init__(
            f"syntax error at offset {offset}: expected {' or '.join(expected)} "
            f"in {text!r}"
        )


_ALIASES = str.maketrans("¬∧∨", "!&|")
_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[!&|()]|\S")
_NO_UNARY = frozenset(("&", "|", ")", ""))  # tokens that cannot start a unary


_LEXICAL = ("'!'", "'&'", "'|'", "'('", "')'", "atom")  # what a stray character could have been


def _syntax_error(text: str, k: int, expected: tuple[str, ...]) -> ParseError:
    """The error for token ``k`` of ``_TOKEN_RE`` over the alias-translated
    text (``len(text)`` past the last): a character that starts no token,
    wherever it stands, is reported as a lexical error instead."""
    offsets = []
    for m in _TOKEN_RE.finditer(str.translate(text, _ALIASES)):
        tok = m.group()
        if len(tok) == 1 and tok not in "!&|()" and not _ATOM_RE.fullmatch(tok):
            return ParseError(text, m.start(), _LEXICAL)
        offsets.append(m.start())
    offsets.append(len(text))
    return ParseError(text, offsets[k], expected)


def parse(text: str) -> Formula:
    """Recursive descent over the grammar above, run on an explicit stack:
    each open parenthesis saves the enclosing disjunction and conjunction
    built so far and the negations that wait for the group.

    The tokens are plain strings from one ``findall``, with ``""`` for the
    end.  A character that starts no token is a one-character token that no
    rule accepts, so it ends in ``_syntax_error``, whose re-scan reports the
    first such character as a lexical error before any syntax error.  The
    aliases map one character to one, so offsets stay put; they are looked
    up only for an error.  Nodes are looked up in ``_TABLE`` with the keys
    documented there; a constructor runs only when no live node has the key."""
    ascii_text = str.translate(text, _ALIASES)  # a TypeError for a non-string
    tokens = _TOKEN_RE.findall(ascii_text)
    tokens.append("")
    interned = _TABLE.get
    and_tag, or_tag = And._tag, Or._tag
    groups = []  # (disjunction, conjunction, negations) outside each open '('
    disj = conj = None
    nots = 0
    pos = 0
    while True:
        # unary := '!' unary | atom | '(' or ')'
        tok = tokens[pos]
        pos += 1
        if tok == "!":
            nots += 1
            continue
        if tok == "(":
            groups.append((disj, conj, nots))
            disj = conj = None
            nots = 0
            continue
        if tok in _NO_UNARY:
            raise _syntax_error(text, pos - 1, ("atom", "'!'", "'('"))
        ref = interned(tok)
        unary = ref and ref()
        if unary is None:
            if not _ATOM_RE.fullmatch(tok):
                raise _syntax_error(text, pos - 1, ("atom", "'!'", "'('"))
            unary = Atom(tok)
        # a unary is complete: negate it, fold it into the conjunction, and
        # close every group that ends here (nodes are truthy, so `ref and
        # ref()` is falsy exactly for a missing or dead entry)
        while True:
            while nots:
                ref = interned((unary,))
                unary = ref and ref() or Not(unary)
                nots -= 1
            if conj is None:
                conj = unary
            else:
                ref = interned((conj, unary, and_tag))
                conj = ref and ref() or And(conj, unary)
            tok = tokens[pos]
            if tok == "&":
                break
            if disj is not None:
                ref = interned((disj, conj, or_tag))
                conj = ref and ref() or Or(disj, conj)
            if tok == "|":
                disj = conj
                conj = None
                break
            unary = conj
            if not groups:
                if tok:
                    raise _syntax_error(text, pos, ("end of input", "'&'", "'|'"))
                return unary
            if tok != ")":
                raise _syntax_error(text, pos, ("')'",))
            pos += 1
            disj, conj, nots = groups.pop()
        pos += 1  # past the '&' or '|'


def render(f: Formula) -> str:
    """Minimal-parenthesis text form such that parse(render(f)) == f.

    Text that opens a node's own form (``!``, ``!(`` and the ``(`` of a
    parenthesised left child) is emitted at once; the rest is pushed."""
    out = []
    append = out.append
    stack = [f]  # nodes still to print, and the text between them
    push, pop = stack.append, stack.pop
    while stack:
        f = pop()
        kind = type(f)
        if kind is Atom:
            append(f.name)
        elif kind is str:
            append(f)
        elif kind is Not:
            child = f.child
            if child._level < 3:
                append("!(")
                push(")")
            else:
                append("!")
            push(child)
        else:
            left, right, level = f.left, f.right, f._level
            # same-level right child would re-associate under the left-associative grammar
            if right._level <= level:
                stack += (")", right, "(")
            else:
                push(right)
            push(f._sep)
            if left._level < level:
                append("(")
                push(")")
            push(left)
    return "".join(out)


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, Not):
        return (f.child,)
    if isinstance(f, (And, Or)):
        return (f.left, f.right)
    return ()


def subformula_closure(formulas: Iterable[Formula]) -> list[Formula]:
    """Deduplicated subformulas of every input, children before parents
    (left before right): a depth-first walk that keeps a node on the stack
    until its children are done."""
    seen: dict[Formula, None] = {}
    for f in formulas:
        stack = [f]
        while stack:
            f = stack[-1]
            if f in seen:
                stack.pop()
            elif type(f) is Atom:
                seen[f] = None
                stack.pop()
            elif type(f) is Not:
                if f.child in seen:
                    seen[f] = None
                    stack.pop()
                else:
                    stack.append(f.child)
            elif f.left not in seen:
                stack.append(f.left)
            elif f.right not in seen:
                stack.append(f.right)
            else:
                seen[f] = None
                stack.pop()
    return list(seen)
