"""Layout guards: ``src/qnsem`` holds only what the program itself reaches.

A top-level definition or a method that only tests name belongs in
``tests/`` (as an oracle or fixture) or nowhere; an import its module never
uses is dead.  Only code reaches a name: comments and docstrings do not
count, string literals do for a top-level name.  A method is reached by an
attribute load of its name, or by overriding a method of a class outside
the package, which that class's own code calls (``cli._Parser.error``).
A defaulted parameter that no program call sets is a setting only tests
reach: the function should use the default as it is.
The benchmark's tracer is not searched: it names the functions it wraps in
strings and skips any name the program lacks, so naming one does not reach
it.
"""

import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "qnsem").glob("*.py"))
# every file through which the program can reach a name: the package, the
# benchmark but its tracer and the entry points declared in pyproject.toml
SEARCHED = [*sorted((ROOT / "src").rglob("*.py")),
            *sorted(p for p in (ROOT / "perfbench").rglob("*.py") if p.name != "tracing.py"),
            ROOT / "pyproject.toml"]


def _definitions(tree: ast.Module):
    """(name, first line, last line) of each top-level function, class and
    assignment target, dunders aside; the first line includes decorators."""
    for node in tree.body:
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, first, node.end_lineno


def _words(lines) -> set[str]:
    return set(re.findall(r"\w+", "\n".join(lines)))


def _code_lines(source: str) -> list[str]:
    """The lines of a Python source with each comment and docstring blanked."""
    docstrings = {
        (node.body[0].lineno, node.body[0].col_offset)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }
    lines = source.splitlines()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT or (tok.type == tokenize.STRING and tok.start in docstrings):
            (r0, c0), (r1, c1) = tok.start, tok.end
            for r in range(r0, r1 + 1):
                line = lines[r - 1]
                lo, hi = (c0 if r == r0 else 0), (c1 if r == r1 else len(line))
                lines[r - 1] = line[:lo] + " " + line[hi:]
    return lines


def unreached_definitions(modules=MODULES, searched=SEARCHED) -> list[str]:
    """``module.name`` of each definition that no searched file's code names
    outside the definition itself."""
    sources = {path: path.read_text() for path in {*modules, *searched}}
    texts = {
        path: _code_lines(source) if path.suffix == ".py" else source.splitlines()
        for path, source in sources.items()
    }
    words = {path: _words(lines) for path, lines in texts.items()}
    unreached = []
    for module in modules:
        lines = texts[module]
        for name, first, last in _definitions(ast.parse(sources[module])):
            elsewhere = any(name in w for path, w in words.items() if path != module)
            if not elsewhere and name not in _words(lines[:first - 1] + lines[last:]):
                unreached.append(f"{module.stem}.{name}")
    return unreached


def _methods(tree: ast.Module):
    """(class, method, first line, last line) of each method of each
    top-level class, dunders aside; the first line includes decorators."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    first = min([item.lineno] + [d.lineno for d in item.decorator_list])
                    yield node.name, item.name, first, item.end_lineno


def _loads(tree: ast.Module) -> list[tuple[str, int]]:
    """(attribute, line) of each attribute load in the tree."""
    return [(node.attr, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]


def _import(path: Path):
    """The module at ``path``: a ``qnsem`` module by its package name, any
    other by its file name, from a directory on ``sys.path``."""
    return importlib.import_module(f"qnsem.{path.stem}" if path in MODULES else path.stem)


def unreached_methods(modules=MODULES, searched=SEARCHED) -> list[str]:
    """``module.Class.method`` of each method that no searched file's code
    loads as an attribute outside the method itself, and that overrides no
    method of a class outside ``modules``."""
    trees = {path: ast.parse(path.read_text()) for path in {*modules, *searched} if path.suffix == ".py"}
    loads = {path: _loads(tree) for path, tree in trees.items()}
    imported = {module: _import(module) for module in modules}
    inside = {m.__name__ for m in imported.values()}
    unreached = []
    for module in modules:
        for cls, name, first, last in _methods(trees[module]):
            if any(attr == name and (path != module or not first <= line <= last)
                   for path, found in loads.items() for attr, line in found):
                continue
            bases = getattr(imported[module], cls).__mro__[1:]
            if not any(hasattr(base, name) for base in bases if base.__module__ not in inside):
                unreached.append(f"{module.stem}.{cls}.{name}")
    return unreached


def _signatures(tree: ast.Module):
    """(qualified name, called name, node, bound) of each top-level function
    and each method of a top-level class: a call names a function by its
    name and ``__init__`` by its class's, and ``bound`` is 1 where a call
    passes the first parameter implicitly (``self``, ``cls``), else 0."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name, node, 0
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in item.decorator_list)
                    called = node.name if item.name == "__init__" else item.name
                    yield f"{node.name}.{item.name}", called, item, 0 if static else 1


def _defaulted(node, bound: int) -> dict[str, int | None]:
    """Each defaulted parameter of the function ``node``, mapped to the
    number of positional arguments a call must pass to reach it (None for
    a keyword-only one)."""
    args = node.args
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    params = {arg.arg: k + 1 - bound for k, arg in enumerate(positional) if k >= first}
    params.update((arg.arg, None) for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
    return params


def _calls(tree: ast.Module) -> list[tuple[str, int, int, set, bool]]:
    """(called name, line, positional count, keywords, unpacks) of each call
    of a name or an attribute; ``unpacks`` when it passes ``*`` or ``**``."""
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            unpacks = any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords)
            calls.append((name, node.lineno, len(node.args), {k.arg for k in node.keywords}, unpacks))
    return calls


def unset_parameters(modules=MODULES, searched=SEARCHED) -> list[str]:
    """``module.function: parameters`` of each function with a defaulted
    parameter that no searched file's call sets outside the function
    itself.  A call sets it by keyword, by enough positional arguments to
    reach it, or by unpacking ``*`` or ``**`` arguments."""
    trees = {path: ast.parse(path.read_text()) for path in {*modules, *searched} if path.suffix == ".py"}
    calls = {path: _calls(tree) for path, tree in trees.items()}
    unset = []
    for module in modules:
        for qualified, called, node, bound in _signatures(trees[module]):
            found = [(count, keywords, unpacks)
                     for path, listed in calls.items() for name, line, count, keywords, unpacks in listed
                     if name == called and (path != module or not node.lineno <= line <= node.end_lineno)]
            missing = [param for param, reach in _defaulted(node, bound).items()
                       if not any(unpacks or param in keywords or (reach is not None and count >= reach)
                                  for count, keywords, unpacks in found)]
            if missing:
                unset.append(f"{module.stem}.{qualified}: {', '.join(missing)}")
    return unset


def unused_imports(modules=MODULES) -> list[str]:
    """``module: name`` of each module-level import its module never uses."""
    unused = []
    for module in modules:
        tree = ast.parse(module.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{module.stem}: {bound}")
    return unused


def test_every_definition_is_reached_outside_tests():
    assert {m.stem for m in MODULES} >= {"cli", "demo", "hilbert", "nmatrix", "oml", "quantum"}
    unreached = unreached_definitions()
    assert not unreached, "named only by tests: " + ", ".join(unreached)


def test_every_method_is_reached_outside_tests():
    unreached = unreached_methods()
    assert not unreached, "methods loaded only by tests: " + ", ".join(unreached)


def test_every_defaulted_parameter_is_set_by_the_program():
    unset = unset_parameters()
    assert not unset, "defaulted parameters no program call sets: " + "; ".join(unset)


def test_every_import_is_used():
    unused = unused_imports()
    assert not unused, "unused imports: " + ", ".join(unused)


def test_unreached_definition_detection(tmp_path):
    module, other = tmp_path / "m.py", tmp_path / "other.py"
    module.write_text(
        "import functools\n\n__all__ = []\nLIMIT = 3\n\n\n@functools.cache\ndef helper():\n    return helper\n\n\n"
        "def used():\n    return LIMIT\n\n\nclass Lonely:\n    pass\n\n\n"
        "def documented():\n    pass\n\n\nQUOTED = 1\n"
    )
    other.write_text(
        '"""Calls documented()."""\n\nfrom m import used  # and documented\n\n\n'
        'def f():\n    """documented, again."""\n    return getattr(m, "QUOTED")\n'
    )
    # helper names only itself; LIMIT is used in the module, used elsewhere;
    # documented is named only in a docstring or comment, QUOTED in a string
    assert unreached_definitions([module], [module, other]) == ["m.helper", "m.Lonely", "m.documented"]


def test_unreached_method_detection(tmp_path, monkeypatch):
    module, other = tmp_path / "layout_planted.py", tmp_path / "layout_caller.py"
    module.write_text(
        "import argparse\n\n\nclass Parser(argparse.ArgumentParser):\n"
        "    def error(self, message):\n        raise SystemExit(message)\n\n"
        "    def helper(self):\n        return self.helper\n\n"
        "    @property\n    def size(self):\n        return self.inner()\n\n"
        "    def inner(self):\n        return 1\n\n"
        "    def documented(self):\n        return 0\n\n"
        "    def __len__(self):\n        return 0\n"
    )
    other.write_text(
        '"""Calls Parser.documented()."""\n\n\n'
        'def f(p):\n    return p.size, getattr(p, "documented")  # p.documented()\n'
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    # error overrides argparse's; helper loads only itself; size is loaded
    # elsewhere, inner in its module; documented is named in a docstring, a
    # string and a comment, never loaded; dunders are not checked
    assert unreached_methods([module], [module, other]) == ["layout_planted.Parser.helper",
                                                             "layout_planted.Parser.documented"]


def test_unset_parameter_detection(tmp_path):
    module, other = tmp_path / "m.py", tmp_path / "other.py"
    module.write_text(
        "def scaled(x, factor=2, *, offset=0):\n    return x * factor + offset\n\n\n"
        "def spread(a=1, b=2):\n    return a + b\n\n\n"
        "def countdown(n=3):\n    return countdown(n - 1) if n else 0\n\n\n"
        "def quoted(flag=False):\n    return flag\n\n\n"
        "class Box:\n    def __init__(self, size=1):\n        self.size = size\n\n"
        "    def fill(self, level=1, tol=0.1):\n        return level, tol\n\n"
        "    @staticmethod\n    def make(size=1):\n        return Box(size)\n"
    )
    other.write_text(
        '"""Calls quoted(flag=True)."""\n\nfrom m import Box, countdown, scaled, spread\n\n\n'
        "def f(options):\n    box = Box.make(3)\n"
        "    return scaled(1, 3), spread(**options), countdown(), box.fill(level=2)  # quoted(True)\n"
    )
    # factor is reached by position and offset never; spread's by unpacking;
    # countdown sets n only in itself; quoted only in a docstring and a
    # comment; Box(size) in make reaches __init__ by the class name, make's
    # own size by position (no self); fill's tol is never passed
    assert unset_parameters([module], [module, other]) == [
        "m.scaled: offset", "m.countdown: n", "m.quoted: flag", "m.Box.fill: tol",
    ]


@pytest.mark.parametrize("source, expected", [
    ("import os\n", ["m: os"]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c\nb\n", ["m: c"]),
    ("from __future__ import annotations\n", []),
])
def test_unused_import_detection(tmp_path, source, expected):
    path = tmp_path / "m.py"
    path.write_text(source)
    assert unused_imports([path]) == expected
