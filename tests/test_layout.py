"""Layout guards: ``src/qnsem`` holds only what the program itself reaches.

A top-level definition that only tests name belongs in ``tests/`` (as an
oracle or fixture) or nowhere; an import its module never uses is dead.
Only code reaches a name: comments and docstrings do not count, string
literals do.  The benchmark's tracer is not searched: it names the functions
it wraps in strings and skips any name the program lacks, so naming one
does not reach it.
"""

import ast
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
