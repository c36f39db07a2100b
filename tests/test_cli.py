import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnsem import fixtures, hilbert, oml
from qnsem.cli import main
from qnsem.formulas import parse, render
from qnsem.nmatrix import classical_matrix, three_valued_matrix
from qnsem.quantum import three_valued_collapse

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import known  # noqa: E402  (the benchmark's lattice builders)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_ok(capsys):
    code, out, _ = run(capsys, "parse", "P | Q & !R")
    assert code == 0
    assert "Or" in out and "Atom(P)" in out


def test_parse_syntax_error(capsys):
    code, _, err = run(capsys, "parse", "P & & Q")
    assert code == 2
    assert "syntax error" in err


def test_deep_nesting_parses(capsys):
    depth = 3000
    names = [f"q{i}" for i in range(depth)]
    right = " | (".join(names) + " | P" + ")" * (depth - 1)
    for text in ["!" * depth + "P", "(" * depth + "P" + ")" * depth, " & ".join(["P", *names]), right]:
        code, out, err = run(capsys, "parse", text)
        assert code == 0 and "Traceback" not in err
        rendered = out.splitlines()[-1].removeprefix("rendered: ")
        assert parse(rendered) is parse(text) and render(parse(rendered)) == rendered


def test_deep_ast_printout_is_linear(capsys):
    # each line carries its depth instead of an indent two spaces per level
    depth = 3000
    text = " & ".join(["P", *(f"q{i}" for i in range(depth))])
    code, out, _ = run(capsys, "parse", text)
    nodes = 2 * depth + 1
    assert code == 0 and len(out) < 20 * nodes
    lines = out.splitlines()
    assert lines[0] == "0 And" and lines[depth] == f"{depth} Atom(P)"
    assert sum(line.split(" ", 1)[1].startswith("Atom(") for line in lines[:-1]) == depth + 1


def test_deep_json_is_input_error(capsys, tmp_path):
    # the json decoder recurses once per nesting level
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, _, err = run(capsys, "legal", "--state", str(deep), "--bind", str(deep), "--formulas", str(deep))
    assert code == 2
    assert "nested too deeply" in err and "Traceback" not in err


def test_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1
    # counts out of range are usage errors, caught before any work starts
    for argv in (
        ("demo", "paper", "--samples", "-5"),
        ("demo", "paper", "--trials", "-1"),
        ("demo", "paper", "--trials", "many"),
        ("ks", "count", "family.json", "--cap", "0"),
        ("ks", "count", "family.json", "--cap", "-3"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and argv[-2] in err and "Traceback" not in err, argv
    # the state solver is exact at every size and takes no back-end flag
    for flag in ("--exact", "--no-exact"):
        code, out, err = run(capsys, "oml", "find-state", "lattice.json", flag)
        assert code == 1 and out == "" and f"unrecognized arguments: {flag}" in err and "Traceback" not in err, flag


def test_missing_file(capsys):
    code, _, err = run(capsys, "ks", "search", "/nonexistent/family.json")
    assert code == 2


def test_witness_static(capsys):
    code, out, _ = run(capsys, "witness", "static")
    assert code == 0
    assert out.strip().endswith("1 != 1/2")


def test_witness_dynamic(capsys):
    code, out, _ = run(capsys, "witness", "dynamic")
    assert code == 0
    assert "1/4 != 1/8" in out


def _state_and_bindings_json():
    e = [hilbert.basis_vector(3, i) for i in range(3)]
    phi = (e[0] + e[1]) / np.sqrt(2)
    rho = np.outer(e[1], e[1].conj())
    state = hilbert.operator_to_json(rho, "density")
    bind = {
        "P": hilbert.operator_to_json(hilbert.projector_from_span([e[0]]), "projector"),
        "Q": hilbert.operator_to_json(hilbert.projector_from_span([phi]), "projector"),
    }
    return state, bind


def _write_state_and_bindings(write_json):
    state, bind = _state_and_bindings_json()
    return write_json("state.json", state), write_json("bind.json", bind)


def test_eval(capsys, write_json):
    state, bind = _write_state_and_bindings(write_json)
    code, out, _ = run(capsys, "eval", "--state", state, "--bind", bind, "P | Q")
    assert code == 0
    assert "v(P | Q) = 1" in out


def test_legal_accepts_born_valuation(capsys, write_json):
    state, bind = _write_state_and_bindings(write_json)
    formulas = write_json("formulas.json", {"formulas": ["P | Q", "P & Q", "!P"]})
    code, out, _ = run(
        capsys, "legal", "--state", state, "--bind", bind, "--formulas", formulas
    )
    assert code == 0
    assert "legal" in out


def test_legal_rejects_under_second_negation(capsys, write_json):
    # with the parametric negation the flat complement value leaves the cell
    e = [hilbert.basis_vector(2, i) for i in range(2)]
    rho = np.outer(e[0], e[0].conj())
    state = write_json("state.json", hilbert.operator_to_json(rho, "density"))
    bind = write_json(
        "bind.json",
        {"P": hilbert.operator_to_json(hilbert.projector_from_span([e[0]]), "projector")},
    )
    formulas = write_json("formulas.json", {"formulas": ["!P"]})
    code, out, _ = run(
        capsys,
        "legal",
        "--state", state,
        "--bind", bind,
        "--formulas", formulas,
        "--alpha", "0.8",
        "--negation", "neg2",
    )
    assert code == 3
    assert "ILLEGAL" in out


def test_legal_tests_membership_at_tol(capsys, write_json):
    # projectors off by 4e-9: v(P | Q) = 1/2 misses the orthogonal cell
    # {v(P) + v(Q)} = {1/2 + 2e-9} by more than the default tolerance but
    # less than --tol
    eps = 4e-9
    p, q = np.diag([1 + eps, 0, 0, 0]).astype(complex), np.diag([0, 1 + eps, 0, 0]).astype(complex)
    p[2, 3] = p[3, 2] = q[2, 3] = q[3, 2] = eps
    bind = write_json("bind.json", {"P": hilbert.operator_to_json(p, "projector"),
                                    "Q": hilbert.operator_to_json(q, "projector")})
    state = write_json("state.json", hilbert.operator_to_json(np.eye(4) / 4, "density"))
    formulas = write_json("formulas.json", {"formulas": ["P | Q", "P & Q", "!P"]})
    code, out, _ = run(capsys, "--tol", "1e-8", "legal", "--state", state, "--bind", bind, "--formulas", formulas)
    assert code == 0 and out.endswith("legal\n")


@pytest.mark.parametrize(
    "kind, matrix",
    [
        ("density", [[0.5, 1.5e308], [1.5e308, 0.5]]),  # m + m^H would overflow
        ("projector", [[1e200, 0.0], [0.0, 0.0]]),  # m @ m overflows
    ],
)
def test_huge_entries_are_one_error_line(capsys, write_json, kind, matrix):
    state, bind = np.diag([1.0, 0.0]), {"P": np.diag([1.0, 0.0])}
    if kind == "density":
        state = np.array(matrix)
    else:
        bind = {"P": np.array(matrix)}
    state = write_json("state.json", hilbert.operator_to_json(state, "density"))
    bind = write_json("bind.json", {k: hilbert.operator_to_json(m, "projector") for k, m in bind.items()})
    formulas = write_json("formulas.json", {"formulas": ["P"]})
    for argv in (["eval", "--state", state, "--bind", bind, "P"],
                 ["legal", "--state", state, "--bind", bind, "--formulas", formulas]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: not a {kind}") and err.count("\n") == 1, err


def test_consequence(capsys, write_json):
    matrix = write_json("three.json", three_valued_matrix().to_json())
    gamma = write_json("gamma.json", {"formulas": ["P"]})
    delta = write_json("delta.json", {"formulas": ["P | Q"]})
    code, out, _ = run(
        capsys, "consequence", "--matrix", matrix, "--gamma", gamma, "--delta", delta
    )
    assert code == 0 and "True" in out

    empty = write_json("empty.json", {"formulas": []})
    code, out, _ = run(
        capsys, "--format", "json", "consequence", "--matrix", matrix, "--gamma", empty,
        "--delta", write_json("d2.json", {"formulas": ["P"]}),
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["holds"] is False and "countermodel" in payload


def test_adequacy_exit_codes(capsys, write_json):
    code, out, _ = run(capsys, "adequacy", "--quantum")
    assert code == 3 and "NOT adequate" in out
    classical = write_json("classical.json", classical_matrix().to_json())
    code, out, _ = run(capsys, "adequacy", "--matrix", classical)
    assert code == 0 and "adequate" in out


def test_rexpansion_verify(capsys, write_json):
    m1 = write_json("three.json", three_valued_matrix().to_json())
    collapse = write_json("map.json", three_valued_collapse().to_json())
    code, out, _ = run(capsys, "rexpansion", "verify", "--m1", m1, "--quantum", "--map", collapse)
    assert code == 0 and "verified" in out
    corrupted = write_json(
        "bad_map.json",
        {"pieces": [{"label": "F", "lo": 1.0, "hi": 1.0}, {"label": "F", "lo": 0.0, "hi": 0.0},
                    {"label": "T", "lo": 0.0, "hi": 1.0}]},
    )
    code, out, _ = run(capsys, "rexpansion", "verify", "--m1", m1, "--quantum", "--map", corrupted)
    assert code == 3
    # the check is one exact symbolic pass: there is no sample count to set
    code, _, err = run(
        capsys, "rexpansion", "verify", "--m1", m1, "--quantum", "--map", collapse, "--samples", "500"
    )
    assert code == 1 and "--samples" in err and "Traceback" not in err


def test_ks_commands(capsys, write_json):
    family = write_json("ks.json", fixtures.ks18().to_json())
    code, out, _ = run(capsys, "ks", "search", family)
    assert code == 3 and "UNSAT" in out
    single = write_json("single.json", fixtures.single_context_dim3().to_json())
    code, out, _ = run(capsys, "ks", "search", single)
    assert code == 0 and "SAT" in out
    code, out, _ = run(capsys, "ks", "count", single)
    assert code == 0 and "3" in out


def test_oml_commands(capsys, write_json):
    mo2 = write_json("mo2.json", oml.mo2().to_json())
    code, out, _ = run(capsys, "oml", "verify", mo2)
    assert code == 0 and "verified" in out
    code, out, _ = run(capsys, "oml", "find-state", mo2)
    assert code == 0 and "state found" in out
    code, out, _ = run(capsys, "oml", "cav", mo2)
    assert code == 3 and "UNSAT" in out
    boolean = write_json("b8.json", oml.boolean_lattice(3).to_json())
    code, out, _ = run(capsys, "oml", "cav", boolean, "--all")
    assert code == 0 and "3 total" in out
    code, out, _ = run(capsys, "oml", "tables", mo2)
    assert code == 0 and "or[orthogonal]" in out and "legal valuation: True" in out


def test_oml_greechie_and_nostate(capsys, write_json):
    greechie = write_json("grid.json", fixtures.nostate_greechie())
    code, out, _ = run(capsys, "oml", "verify", greechie)
    assert code == 0
    code, out, _ = run(capsys, "oml", "find-state", greechie)
    assert code == 3 and "no state exists" in out and "verified: True" in out


def test_broken_lattice_exit(capsys, write_json):
    broken = write_json("broken.json", oml.chain_with_fixed_point().to_json())
    code, out, _ = run(capsys, "oml", "verify", broken)
    assert code == 3 and "NOT an orthomodular lattice" in out
    code, out, err = run(capsys, "oml", "cav", broken)
    assert code == 2 and out == ""
    assert err == "error: not an orthomodular lattice: m meet its complement is not bottom\n"
    # the hexagon O6: an ortholattice, but a <= b and a v (b ^ a') = a
    o6 = write_json("o6.json", {
        "elements": ["0", "a", "b", "b'", "a'", "1"],
        "leq": [["0", "a"], ["0", "b"], ["0", "b'"], ["0", "a'"], ["0", "1"],
                ["a", "b"], ["b'", "a'"], ["a", "1"], ["b", "1"], ["b'", "1"], ["a'", "1"]],
        "ortho": {"0": "1", "1": "0", "a": "a'", "a'": "a", "b": "b'", "b'": "b"},
        "bottom": "0", "top": "1",
    })
    code, out, err = run(capsys, "oml", "cav", o6, "--all")
    assert code == 2 and out == ""
    assert err == "error: not an orthomodular lattice: orthomodular law fails: b != a v (b ^ a')\n"


def test_oml_missing_orthogonal_join_is_an_input_error(capsys, write_json):
    # a and b are orthogonal but have two minimal upper bounds, x and y
    elements = ["0", "a", "b", "x", "y", "1"]
    leq = [["0", e] for e in elements if e != "0"] + [[e, "1"] for e in elements if e not in ("0", "1")]
    leq += [["a", "x"], ["a", "y"], ["b", "x"], ["b", "y"]]
    ortho = {"0": "1", "1": "0", "a": "y", "y": "a", "b": "x", "x": "b"}
    poset = write_json("poset.json", {"elements": elements, "leq": leq, "ortho": ortho, "bottom": "0", "top": "1"})
    # x and y have no meet either; cav reads every bound, find-state only
    # the joins of orthogonal pairs
    code, out, err = run(capsys, "oml", "find-state", poset)
    assert code == 2 and out == ""
    assert "join of 'a' and 'b' does not exist or is not unique" in err
    code, out, err = run(capsys, "oml", "cav", poset)
    assert code == 2 and out == ""
    assert "meet of 'x' and 'y' does not exist or is not unique" in err
    code, out, _ = run(capsys, "oml", "verify", poset)
    assert code == 3 and "join(a, b) missing or not unique" in out


@pytest.mark.parametrize("leq, fault", [
    # a <= b <= a
    ([["0", "a"], ["0", "b"], ["0", "1"], ["a", "b"], ["b", "a"], ["a", "1"], ["b", "1"]],
     "antisymmetry fails at (a, b)"),
    # 0 <= a <= b <= 1 without 0 <= b or a <= 1: every join find-state
    # reads exists here, so it printed a "state" before this was refused
    ([["0", "a"], ["a", "b"], ["0", "1"], ["b", "1"]], "transitivity fails: 0 <= ... <= b but not directly"),
])
def test_oml_relation_that_is_no_partial_order(capsys, write_json, leq, fault):
    relation = write_json("relation.json", {
        "elements": ["0", "a", "b", "1"], "leq": leq,
        "ortho": {"0": "1", "1": "0", "a": "b", "b": "a"}, "bottom": "0", "top": "1",
    })
    for action in ("find-state", "tables", "cav"):
        code, out, err = run(capsys, "oml", action, relation)
        assert (code, out) == (2, "") and err.startswith(f"error: not a partial order: {fault}")
    code, out, _ = run(capsys, "oml", "verify", relation)
    failures = [line for line in out.splitlines() if line.startswith("failure: ")]
    assert code == 3 and f"failure: {fault}" in failures
    assert all(line.startswith(("failure: antisymmetry", "failure: transitivity", "failure: bottom", "failure: top"))
               for line in failures)


def test_oml_cav_all_on_mo100(capsys, write_json):
    # 202 elements: MO_n has no two-valued valuation once n >= 2
    data = known.mo(100)
    mo100 = write_json("mo100.json", oml.FiniteOML(data.elements, data.pairs, data.ortho, "0", "1").to_json())
    code, out, _ = run(capsys, "--format", "json", "oml", "cav", mo100, "--all")
    assert code == 3
    assert json.loads(out) == {"satisfiable": False, "solutions": 0}


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "qnsem", "demo", "paper", "--trials", "1", "--samples", "10"]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "ALL REPRODUCTIONS PASS" in done.stdout


def test_demo_small_scale(capsys):
    code, out, _ = run(capsys, "demo", "paper", "--trials", "8", "--samples", "60")
    assert code == 0
    assert "ALL REPRODUCTIONS PASS" in out


def test_demo_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "--format", "json", "demo", "paper", "--trials", "5", "--samples", "40")
    code2, out2, _ = run(capsys, "--format", "json", "demo", "paper", "--trials", "5", "--samples", "40")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["passed"] is True


def test_demo_json_pin(capsys):
    # the acceptance pin of the full-size report: any change to a computed
    # value, or an output that depends on set or hash order, moves it
    for seed, pin in (
        ("0", "f6ac7ccc30d1b6822e5055650bee4732adf8d9b9ee000b630fc244bcdf6937b8"),
        ("1", "151381e05519fe4b59ea942d64b5ac6b28d45889b2647004673f1deeb82f25f7"),
    ):
        code, out, _ = run(capsys, "--format", "json", "--seed", seed, "demo", "paper")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == pin, seed


def _benchmark_boolean_7():
    data = known.boolean(7)
    return oml.FiniteOML(data.elements, data.pairs, data.ortho, "0", "1").to_json()


# name -> (lattice JSON builder, extra argv, exit code, sha256 of the output)
FIND_STATE_PINS = {
    "boolean-2^3": (lambda: oml.boolean_lattice(3).to_json(), [], 0,
                    "6bf704902fec55a0210ccf34085cfe2fd0b6e33db74e5f88a36c903271807f5c"),
    "MO2": (lambda: oml.mo2().to_json(), [], 0,
            "034e58ef21da9294384e98cfe83cd789ddf875a0f5c610985a81869983cf78e6"),
    # 128 elements, solved exactly like the others
    "boolean-2^7": (_benchmark_boolean_7, [], 0,
                    "53d9563a4005fb97abff36fa4942a13526ab99811e1f0708cf8da85cd0729cf5"),
    # no state: the certificate's rows and multipliers
    "state-free": (fixtures.nostate_greechie, [], 3,
                   "e69155f16b007eb3c77dfd449a28550ecacbe585d957e5240f96ec27e8fdc002"),
}


@pytest.mark.parametrize("name", list(FIND_STATE_PINS))
def test_find_state_json_pin(capsys, write_json, name):
    # the state, residual, detail and certificate the solver prints, byte
    # for byte: any change to a pivot, a ratio tie or a number moves them
    build, extra, want, pin = FIND_STATE_PINS[name]
    code, out, _ = run(capsys, "--format", "json", "oml", "find-state", write_json("l.json", build()), *extra)
    assert code == want
    assert hashlib.sha256(out.encode()).hexdigest() == pin, name


# name -> (argv, lattice JSON builder for a file appended to argv or None, exit code)
NO_SCIPY_CASES = {
    "demo-paper": (["demo", "paper", "--trials", "1", "--samples", "10"], None, 0),
    "find-state-boolean-2^7": (["oml", "find-state"], _benchmark_boolean_7, 0),
    "find-state-state-free": (["oml", "find-state"], fixtures.nostate_greechie, 3),
}


@pytest.mark.parametrize("name", list(NO_SCIPY_CASES))
def test_command_does_not_import_scipy(write_json, name):
    # qnsem does not depend on scipy, whose import costs about half a second
    # and 45 MB of peak RSS; a fresh interpreter shows what a command loads
    argv, build, want = NO_SCIPY_CASES[name]
    if build is not None:
        argv = [*argv, write_json("l.json", build())]
    script = (
        "import contextlib, io, json, sys\n"
        "from qnsem import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({['--format', 'json', *argv]!r})\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('scipy'))]))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    code, scipy_modules = json.loads(done.stdout.splitlines()[-1])
    assert code == want
    assert scipy_modules == []


def test_tol_flag(capsys, write_json):
    # --tol reaches eval: a projector off by 1e-7 passes only at --tol 1e-6;
    # main leaves the environment as it found it
    state, _ = _write_state_and_bindings(write_json)
    nearly = np.diag([1.0 + 1e-7, 0.0, 0.0])
    bind = write_json("nearly.json", {"P": hilbert.operator_to_json(nearly, "projector")})
    # a tolerance that is not finite and positive is a usage error: at nan,
    # `residual > tol` is never true and a half projector would pass
    half = write_json("half.json", {"P": hilbert.operator_to_json(np.diag([0.5, 0.0]), "projector")})
    state2 = write_json("state2.json", hilbert.operator_to_json(np.eye(2) / 2, "density"))
    environ = dict(os.environ)
    for argv, want in [
        (["--tol", "1e-8", "witness", "static"], 0),
        (["eval", "--state", state, "--bind", bind, "P"], 2),
        (["--tol", "1e-6", "eval", "--state", state, "--bind", bind, "P"], 0),
        (["eval", "--state", state2, "--bind", half, "P"], 2),
        (["--tol", "nan", "eval", "--state", state2, "--bind", half, "P"], 1),
        (["--tol", "inf", "eval", "--state", state, "--bind", bind, "P"], 1),
        (["--tol", "0", "eval", "--state", state, "--bind", bind, "P"], 1),
        (["--tol", "-1", "eval", "--state", state, "--bind", bind, "P"], 1),
        (["--tol", "tiny", "ks", "count", state], 1),
    ]:
        code, _, err = run(capsys, *argv)
        assert code == want, argv
        assert "Traceback" not in err
        assert dict(os.environ) == environ


def test_json_output_mode(capsys, write_json):
    single = write_json("single.json", fixtures.single_context_dim3().to_json())
    code, out, _ = run(capsys, "--format", "json", "ks", "count", single)
    assert code == 0
    assert json.loads(out)["solutions"] == 3


def test_whole_float_counts_read_as_ints(capsys, write_json):
    family = write_json("family.json", _family_with(dim=3.0))
    state, bind = _state_and_bindings_json()
    state = write_json("state.json", {**state, "rows": 3.0, "cols": 3.0})
    bind = write_json("bind.json", bind)
    assert run(capsys, "ks", "count", family)[:2] == (0, "solutions: 3\n")
    assert run(capsys, "eval", "--state", state, "--bind", bind, "P")[0] == 0


def _family_with_string_entry():
    family = fixtures.single_context_dim3().to_json()
    family["vectors"]["e1"][0] = ["1", "0"]
    return family


def _lattice_with_list_name():
    lattice = oml.mo2().to_json()
    lattice["elements"][1] = ["a"]
    return lattice


def _mo2_with(**fields):
    lattice = oml.mo2().to_json()
    lattice.update(fields)
    return lattice


def _mo2_ortho_with(**values):
    return _mo2_with(ortho={**oml.mo2().to_json()["ortho"], **values})


def _family_with(**fields):
    return {**fixtures.single_context_dim3().to_json(), **fields}


def _classical_with(**fields):
    return {**classical_matrix().to_json(), **fields}


def _state_with_entry(k, entry):
    state = _state_and_bindings_json()[0]
    state["entries"][k] = entry
    return state


def _family_with_large_entry():
    family = _family_with()
    family["vectors"]["e1"][0] = [10**400, 0]
    return family


def _collapse_with_string_bounds():
    pieces = three_valued_collapse().to_json()["pieces"]
    return {"pieces": [{**p, "lo": str(p["lo"]), "hi": str(p["hi"])} for p in pieces]}


def _lattice_with_string_elements():
    # names of one character each, so the string would read as the list of
    # them and pass unnoticed
    lattice = oml.boolean_lattice(1).to_json()
    return {**lattice, "elements": "".join(lattice["elements"])}


# case -> builder of the argv for a command that reads one JSON file of the
# wrong shape, with every other input well formed; a builder takes
# write_json and writes only its own case's files
_WRONG_SHAPE_CASES = {
    "ks-top-level-array": lambda w: ["ks", "search", w("ks-array.json", [1, 2])],
    "ks-string-vector-entry": lambda w: ["ks", "search", w("family.json", _family_with_string_entry())],
    "oml-list-element-name": lambda w: ["oml", "verify", w("lattice.json", _lattice_with_list_name())],
    "oml-leq-unknown-element": lambda w: ["oml", "verify", w("leq-unknown.json", _mo2_with(leq=[["0", "x"]]))],
    "oml-leq-not-a-pair": lambda w: ["oml", "verify", w("leq-single.json", _mo2_with(leq=[["0"]]))],
    "oml-ortho-unknown-element": lambda w: ["oml", "cav", w("ortho-unknown.json", _mo2_ortho_with(a="x"))],
    "oml-bottom-unknown-element": lambda w: ["oml", "find-state", w("bottom-unknown.json", _mo2_with(bottom="x"))],
    "oml-top-unknown-element": lambda w: ["oml", "cav", w("top-unknown.json", _mo2_with(top="x"))],
    "eval-bind-array": lambda w: ["eval", "--bind", w("bind-array.json", [1, 2]),
                                  "--state", w("state.json", _state_and_bindings_json()[0]), "P"],
    "eval-state-array": lambda w: ["eval", "--bind", w("bind.json", _state_and_bindings_json()[1]),
                                   "--state", w("state-array.json", [1, 2]), "P"],
    "consequence-matrix-array": lambda w: ["consequence", "--matrix", w("matrix-array.json", [1, 2])],
    "consequence-gamma-number": lambda w: ["consequence", "--matrix", w("matrix.json", classical_matrix().to_json()),
                                           "--gamma", w("gamma.json", {"formulas": [1]})],
    # a misspelled key is no empty premise list, and a string is no list
    # of its letters
    "consequence-gamma-missing-key": lambda w: [
        "consequence", "--matrix", w("misspelt-matrix.json", classical_matrix().to_json()),
        "--gamma", w("misspelt.json", {"formula": ["Q"]}), "--delta", w("p.json", {"formulas": ["P"]}),
    ],
    "consequence-gamma-string": lambda w: [
        "consequence", "--matrix", w("string-matrix.json", classical_matrix().to_json()),
        "--gamma", w("string.json", {"formulas": "PQ"}), "--delta", w("pq.json", {"formulas": ["P & Q"]}),
    ],
    "rexpansion-map-array": lambda w: ["rexpansion", "verify", "--m1", w("m1.json", classical_matrix().to_json()),
                                       "--quantum", "--map", w("map-array.json", [1, 2])],
    "eval-bind-operator-array": lambda w: ["eval", "--bind", w("bind-operator-array.json", {"P": [1, 2]}),
                                           "--state", w("state-for-array.json", _state_and_bindings_json()[0]), "P"],
    "ks-vectors-array": lambda w: ["ks", "count", w("vectors-array.json", _family_with(vectors=[[1, 0]]))],
    "ks-context-string": lambda w: ["ks", "count", w("context-string.json", _family_with(contexts=["e1"]))],
    "consequence-tables-array": lambda w: ["consequence", "--matrix", w("tables-array.json", _classical_with(tables=[]))],
    "consequence-values-string": lambda w: ["consequence", "--matrix", w("values-string.json", _classical_with(values="tF"))],
    "oml-elements-string": lambda w: ["oml", "verify", w("elements-string.json", _lattice_with_string_elements())],
    "eval-state-entry-too-large": lambda w: ["eval", "--bind", w("bind-for-large.json", _state_and_bindings_json()[1]),
                                             "--state", w("state-large.json", _state_with_entry(0, [10**400, 0])), "P"],
    "ks-dim-infinite": lambda w: ["ks", "count", w("dim-infinite.json", _family_with(dim=float("inf")))],
    "ks-vector-entry-too-large": lambda w: ["ks", "count", w("vector-large.json", _family_with_large_entry())],
    # counts that are not whole numbers were truncated: dim 3.9 read as 3
    "ks-dim-fractional": lambda w: ["ks", "count", w("dim-fractional.json", _family_with(dim=3.9))],
    "eval-state-rows-fractional": lambda w: ["eval", "--bind", w("bind-for-rows.json", _state_and_bindings_json()[1]),
                                             "--state", w("state-rows.json", {**_state_and_bindings_json()[0],
                                                                              "rows": 3.5}), "P"],
    # a collapse map whose bounds are strings verified
    "rexpansion-map-string-bound": lambda w: [
        "rexpansion", "verify", "--m1", w("m1-for-strings.json", three_valued_matrix().to_json()),
        "--quantum", "--map", w("map-strings.json", _collapse_with_string_bounds()),
    ],
}


def test_wrong_shape_cases_write_distinct_files():
    # a file name two cases shared would hold whichever case wrote it last
    owner = {}
    for case, build in _WRONG_SHAPE_CASES.items():
        written = []
        build(lambda name, obj: written.append(name) or name)
        assert written
        for name in written:
            assert owner.setdefault(name, case) == case, (name, owner[name], case)


# case -> what its error message must name
_WRONG_SHAPE_MESSAGES = {
    "oml-leq-unknown-element": "leq pair ['0', 'x'] names unknown element 'x'",
    "oml-leq-not-a-pair": "leq entry ['0'] is not a pair",
    "oml-ortho-unknown-element": "ortho value of 'a' names unknown element 'x'",
    "oml-bottom-unknown-element": "bottom names unknown element 'x'",
    "oml-top-unknown-element": "top names unknown element 'x'",
    "eval-bind-operator-array": "binding 'P' must be a JSON object, got list",
    "ks-vectors-array": "vectors must be a JSON object, got list",
    "ks-context-string": "contexts[0] must be a list, not the string 'e1'",
    "consequence-tables-array": "tables must be a JSON object, got list",
    "consequence-values-string": "values must be a list, not the string 'tF'",
    "oml-elements-string": "elements must be a list, not the string",
    "eval-state-entry-too-large": "entries[0][0] must be a finite number in the float range",
    "ks-dim-infinite": "dim must be a finite number in the float range",
    "ks-vector-entry-too-large": "vectors['e1'][0][0] must be a finite number in the float range",
    "ks-dim-fractional": "dim must be a whole number, got 3.9",
    "eval-state-rows-fractional": "rows must be a whole number, got 3.5",
    "rexpansion-map-string-bound": "pieces[0].lo must be a number, got str",
}


@pytest.mark.parametrize("case", list(_WRONG_SHAPE_CASES))
def test_wrong_json_shape_is_an_input_error(capsys, write_json, tmp_path, case):
    argv = _WRONG_SHAPE_CASES[case](write_json)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        Path(a).name for a in argv if a.endswith(".json")
    )
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert _WRONG_SHAPE_MESSAGES.get(case, "") in err


# ---------------------------------------------------------------------------
# fuzzing the formula inputs: every outcome is an exit code, never a traceback


def run_quietly(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


token_soup = st.lists(
    st.sampled_from(["P", "Q", "R", "x_1", "!", "&", "|", "(", ")", " ", "¬", "∧", "∨", "$", "1", "-", "\n"]),
    max_size=40,
).map("".join)


@st.composite
def deep_nesting(draw):
    """Random wrappings, up to 2,000 deep, around an atom; unbalanced on request."""
    wrappers = draw(st.lists(st.sampled_from(["!{}", "({})", "{} & P", "Q | ({})", "({}) | R", "!({} & Q)"]),
                             min_size=1, max_size=2000))
    text = "P"
    for w in wrappers:
        text = w.format(text)
    if draw(st.booleans()):
        cut = draw(st.integers(0, len(text)))
        text = text[:cut] + draw(token_soup) + text[cut:]
    return text


formula_text = st.one_of(token_soup, deep_nesting(), st.text(max_size=20))


@given(formula_text)
@settings(max_examples=150, deadline=None)
def test_fuzz_parse(text):
    code, err = run_quietly("parse", text)
    assert code in (0, 1, 2, 3) and "Traceback" not in err


@given(st.lists(formula_text, max_size=2), st.lists(formula_text, max_size=2), st.booleans())
@settings(max_examples=60, deadline=None)
def test_fuzz_consequence(gamma, delta, three_valued):
    # the two-valued matrix is deterministic, so deep formulas over three
    # atoms have 8 valuations; the three-valued one only sees short soup
    if three_valued:
        gamma, delta = [t[:12] for t in gamma], [t[:12] for t in delta]
    matrix = (three_valued_matrix() if three_valued else classical_matrix()).to_json()
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, obj in (("m", matrix), ("g", {"formulas": gamma}), ("d", {"formulas": delta})):
            paths.append(os.path.join(tmp, f"{name}.json"))
            with open(paths[-1], "w") as fh:
                json.dump(obj, fh)
        code, err = run_quietly("consequence", "--matrix", paths[0], "--gamma", paths[1], "--delta", paths[2])
    assert code in (0, 1, 2, 3) and "Traceback" not in err


# ---------------------------------------------------------------------------
# fuzzing the JSON inputs: one field of a valid file replaced by a value of
# another JSON type; every outcome is an exit code, never a traceback


def _valid_json_inputs():
    """kind -> (valid object, argv builder given the paths of every kind)."""
    state, bind = _state_and_bindings_json()
    return {
        "bindings": (bind, lambda p: ["eval", "--state", p["state"], "--bind", p["bindings"], "P | Q"]),
        "state": (state, lambda p: ["eval", "--state", p["state"], "--bind", p["bindings"], "P & !Q"]),
        "matrix": (three_valued_matrix().to_json(),
                   lambda p: ["consequence", "--matrix", p["matrix"], "--gamma", p["gamma"], "--delta", p["delta"]]),
        "collapse-map": (three_valued_collapse().to_json(),
                         lambda p: ["rexpansion", "verify", "--m1", p["matrix"], "--quantum", "--map", p["collapse-map"]]),
        "lattice": (oml.mo2().to_json(), lambda p: ["oml", "find-state", p["lattice"]]),
        "greechie": ({"atoms": ["a", "b", "c", "d", "e"], "blocks": [["a", "b", "c"], ["c", "d", "e"]]},
                     lambda p: ["oml", "cav", p["greechie"]]),
        "vector-family": (fixtures.single_context_dim3().to_json(), lambda p: ["ks", "count", p["vector-family"]]),
    }


def _json_paths(obj, path=()):
    """Every key path into ``obj``, the empty one excluded."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _json_paths(value, path + (key,))


_NESTED = "\x00nested\x00"  # a placeholder string the writer swaps for a deep array
_NESTED_DEPTH = 100_000

_json_values = st.one_of(
    st.lists(st.one_of(st.integers(), st.text(max_size=3)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.text(max_size=4),
    st.integers(),
    st.floats(),
    st.sampled_from([10**400, -(10**400), float("inf"), float("nan")]),  # beyond every float
    st.booleans(),
    st.none(),
    st.just(_NESTED),
)


_VALID_JSON_INPUTS = _valid_json_inputs()


@st.composite
def _mutated_input(draw):
    kind = draw(st.sampled_from(sorted(_VALID_JSON_INPUTS)))
    obj = json.loads(json.dumps(_VALID_JSON_INPUTS[kind][0]))
    path = draw(st.sampled_from(list(_json_paths(obj))))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(_json_values)
    return kind, path, obj


@given(_mutated_input())
@settings(max_examples=300, deadline=None)
def test_fuzz_json_inputs(mutated):
    kind, _path, obj = mutated
    files = {name: value for name, (value, _) in _VALID_JSON_INPUTS.items()}
    files.update({kind: obj, "gamma": {"formulas": ["P"]}, "delta": {"formulas": ["P | Q"]}})
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, value in files.items():
            paths[name] = os.path.join(tmp, f"{name}.json")
            text = json.dumps(value).replace(json.dumps(_NESTED), "[" * _NESTED_DEPTH + "]" * _NESTED_DEPTH)
            with open(paths[name], "w") as fh:
                fh.write(text)
        code, err = run_quietly(*_VALID_JSON_INPUTS[kind][1](paths))
    assert code in (0, 1, 2, 3) and "Traceback" not in err
