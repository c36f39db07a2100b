"""Command-line surface: fixture IO, verification jobs, and the full
reproduction demo.

Exit codes are a contract: 0 success, 1 usage error, 2 malformed input or
broken invariant, 3 negative verification verdict (illegal valuation,
inadequate matrix, unsatisfiable search, infeasible state space, failed
reproduction).  ``--tol`` (default ``linalg.DEFAULT_TOL``; finite and
positive, else a usage error) is the tolerance of the commands that read
operators or vectors from files: ``eval``, ``legal`` and ``ks``.  The other
commands check fixed constructions at their own pinned tolerances.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import demo as demo_mod
from . import hilbert, kscheck, oml
from .formulas import Atom, ParseError, children, parse, render
from .linalg import DEFAULT_TOL, DimensionMismatch, InvariantViolation, json_object
from .nmatrix import (
    FiniteNMatrix,
    ThresholdMap,
    adequacy_check,
    dynamic_consequence,
    is_dynamic_legal,
    verify_rexpansion,
)
from .quantum import (
    NEGATION_VARIANTS,
    ProjectorBindings,
    dynamic_witness,
    evaluate_state,
    quantum_nmatrix,
    static_violation_witness,
)

USAGE_ERROR, INPUT_ERROR, NEGATIVE = 1, 2, 3


def _tolerance(text: str) -> float:
    """A --tol value: finite and positive, since a NaN, infinite or
    non-positive tolerance would switch every validation off or on."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid tolerance {text!r}") from None
    if not 0.0 < tol < float("inf"):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and positive, got {text!r}")
    return tol


def _count(least: int):
    """An argparse type for an integer count of at least ``least``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid count {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {text!r}")
        return value

    return parse


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object at the top level, got {type(obj).__name__}")
    return obj


def _emit(args, human_lines, payload) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=1))
    else:
        for line in human_lines:
            print(line)


def _load_bindings(path: str, tol: float) -> ProjectorBindings:
    obj = _load_json(path)
    atoms = {}
    for name, op in obj.items():
        matrix, kind = hilbert.operator_from_json(json_object(op, f"binding {name!r}"), tol)
        if kind != "projector":
            raise InvariantViolation(f"binding {name!r} is not a projector")
        atoms[name] = matrix
    return ProjectorBindings(atoms, tol)


def _load_state(path: str, tol: float):
    matrix, kind = hilbert.operator_from_json(_load_json(path), tol)
    if kind != "density":
        raise InvariantViolation(f"state file {path!r} does not hold a density operator")
    return matrix


def _load_formulas(path: str) -> list:
    texts = _load_json(path).get("formulas")
    if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
        raise ValueError(f'{path}: expected {{"formulas": [<formula text>, ...]}}')
    return [parse(text) for text in texts]


def _format_ast(f) -> list[str]:
    """One line per node, pre-order, prefixed with its depth (``1 And``):
    linear in the size of the tree at any depth."""
    lines = []
    stack = [(f, 0)]
    while stack:
        f, depth = stack.pop()
        if isinstance(f, Atom):
            lines.append(f"{depth} Atom({f.name})")
            continue
        lines.append(f"{depth} {type(f).__name__}")
        stack.extend((c, depth + 1) for c in reversed(children(f)))
    return lines


# ---------------------------------------------------------------------------
# subcommands


def _cmd_parse(args) -> int:
    f = parse(args.formula)
    ast, rendered = _format_ast(f), render(f)
    _emit(args, ast + [f"rendered: {rendered}"], {"formula": rendered, "ast": ast})
    return 0


def _cmd_eval(args) -> int:
    bindings = _load_bindings(args.bind, args.tol)
    rho = _load_state(args.state, args.tol)
    formula = parse(args.formula)
    valuation = evaluate_state(rho, bindings, [formula], args.tol)
    lines = [f"v({render(f)}) = {valuation[f]:.12g}" for f in valuation.domain()]
    payload = {"values": {render(f): valuation[f] for f in valuation.domain()}}
    _emit(args, lines, payload)
    return 0


def _cmd_legal(args) -> int:
    bindings = _load_bindings(args.bind, args.tol)
    rho = _load_state(args.state, args.tol)
    formulas = _load_formulas(args.formulas)
    matrix = quantum_nmatrix(args.alpha, args.negation)
    valuation = evaluate_state(rho, bindings, formulas, args.tol)
    report = is_dynamic_legal(valuation, matrix, bindings, args.tol)
    lines = [f"checked {report.checked} compound formulas against {matrix.name}"]
    lines += [f"violation: {v}" for v in report.violations]
    lines += [f"ambiguous relation: {render(a)} vs {render(b)}" for a, b in report.ambiguous]
    lines.append("legal" if report.ok else "ILLEGAL")
    payload = {
        "matrix": matrix.name,
        "checked": report.checked,
        "violations": [str(v) for v in report.violations],
        "legal": report.ok,
    }
    _emit(args, lines, payload)
    return 0 if report.ok else NEGATIVE


def _cmd_witness(args) -> int:
    if args.kind == "dynamic":
        w = dynamic_witness()
        rows = [
            ("P", *w.pair(parse("P"))),
            ("Q", *w.pair(parse("Q"))),
            ("P & Q", *w.pair(parse("P & Q"))),
            ("P | Q", *w.pair(parse("P | Q"))),
        ]
        lines = [f"{'formula':8} {'state':>10} {'shifted':>10}"]
        for name, a, b in rows:
            lines.append(f"{name:8} {a:>10.6g} {b:>10.6g}")
        lines.append("equal on P and Q; the compounds differ: 1/4 != 1/8 and 3/4 != 7/8")
        payload = {"values": {name: [a, b] for name, a, b in rows}}
        _emit(args, lines, payload)
        return 0
    w = static_violation_witness()
    v = w.valuation
    names = ["P", "Q", "P | Q", "Pp", "Qp", "Pp | Qp"]
    lines = [f"v({n}) = {v[parse(n)]:.6g}" for n in names]
    lines.append("equal components, different disjunction values: 1 != 1/2")
    payload = {"values": {n: v[parse(n)] for n in names}}
    _emit(args, lines, payload)
    return 0


def _cmd_consequence(args) -> int:
    matrix = FiniteNMatrix.from_json(_load_json(args.matrix))
    gamma = _load_formulas(args.gamma) if args.gamma else []
    delta = _load_formulas(args.delta) if args.delta else []
    result = dynamic_consequence(matrix, gamma, delta)
    lines = [
        f"{[render(g) for g in gamma]} entails {[render(d) for d in delta]}: {result.holds}"
    ]
    payload = {"holds": result.holds}
    if result.countermodel is not None:
        counter = {render(f): v for f, v in result.countermodel.items()}
        payload["countermodel"] = counter
        lines += [f"countermodel: {counter}"]
    _emit(args, lines, payload)
    return 0 if result.holds else NEGATIVE


def _cmd_adequacy(args) -> int:
    if args.matrix:
        matrix = FiniteNMatrix.from_json(_load_json(args.matrix))
        name = args.matrix
    else:
        matrix = quantum_nmatrix(args.alpha, args.negation)
        name = matrix.name
    report = adequacy_check(matrix)
    lines = [f"{name}: checked {report.clauses_checked} clause cases"]
    lines += [f"violation: {v}" for v in report.violations]
    lines.append("adequate" if report.adequate else "NOT adequate")
    payload = {
        "matrix": name,
        "violations": [str(v) for v in report.violations],
        "adequate": report.adequate,
    }
    _emit(args, lines, payload)
    return 0 if report.adequate else NEGATIVE


def _cmd_rexpansion(args) -> int:
    m1 = FiniteNMatrix.from_json(_load_json(args.m1))
    if not args.quantum:
        raise InvariantViolation("only the interval tables are supported as the expanded matrix")
    m2 = quantum_nmatrix(args.alpha)
    collapse = ThresholdMap.from_json(_load_json(args.map))
    report = verify_rexpansion(m1, m2, collapse)
    lines = [f"condition {i.condition} issue: {i.detail}" for i in report.issues]
    lines.append("rexpansion verified" if report.ok else "NOT a rexpansion")
    payload = {
        "issues": [{"condition": i.condition, "detail": i.detail} for i in report.issues],
        "ok": report.ok,
    }
    _emit(args, lines, payload)
    return 0 if report.ok else NEGATIVE


def _cmd_ks(args) -> int:
    family = kscheck.VectorContextFamily.from_json(_load_json(args.family))
    context_report = kscheck.verify_contexts(family, args.tol)
    if not context_report.ok:
        raise InvariantViolation("; ".join(context_report.problems))
    if args.action == "search":
        result = kscheck.search_classical_valuation(family, args.tol)
        if result is None:
            _emit(args, ["UNSAT"], {"satisfiable": False})
            return NEGATIVE
        ones = sorted(k for k, v in result.items() if v == 1)
        _emit(
            args,
            [f"SAT: true on {', '.join(ones)}"],
            {"satisfiable": True, "assignment": result},
        )
        return 0
    count = kscheck.count_solutions(family, cap=args.cap, tol=args.tol)
    _emit(args, [f"solutions: {count}"], {"solutions": count})
    return 0


def _load_lattice(path: str) -> oml.FiniteOML:
    obj = _load_json(path)
    if "blocks" in obj:
        return oml.from_greechie(obj["atoms"], obj["blocks"])
    return oml.FiniteOML.from_json(obj)


def _cmd_oml(args) -> int:
    lattice = _load_lattice(args.lattice)
    if args.action == "verify":
        report = oml.verify_oml(lattice)
        lines = [f"elements: {len(lattice)}"]
        lines += [f"failure: {f}" for f in report.failures]
        lines.append("orthomodular lattice verified" if report.ok else "NOT an orthomodular lattice")
        _emit(args, lines, {"elements": len(lattice), "failures": list(report.failures), "ok": report.ok})
        return 0 if report.ok else NEGATIVE
    if args.action == "find-state":
        result = oml.find_state(lattice)
        if result.feasible:
            state = {k: float(v) for k, v in result.state.items()}
            lines = [f"state found; residual {result.residual:g}"]
            lines += [f"  mu({k}) = {v:g}" for k, v in sorted(state.items())]
            _emit(args, lines, {"feasible": True, "state": state, "residual": result.residual})
            return 0
        payload = {"feasible": False, "detail": result.detail}
        lines = ["no state exists: " + result.detail]
        if result.certificate is not None:
            names, rows = oml.state_constraints(lattice)
            payload["certificate_rows"] = [
                {"row": rows[i].label, "multiplier": str(m)} for i, m in result.certificate.multipliers
            ]
            payload["certificate_verified"] = result.certificate.verify(rows)
            lines.append(f"certificate over {len(result.certificate.multipliers)} rows, verified: "
                         f"{payload['certificate_verified']}")
        _emit(args, lines, payload)
        return NEGATIVE
    if args.action == "cav":
        first, count = oml.find_two_valued_valuation(lattice, count_all=args.all)
        if first is None:
            _emit(args, ["UNSAT: no two-valued valuation"], {"satisfiable": False, "solutions": 0})
            return NEGATIVE
        lines = [f"two-valued valuation found ({count} total)" if args.all else "two-valued valuation found"]
        lines += [f"  v({k}) = {v}" for k, v in sorted(first.items())]
        _emit(args, lines, {"satisfiable": True, "solutions": count, "assignment": first})
        return 0
    # tables
    matrix = quantum_nmatrix(args.alpha)
    desc = matrix.describe()
    lines = [f"{desc['name']}: V = {desc['values']}, D = {desc['designated']}"]
    for conn, cases in desc["tables"].items():
        for case, rule in cases.items():
            lines.append(f"  {conn}[{case}]: {rule}")
    result = oml.find_state(lattice)
    if result.feasible:
        mu = {k: float(v) for k, v in result.state.items()}
        legality = oml.lattice_valuation_legal(lattice, matrix, mu)
        lines.append(
            f"sample state is a legal valuation: {legality.ok} ({legality.checked} cells checked)"
        )
        desc["sample_state_legal"] = legality.ok
    _emit(args, lines, desc)
    return 0


def _cmd_demo(args) -> int:
    sections = demo_mod.run_all(seed=args.seed, trials=args.trials, roundtrips=args.samples)
    all_passed = all(s.passed for s in sections)
    lines = []
    for s in sections:
        status = "pass" if s.passed else "FAIL"
        lines.append(f"[{status}] {s.name} ({s.seconds:.2f}s)")
        for line in s.lines:
            mark = "ok " if line.passed else "BAD"
            lines.append(
                f"    {mark} {line.label}: expected {line.expected}, got {line.computed}"
                f" (residual {line.residual:.3g}, tol {line.tol:g})"
            )
    lines.append("ALL REPRODUCTIONS PASS" if all_passed else "SOME REPRODUCTIONS FAIL")
    payload = {"passed": all_passed, "sections": [s.as_json() for s in sections]}
    _emit(args, lines, payload)
    return 0 if all_passed else NEGATIVE


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="qnsem", description=__doc__)
    parser.add_argument("--format", choices=("human", "json"), default="human")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    parser.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL, help="tolerance of eval, legal and ks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a formula and print its tree")
    p.add_argument("formula")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("eval", help="Born valuation of a formula in a state")
    p.add_argument("--state", required=True)
    p.add_argument("--bind", required=True)
    p.add_argument("formula")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("legal", help="check a state's valuation against the interval tables")
    p.add_argument("--state", required=True)
    p.add_argument("--bind", required=True)
    p.add_argument("--formulas", required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--negation", choices=NEGATION_VARIANTS, default="deterministic")
    p.set_defaults(func=_cmd_legal)

    p = sub.add_parser("witness", help="print a worked counterexample")
    p.add_argument("kind", choices=("dynamic", "static"))
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("consequence", help="decide a sequent over a finite matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--gamma")
    p.add_argument("--delta")
    p.set_defaults(func=_cmd_consequence)

    p = sub.add_parser("adequacy", help="check the designation-containment clauses")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--matrix")
    group.add_argument("--quantum", action="store_true")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--negation", choices=NEGATION_VARIANTS, default="deterministic")
    p.set_defaults(func=_cmd_adequacy)

    p = sub.add_parser("rexpansion", help="verify a collapse map between matrices")
    psub = p.add_subparsers(dest="action", required=True)
    pv = psub.add_parser("verify")
    pv.add_argument("--m1", required=True)
    pv.add_argument("--quantum", action="store_true")
    pv.add_argument("--alpha", type=float, default=1.0)
    pv.add_argument("--map", required=True)
    pv.set_defaults(func=_cmd_rexpansion)

    p = sub.add_parser("ks", help="classical truth-value search on a vector family")
    p.add_argument("action", choices=("search", "count"))
    p.add_argument("family")
    p.add_argument("--cap", type=_count(1), default=10**6)
    p.set_defaults(func=_cmd_ks)

    p = sub.add_parser("oml", help="orthomodular lattice jobs")
    p.add_argument("action", choices=("verify", "find-state", "cav", "tables"))
    p.add_argument("lattice")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--all", action="store_true", help="count all two-valued valuations")
    p.set_defaults(func=_cmd_oml)

    p = sub.add_parser("demo", help="full reproduction report")
    p.add_argument("target", choices=("paper",))
    p.add_argument("--trials", type=_count(0), default=1000)
    p.add_argument("--samples", type=_count(0), default=10_000, help="parser round-trip count")
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (
        InvariantViolation,
        DimensionMismatch,
        ParseError,
        ValueError,
        TypeError,
        KeyError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except RecursionError:
        # formulas are walked and the KS search backtracks on an explicit
        # stack; what still recurses once per level is the json decoder
        # (nesting)
        print("error: input nested too deeply", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
