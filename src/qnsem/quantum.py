"""The interval-valued truth tables generated by quantum states: disjunction
and conjunction split by orthogonality of the denoted projectors, negation by
complement, designated set [alpha, 1].

Every density operator induces a valuation through the Born probabilities of
the denoted projectors; those valuations are exactly the ones the tables
admit.  Formulas denote projectors through ``ProjectorBindings``, the
projector instance of the shared ``nmatrix.Bindings`` evaluator, and
``evaluate_state`` takes one state or a ``(trials, d, d)`` stack of states
over atoms bound to stacks; ``born_legality_mask`` gives the legality
verdicts of such a stack at once.  The same tables serve
finite orthomodular lattices (see ``oml``).  The module also builds the two
non-deterministic negation variants, the double-negation ordering chain,
and the two worked counterexamples: a four-dimensional pair of states
witnessing genuine non-determinism and a three-dimensional configuration
breaking the composability principle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import hilbert
from .formulas import And, Atom, Formula, Not, Or, render, subformula_closure
from .linalg import DEFAULT_TOL, DimensionMismatch, as_stack, max_norms
from .nmatrix import (
    AMBIGUOUS,
    ANY,
    DESIGNATED,
    NON_ORTHOGONAL,
    ORTHOGONAL,
    UNDESIGNATED,
    Bindings,
    IntervalNMatrix,
    IntervalRule,
    ThresholdMap,
    Valuation,
)
from .valuesets import OPEN_SHIFT, IntervalUnion

# The four relation-split rules shared by the projector and lattice tables.
# Rules act elementwise on arrays of inputs (see ``IntervalRule``).
ORTHOGONAL_OR = IntervalRule(
    2,
    lambda a, b: np.minimum(a + b, 1.0),
    lambda a, b: np.minimum(a + b, 1.0),
    "{min(a+b, 1)}",
)
SPAN_OR = IntervalRule(2, lambda a, b: np.maximum(a, b), lambda a, b: 1.0, "[max(a,b), 1]")
ORTHOGONAL_AND = IntervalRule(2, lambda a, b: 0.0, lambda a, b: 0.0, "{0}")
CAP_AND = IntervalRule(2, lambda a, b: 0.0, lambda a, b: np.minimum(a, b), "[0, min(a,b)]")
DETERMINISTIC_NOT = IntervalRule(1, lambda a: 1.0 - a, lambda a: 1.0 - a, "{1 - a}")

NEGATION_VARIANTS = ("deterministic", "neg1", "neg2")


def _negation_cases(variant: str, alpha: float) -> dict[str, IntervalRule]:
    if variant == "deterministic":
        return {ANY: DETERMINISTIC_NOT}
    if variant == "neg1":
        return {
            DESIGNATED: IntervalRule(1, lambda a: 0.0, lambda a: 1.0 - a, "[0, 1-a]"),
            UNDESIGNATED: IntervalRule(1, lambda a: 1.0 - a, lambda a: 1.0, "[1-a, 1]"),
        }
    if variant == "neg2":
        if not 0.5 < alpha < 1.0:
            raise ValueError(f"neg2 needs alpha in (1/2, 1), got {alpha}")
        slope = (1.0 - alpha) / alpha

        def lo_d(a: float) -> float:
            return alpha - (a / 2.0) * slope

        return {
            DESIGNATED: IntervalRule(
                1,
                lo_d,
                lambda a: np.maximum(lo_d(a), alpha - OPEN_SHIFT),
                "[alpha - (a/2)(1-alpha)/alpha, alpha)",
            ),
            UNDESIGNATED: IntervalRule(
                1,
                lambda a: alpha,
                lambda a: alpha + (a / 2.0) * slope,
                "[alpha, alpha + (a/2)(1-alpha)/alpha]",
            ),
        }
    raise ValueError(f"unknown negation variant {variant!r}; expected one of {NEGATION_VARIANTS}")


def quantum_nmatrix(alpha: float = 1.0, negation: str = "deterministic") -> IntervalNMatrix:
    """Interval matrix with the orthogonality-split tables and D = [alpha, 1].

    ``alpha = 1`` with the deterministic negation is the sharp matrix whose
    legal valuations are exactly the Born valuations of quantum states.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    return IntervalNMatrix(
        alpha,
        {
            "or": {ORTHOGONAL: ORTHOGONAL_OR, NON_ORTHOGONAL: SPAN_OR},
            "and": {ORTHOGONAL: ORTHOGONAL_AND, NON_ORTHOGONAL: CAP_AND},
            "not": _negation_cases(negation, alpha),
        },
        name=f"quantum(alpha={alpha:g}, negation={negation})",
    )


def negation_set(variant: str, alpha: float, a: float) -> IntervalUnion:
    """Interpretation set of the chosen negation at input value a (the
    designated side starts exactly at alpha)."""
    matrix = IntervalNMatrix(alpha, {"not": _negation_cases(variant, alpha)})
    return matrix.cell("not", (a,), tol=0.0)


# ---------------------------------------------------------------------------
# Born valuations of states


#: Pairs whose product has max-norm in (tol, AMBIGUITY_BAND * tol] are
#: classified ambiguous rather than silently resolved.
AMBIGUITY_BAND = 10.0


class ProjectorBindings(Bindings[np.ndarray]):
    """Maps atoms to projectors and compound formulas to lattice elements.

    Serves as the relation oracle for interval-matrix legality: orthogonality
    is decided numerically, and pairs within a factor ``AMBIGUITY_BAND`` of
    the threshold are classified ambiguous rather than silently resolved.
    Atoms bound to ``(trials, d, d)`` stacks make every compound denote a
    stack, computed by one kernel call for all trials.
    """

    def __init__(self, atoms: Mapping[str, np.ndarray], tol: float = DEFAULT_TOL):
        self.tol = tol
        super().__init__({name: hilbert.check_projector(m, tol) for name, m in atoms.items()})
        dims = {m.shape[-1] for m in self.atoms.values()}
        if len(dims) > 1:
            raise ValueError(f"atom projectors live in different dimensions: {sorted(dims)}")

    def ortho(self, p: np.ndarray) -> np.ndarray:
        return hilbert.ortho(p)

    def meet(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return hilbert.meet(p, q, self.tol)

    def join(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return hilbert.join(p, q, self.tol)

    def relation(self, left: Formula, right: Formula):
        """(orthogonal, non_orthogonal): whether each relation case may hold
        between the denoted projectors, both inside the ambiguity band; one
        entry per slice when the atoms are stacks."""
        overlap = max_norms(self.denote(left) @ self.denote(right))
        return overlap <= AMBIGUITY_BAND * self.tol, overlap > self.tol

    def classify(self, left: Formula, right: Formula) -> str:
        orthogonal, non_orthogonal = self.relation(left, right)
        if orthogonal and non_orthogonal:
            return AMBIGUOUS
        return ORTHOGONAL if orthogonal else NON_ORTHOGONAL


def evaluate_state(
    rho: np.ndarray,
    bindings: ProjectorBindings,
    formulas: Sequence[Formula],
    tol: float = DEFAULT_TOL,
) -> Valuation:
    """Born valuation of the state over the subformula closure: compounds
    denote lattice elements first, then take their Born probability.

    The values are floats for one state, and ``(trials,)`` arrays for a
    ``(trials, d, d)`` stack of states whose atoms are bound to stacks of
    the same shape: entry t is the valuation of ``rho[t]`` with each atom
    bound to its slice t.
    """
    rho = hilbert.check_density(rho, max(tol, 1e-7))
    return Valuation({f: hilbert.born(rho, bindings.denote(f), tol) for f in subformula_closure(formulas)})


def born_legality_mask(
    rho: np.ndarray,
    atoms: Mapping[str, np.ndarray],
    formulas: Sequence[Formula],
    matrix: IntervalNMatrix,
) -> np.ndarray:
    """Per-trial legality of Born valuations, for a ``(trials, d, d)`` stack
    of states and one such stack of projectors per atom.

    Entry t is the verdict of ``is_dynamic_legal`` on ``evaluate_state``
    of trial t (``rho[t]``, atoms bound to their slice t) under ``matrix``,
    and the checks are the ones that call makes, each raising as there: the
    stacked ``evaluate_state`` is that call for every trial at once.  Each
    compound is then checked against its table's rules on arrays of trials.
    Born values are clipped into [0, 1], so atoms are always legal.
    """
    bindings = ProjectorBindings(atoms)
    rho = as_stack(rho)
    if rho.ndim != 3 or any(m.shape != rho.shape for m in bindings.atoms.values()):
        shapes = sorted({m.shape for m in bindings.atoms.values()})
        raise DimensionMismatch(f"states of shape {rho.shape} but atom stacks of shapes {shapes}")
    valuation = evaluate_state(rho, bindings, formulas)
    legal = np.ones(len(rho), dtype=bool)
    for f, value in valuation.items():
        if isinstance(f, Not):
            legal &= matrix.admits("not", value, (valuation[f.child],))
        elif isinstance(f, (And, Or)):
            args = (valuation[f.left], valuation[f.right])
            conn = "and" if isinstance(f, And) else "or"
            legal &= matrix.admits(conn, value, args, bindings.relation(f.left, f.right))
    return legal


# ---------------------------------------------------------------------------
# worked counterexamples


@dataclass(frozen=True)
class DynamicWitness:
    """Two states agreeing on P and Q but disagreeing on P&Q and P|Q."""

    rho: np.ndarray
    rho_shifted: np.ndarray
    p: np.ndarray
    q: np.ndarray
    valuation: Valuation
    valuation_shifted: Valuation
    bindings: ProjectorBindings

    def pair(self, formula: Formula) -> tuple[float, float]:
        return (self.valuation[formula], self.valuation_shifted[formula])


_P, _Q = Atom("P"), Atom("Q")
_AND_PQ, _OR_PQ = And(_P, _Q), Or(_P, _Q)


def dynamic_witness() -> DynamicWitness:
    """Four-dimensional construction: P spans the first two basis rays, Q the
    middle two, and the states carry the weights (1/4, 1/4, 1/4, 1/4) resp.
    the weights shifted by eps = 1/8, (3/8, 1/8, 3/8, 1/8), leaving the P
    and Q probabilities untouched while moving the meet and join
    probabilities by eps.
    """
    weights, shifted = (0.25, 0.25, 0.25, 0.25), (0.375, 0.125, 0.375, 0.125)
    e = [hilbert.basis_vector(4, i) for i in range(4)]
    psi = sum(np.sqrt(weights[i]) * e[i] for i in range(4))
    psi_eps = sum(np.sqrt(shifted[i]) * e[i] for i in range(4))
    rho = np.outer(psi, psi.conj())
    rho_eps = np.outer(psi_eps, psi_eps.conj())
    p = hilbert.projector_from_span([e[0], e[1]])
    q = hilbert.projector_from_span([e[1], e[2]])
    bindings = ProjectorBindings({"P": p, "Q": q})
    formulas = [_AND_PQ, _OR_PQ]
    return DynamicWitness(
        rho,
        rho_eps,
        p,
        q,
        evaluate_state(rho, bindings, formulas),
        evaluate_state(rho_eps, bindings, formulas),
        bindings,
    )


@dataclass(frozen=True)
class StaticWitness:
    """One state, two disjunctions with equal component values but different
    values: the composability principle fails for Born valuations."""

    rho: np.ndarray
    first: Formula
    second: Formula
    valuation: Valuation
    bindings: ProjectorBindings


def static_violation_witness() -> StaticWitness:
    """Three-dimensional construction: P the first basis ray, Q the ray of
    the equal superposition of the first two, P' the third basis ray, Q' = Q,
    evaluated in the second basis state."""
    a, b, c = (hilbert.basis_vector(3, i) for i in range(3))
    phi = (a + b) / np.sqrt(2.0)
    bindings = ProjectorBindings(
        {
            "P": hilbert.projector_from_span([a]),
            "Q": hilbert.projector_from_span([phi]),
            "Pp": hilbert.projector_from_span([c]),
            "Qp": hilbert.projector_from_span([phi]),
        }
    )
    rho = np.outer(b, b.conj())
    first = Or(Atom("P"), Atom("Q"))
    second = Or(Atom("Pp"), Atom("Qp"))
    valuation = evaluate_state(rho, bindings, [first, second])
    return StaticWitness(rho, first, second, valuation, bindings)


# ---------------------------------------------------------------------------
# order preservation and double negation


@dataclass(frozen=True)
class OrderViolation:
    lower: Formula
    upper: Formula
    kind: str
    detail: str

    def __str__(self):
        return f"{self.kind}: {render(self.lower)} vs {render(self.upper)}: {self.detail}"


@dataclass(frozen=True)
class OrderReport:
    violations: tuple[OrderViolation, ...]
    comparable_pairs: int
    orthogonal_pairs: int

    @property
    def ok(self) -> bool:
        return not self.violations


def order_preservation_check(valuation: Valuation, bindings: ProjectorBindings) -> OrderReport:
    """Born valuations respect the lattice order, and orthogonal pairs never
    carry total probability above one.

    The domain is denoted once into a stack; each formula's row of pairs is
    then one stacked product against it (range inclusion and p q = 0 per
    pair, O(n d^2) memory)."""
    domain = valuation.domain()
    violations = []
    comparable = orthogonal = 0
    if not domain:
        return OrderReport((), 0, 0)
    denoted = np.stack([bindings.denote(f) for f in domain])
    for i, f in enumerate(domain):
        # f <= g exactly when g absorbs f: g f = f
        below = max_norms(denoted @ denoted[i] - denoted[i]) <= DEFAULT_TOL
        below[i] = False
        for j in np.flatnonzero(below):
            g = domain[j]
            comparable += 1
            if valuation[f] > valuation[g] + DEFAULT_TOL:
                violations.append(OrderViolation(f, g, "order", f"{valuation[f]} > {valuation[g]}"))
    for i, f in enumerate(domain):
        apart = max_norms(denoted[i] @ denoted[i + 1 :]) <= DEFAULT_TOL
        for j in np.flatnonzero(apart) + i + 1:
            g = domain[j]
            orthogonal += 1
            total = valuation[f] + valuation[g]
            if total > 1.0 + DEFAULT_TOL:
                violations.append(
                    OrderViolation(f, g, "orthogonal-sum", f"{valuation[f]} + {valuation[g]} = {total} > 1")
                )
    return OrderReport(tuple(violations), comparable, orthogonal)


@dataclass(frozen=True)
class DoubleNegationReport:
    """The ordering chain 0 <= b <= 1-a <= alpha <= a <= 1-b <= 1 for the
    first non-deterministic negation, starting from a designated value."""

    alpha: float
    a: float
    b: float
    chain: tuple[float, ...]
    chain_holds: bool
    second_negation: IntervalUnion
    stays_designated: bool

    @property
    def ok(self) -> bool:
        return self.chain_holds and self.stays_designated


def double_negation_chain(alpha: float, a: float, b: float) -> DoubleNegationReport:
    """Apply the first negation twice starting from designated a, with b the
    value chosen inside the first negation set [0, 1-a].

    The second negation set is [1-b, 1]: entirely designated and bounded
    below by a, so repeated double negation can only push designated values
    upward.
    """
    if not 0.5 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (1/2, 1], got {alpha}")
    if not alpha <= a <= 1.0:
        raise ValueError(f"a must be designated (in [{alpha}, 1]), got {a}")
    if not 0.0 <= b <= 1.0 - a:
        raise ValueError(f"b must lie in the first negation set [0, {1.0 - a}], got {b}")
    chain = (0.0, b, 1.0 - a, alpha, a, 1.0 - b, 1.0)
    holds = all(x <= y for x, y in zip(chain, chain[1:]))
    second = negation_set("neg1", alpha, b)
    return DoubleNegationReport(
        alpha,
        a,
        b,
        chain,
        holds,
        second,
        stays_designated=second.lo >= a,
    )


# ---------------------------------------------------------------------------
# collapse maps onto the finite matrices


def three_valued_collapse() -> ThresholdMap:
    """1 -> t, 0 -> F, strictly-between -> T."""
    return ThresholdMap((("t", 1.0, 1.0), ("F", 0.0, 0.0), ("T", 0.0, 1.0)))


def two_valued_collapse() -> ThresholdMap:
    """1 -> t, everything below -> F."""
    return ThresholdMap((("t", 1.0, 1.0), ("F", 0.0, 1.0)))
