import json
from typing import Mapping

import numpy as np
import pytest

from qnsem import hilbert
from qnsem.linalg import DEFAULT_TOL, DimensionMismatch, as_matrix, max_norm
from qnsem.formulas import Formula
from qnsem.nmatrix import DESIGNATED, NON_ORTHOGONAL, ORTHOGONAL, UNDESIGNATED, Bindings, IntervalNMatrix, IntervalRule
from qnsem.oml import FiniteOML
from qnsem.quantum import DETERMINISTIC_NOT, quantum_nmatrix

# Shared builders.  They are plain functions, not fixtures, because some
# test modules parametrize over what they build at collection time; import
# them with ``from conftest import ...``.


def matrix_to_json(a) -> dict:
    """Row-major wire form the CLI reads: {"rows": n, "cols": m, "entries": [[re, im], ...]}."""
    a = np.asarray(a, dtype=np.complex128)
    entries = [[float(z.real), float(z.imag)] for z in a.reshape(-1)]
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "entries": entries}


def operator_to_json(m, kind: str) -> dict:
    return {**matrix_to_json(m), "kind": kind}


def empty_negation_tables(alpha: float) -> IntervalNMatrix:
    """The sharp binary tables with a negation whose designated cell
    [alpha, 1 - a] is empty once a > 1 - alpha: the one table here whose
    cells can be empty, which legality checks report by naming the rule."""
    empty_not = IntervalRule(1, lambda a: alpha, lambda a: 1.0 - a, "[alpha, 1-a]")
    tables = {**quantum_nmatrix(alpha).tables, "not": {DESIGNATED: empty_not, UNDESIGNATED: DETERMINISTIC_NOT}}
    return IntervalNMatrix(alpha, tables, name=f"empty-negation(alpha={alpha:g})")


def is_orthogonal(p, q, tol: float = 1e-9) -> bool:
    """p q = 0 within tol, for two single matrices of one dimension."""
    p, q = as_matrix(p), as_matrix(q)
    if p.shape != q.shape:
        raise DimensionMismatch(f"dimension mismatch: {p.shape} vs {q.shape}")
    return max_norm(p @ q) <= tol


def leq(p, q, tol: float = DEFAULT_TOL) -> bool:
    """Range inclusion: p <= q exactly when q absorbs p (q p = p), for two
    single matrices of one dimension."""
    p, q = as_matrix(p), as_matrix(q)
    hilbert._require_same_dim(p, q)
    return max_norm(q @ p - p) <= tol


def random_projector(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    """Projector onto the span of Gaussian random vectors of rank 1..dim-1,
    or of the given rank in 0..dim, built from the orthonormal QR factor of
    the vectors; without a rank, the draw of one ``random_stacks`` trial."""
    if rank is None:
        block = hilbert._projector_block(rng, dim)
    elif 0 <= rank <= dim:
        block = rng.normal(size=(2, rank, dim))  # _projector_block's draw once it has a rank
    else:
        raise ValueError(f"rank must lie in 0..{dim}, got {rank}")
    return hilbert._projectors([block], dim)[0]


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Full-support random state rho = G G^dagger / tr(G G^dagger), drawn as
    a one-trial stack."""
    return hilbert.random_stacks(rng, dim, 1, ("density",))[0][0]


def chain_with_fixed_point() -> FiniteOML:
    """Three-element chain whose middle element is its own complement: fails
    the complement laws, useful as a negative fixture."""
    elements = ["0", "m", "1"]
    pairs = [("0", "m"), ("0", "1"), ("m", "1")]
    ortho = {"0": "1", "1": "0", "m": "m"}
    return FiniteOML(elements, pairs, ortho, "0", "1")


def meet_oml(l: FiniteOML, a: str, b: str) -> str:
    meet, _ = l._bound_tables()
    idx = meet[l.index[a], l.index[b]]
    if idx < 0:
        raise ValueError(f"meet of {a!r} and {b!r} does not exist or is not unique")
    return l.elements[idx]


def join_oml(l: FiniteOML, a: str, b: str) -> str:
    _, join = l._bound_tables()
    idx = join[l.index[a], l.index[b]]
    if idx < 0:
        raise ValueError(f"join of {a!r} and {b!r} does not exist or is not unique")
    return l.elements[idx]


class LatticeBindings(Bindings[str]):
    """Binds formula atoms to lattice elements; denotation and orthogonality
    come from the lattice tables, so classification is exact."""

    def __init__(self, lattice: FiniteOML, atoms: Mapping[str, str]):
        self.lattice = lattice
        unknown = set(atoms.values()) - set(lattice.elements)
        if unknown:
            raise ValueError(f"bindings to unknown elements {sorted(unknown)}")
        super().__init__(atoms)

    def ortho(self, e: str) -> str:
        l = self.lattice
        return l.elements[l.ortho[l.index[e]]]

    def meet(self, a: str, b: str) -> str:
        return meet_oml(self.lattice, a, b)

    def join(self, a: str, b: str) -> str:
        return join_oml(self.lattice, a, b)

    def classify(self, left: Formula, right: Formula) -> str:
        return ORTHOGONAL if self.lattice.orthogonal(self.denote(left), self.denote(right)) else NON_ORTHOGONAL


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def write_json(tmp_path):
    def _write(name: str, obj) -> str:
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return _write
