"""Dense complex-matrix substrate: products, adjoints, traces, Hermitian
eigendecomposition, Gram-Schmidt orthonormalization, and the JSON wire form
used by every fixture file.

All matrices are numpy complex128 arrays.  ``as_matrix`` admits exactly one
2-d matrix: it guards the JSON wire form and the helpers that multiply or
compare single matrices.  ``as_stack`` also admits stacks of shape
``(..., n, m)`` and feeds the validators and the projector kernel, whose
``hermitian_eigen`` factors a whole stack in one call.  Operations are pure
functions and never mutate their inputs, so everything here is safe to call
concurrently.
"""

from __future__ import annotations

import math
import numbers
from typing import Mapping, NamedTuple, Sequence

import numpy as np

#: The one default tolerance of the package: every ``tol`` parameter defaults
#: to it, and callers that want another pass it explicitly (the CLI's ``--tol``).
DEFAULT_TOL = 1e-9


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class NotHermitian(ValueError):
    """Input fails the Hermitian precondition; message carries the asymmetry norm."""


class InvariantViolation(ValueError):
    """A domain-type invariant (idempotence, positivity, trace, ...) fails."""


def as_stack(a) -> np.ndarray:
    """A finite complex matrix, or a stack of them with shape ``(..., n, m)``."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2:
        raise DimensionMismatch(f"expected a matrix or a stack of matrices, got ndim={m.ndim}")
    if not np.isfinite(m).all():  # finite in both real and imaginary parts
        raise InvariantViolation("matrix contains non-finite entries")
    return m


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d matrix, got ndim={m.ndim}")
    return as_stack(m)


def max_norm(a: np.ndarray) -> float:
    """Entrywise max-norm; the package's notion of matrix distance."""
    return float(np.abs(np.asarray(a)).max(initial=0.0))


def max_norms(a) -> np.ndarray:
    """Entrywise max-norm of each matrix of a stack ``(..., n, m)``."""
    return np.abs(np.asarray(a)).max(axis=(-2, -1), initial=0.0)


def multiply(a, b) -> np.ndarray:
    a, b = as_matrix(a), as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatch(
            f"cannot multiply {a.shape[0]}x{a.shape[1]} by {b.shape[0]}x{b.shape[1]}"
        )
    return a @ b


def adjoint(a) -> np.ndarray:
    return as_matrix(a).conj().T


def trace(a) -> complex:
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"trace needs a square matrix, got {a.shape[0]}x{a.shape[1]}")
    return complex(np.trace(a))


class EigenResult(NamedTuple):
    """Ascending real eigenvalues and the matching orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def hermitian_eigen(a, tol: float = DEFAULT_TOL) -> EigenResult:
    """Eigendecomposition of a Hermitian matrix, or of every matrix of a
    stack ``(..., d, d)`` in one call.

    Rejects inputs whose asymmetry exceeds ``tol`` in max-norm (over the
    whole stack); the matrix is symmetrized before factoring so the
    reconstruction residual stays at rounding level for genuinely Hermitian
    inputs.
    """
    a = as_stack(a)
    if a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected square matrix, got {a.shape[-2]}x{a.shape[-1]}")
    adj = a.conj().swapaxes(-1, -2)
    asym = max_norm(a - adj)
    if asym > tol:
        raise NotHermitian(f"matrix is not Hermitian: asymmetry max-norm {asym:.3e} > {tol:.3e}")
    sym = np.add(a, adj, out=adj)  # adj is a fresh copy: symmetrize in place
    sym /= 2.0
    values, vectors = np.linalg.eigh(sym)
    return EigenResult(values, vectors)


def orthonormalize(vectors: Sequence, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Modified Gram-Schmidt with a second pass for numerical orthogonality.

    Vectors whose residual norm after projection is at most ``tol`` are
    dropped as linearly dependent.  Empty input yields an empty list.
    """
    basis: list[np.ndarray] = []
    dim = None
    for raw in vectors:
        v = np.asarray(raw, dtype=np.complex128).reshape(-1)
        if dim is None:
            dim = v.size
        elif v.size != dim:
            raise DimensionMismatch(f"vector of length {v.size} among vectors of length {dim}")
        for _ in range(2):  # re-orthogonalize once: enough at double precision
            for e in basis:
                v = v - np.vdot(e, v) * e
        norm = float(np.linalg.norm(v))
        if norm > tol:
            basis.append(v / norm)
    return basis


def json_list(value, field: str):
    """``value`` unless it is a string: where a reader iterates a JSON list,
    a string would be read as the list of its characters.  Any other
    sequence passes, for callers that build the input in Python."""
    if isinstance(value, str):
        raise ValueError(f"{field} must be a list, not the string {value!r}")
    return value


def json_object(value, field: str) -> Mapping:
    """``value`` if it is a mapping, as a JSON object is read."""
    if not isinstance(value, Mapping):
        raise ValueError(f"{field} must be a JSON object, got {type(value).__name__}")
    return value


def json_number(value, field: str) -> float:
    """``value`` as a float if it is a finite real number other than a
    bool, else a ValueError naming ``field``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{field} must be a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:  # an int such as 10**400
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{field} must be a finite number in the float range")
    return number


def json_count(value, field: str) -> int:
    """``value`` as an int if it is a whole number (``3`` or ``3.0``), else
    a ValueError naming ``field``: a count is never truncated."""
    number = json_number(value, field)
    if not number.is_integer():
        raise ValueError(f"{field} must be a whole number, got {value!r}")
    return int(number)


def json_entries(entries, field: str) -> np.ndarray:
    """The JSON list of ``[re, im]`` pairs ``entries`` as a complex vector."""
    return np.array([complex(json_number(re, f"{field}[{k}][0]"), json_number(im, f"{field}[{k}][1]"))
                     for k, (re, im) in enumerate(json_list(entries, field))], dtype=np.complex128)


def matrix_to_json(a) -> dict:
    """Row-major wire form: {"rows": n, "cols": m, "entries": [[re, im], ...]}."""
    a = as_matrix(a)
    entries = [[float(z.real), float(z.imag)] for z in a.reshape(-1)]
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "entries": entries}


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        rows, cols = (json_count(obj[k], k) for k in ("rows", "cols"))
        entries = obj["entries"]
    except (KeyError, TypeError) as exc:
        raise InvariantViolation(f"malformed matrix object: {exc}") from exc
    if rows <= 0 or cols <= 0:
        raise InvariantViolation(f"matrix dimensions must be positive, got {rows}x{cols}")
    if len(entries) != rows * cols:
        raise InvariantViolation(
            f"entry count {len(entries)} does not match {rows}x{cols}={rows * cols}"
        )
    return as_matrix(json_entries(entries, "entries").reshape(rows, cols))
