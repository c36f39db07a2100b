"""Projection lattice of a finite-dimensional complex Hilbert space, density
operators, and Born-rule probabilities.

Projectors and density operators are plain complex matrices; the validators
here are the single place their defining invariants are enforced.  Lattice
operations (meet, join, orthocomplement) are computed numerically as kernel
projectors ``V diag(mask) V^H`` of one Hermitian eigendecomposition.  The
validators, their residuals, ``meet``, ``join``, ``ortho`` and ``born`` take
a single matrix or a stack of shape ``(..., d, d)`` through the same code: a
single matrix is a stack of one.  ``random_stacks`` draws random
projectors and states as ``(trials, d, d)`` stacks in the per-trial RNG order.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    DimensionMismatch,
    InvariantViolation,
    as_stack,
    hermitian_eigen,
    matrix_from_json,
    max_norms,
    orthonormalize,
)

# Relative kernel threshold for subspace intersection: the operator
# (I-p)+(I-q) has spectrum inside [0,2], so a gap of 1e-8 x max(lambda, 1)
# separates its kernel cleanly at small dimensions.
KERNEL_THRESHOLD = 1e-8


def projector_residuals(m: np.ndarray) -> dict[str, float]:
    """Max-norm residuals of the projector invariants (idempotence,
    self-adjointness): floats for one matrix, one value per slice of a stack.
    Entries too large to square give an inf or NaN residual, not a warning."""
    m = as_stack(m)
    with np.errstate(all="ignore"):
        return {
            "idempotent": _per_slice(max_norms(m @ m - m)),
            "hermitian": _per_slice(max_norms(m - m.conj().swapaxes(-1, -2))),
        }


def check_projector(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """One projector, or a stack ``(..., d, d)`` of them checked slice by slice."""
    m = as_stack(m)
    if m.shape[-2] != m.shape[-1]:
        raise DimensionMismatch(f"projector must be square, got {m.shape[-2]}x{m.shape[-1]}")
    require_residuals("projector", projector_residuals(m), tol)
    return m


def density_residuals(m: np.ndarray) -> dict[str, float]:
    """Residuals of the density invariants (self-adjointness, positivity,
    unit trace): floats for one matrix, one value per slice of a stack.
    The Hermitian part is formed as ``m/2 + adj/2``, which cannot overflow."""
    m = as_stack(m)
    adj = m.conj().swapaxes(-1, -2)
    with np.errstate(all="ignore"):
        eigs = np.linalg.eigvalsh(m / 2.0 + adj / 2.0)
        return {
            "hermitian": _per_slice(max_norms(m - adj)),
            "negativity": _per_slice(np.maximum(0.0, -eigs.min(axis=-1, initial=0.0))),
            "trace": _per_slice(np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0)),
        }


def check_density(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """One density operator, or a stack ``(..., d, d)`` of them checked slice by slice."""
    m = as_stack(m)
    if m.shape[-2] != m.shape[-1]:
        raise DimensionMismatch(f"density operator must be square, got {m.shape[-2]}x{m.shape[-1]}")
    require_residuals("density operator", density_residuals(m), tol)
    return m


def _per_slice(values: np.ndarray):
    return float(values) if values.ndim == 0 else values


def require_residuals(kind: str, residuals: dict, tol: float) -> None:
    """Raise ``InvariantViolation`` unless every residual is within ``tol``
    (a NaN residual is not); for a stack the message names the first
    offending slice."""
    over_tol = {k: ~(np.asarray(v) <= tol) for k, v in residuals.items()}
    bad = np.any(list(over_tol.values()), axis=0)
    if not bad.any():
        return
    at = np.unravel_index(np.argmax(bad), bad.shape)
    over = {k: float(np.asarray(residuals[k])[at]) for k, v in over_tol.items() if v[at]}
    where = f" at slice {tuple(int(i) for i in at)}" if at else ""
    raise InvariantViolation(f"not a {kind}{where} (tol={tol:.1e}): residuals {over}")


def operator_from_json(obj: dict, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, str]:
    """Parse and validate a {"kind": "projector"|"density", ...matrix...} object."""
    kind = obj.get("kind")
    m = matrix_from_json(obj)
    if kind == "projector":
        return check_projector(m, tol), kind
    if kind == "density":
        return check_density(m, tol), kind
    raise InvariantViolation(f"unknown operator kind {kind!r}; expected 'projector' or 'density'")


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=np.complex128)


def projector_from_span(vectors) -> np.ndarray:
    """Orthogonal projector onto the span of the given vectors.

    Dependent vectors are dropped by Gram-Schmidt.  Vectors that span
    nothing (none, or all zero within ``DEFAULT_TOL``) raise
    ``DimensionMismatch``.
    """
    basis = orthonormalize(list(vectors))
    if not basis:
        raise DimensionMismatch("the vectors span nothing")
    dim = basis[0].size
    p = np.zeros((dim, dim), dtype=np.complex128)
    for e in basis:
        p += np.outer(e, e.conj())
    return p


def _require_same_dim(p: np.ndarray, q: np.ndarray) -> None:
    if p.shape[-2:] != q.shape[-2:] or p.shape[-1] != p.shape[-2]:
        raise DimensionMismatch(f"expected square operands of one dimension: {p.shape} vs {q.shape}")


def _kernel_projector(k: np.ndarray, tol: float) -> np.ndarray:
    """Projector onto the kernel of each positive semidefinite matrix of k.

    Eigenvalues up to ``KERNEL_THRESHOLD * max(lambda_max, 1)`` count as
    zero; the kernel eigenvectors are orthonormal already, so the projector
    is ``V diag(mask) V^H`` with no re-orthonormalization.
    """
    values, vectors = hermitian_eigen(k, tol=max(tol, 1e-6))
    mask = values <= KERNEL_THRESHOLD * np.maximum(values[..., -1:], 1.0)
    vectors *= mask[..., None, :]  # with the other columns zeroed, V V^H = V diag(mask) V^H
    return vectors @ vectors.conj().swapaxes(-1, -2)


def meet(p, q, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Projector onto the intersection of the two ranges.

    Computed as the kernel projector of 2I-p-q = (I-p)+(I-q): a vector is in
    both ranges exactly when it is annihilated by both complements.
    """
    p, q = as_stack(p), as_stack(q)
    _require_same_dim(p, q)
    k = 2.0 * identity(p.shape[-1]) - p
    k -= q
    return _kernel_projector(k, tol)


def join(p, q, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Projector onto the closed span of the two ranges: the complement of
    the kernel projector of p+q, whose kernel is the meet of the complements."""
    p, q = as_stack(p), as_stack(q)
    _require_same_dim(p, q)
    kernel = _kernel_projector(p + q, tol)
    return np.subtract(identity(p.shape[-1]), kernel, out=kernel)


def ortho(p) -> np.ndarray:
    p = as_stack(p)
    return identity(p.shape[-1]) - p


def born(rho, p, tol: float = DEFAULT_TOL):
    """Born probability Re tr(rho p), clipped to [0,1] only within tolerance.

    A float for one pair of matrices, an array for stacks.  Values escaping
    [-tol, 1+tol] anywhere in the stack raise: they signal a broken state or
    projector upstream and must not be silently masked.
    """
    rho, p = as_stack(rho), as_stack(p)
    _require_same_dim(rho, p)
    value = np.einsum("...ij,...ji->...", rho, p).real
    bad = (value < -tol) | (value > 1.0 + tol)
    if bad.any():
        raise InvariantViolation(f"Born value {float(value[bad][0])!r} outside [{-tol}, {1 + tol}]")
    value = value.clip(0.0, 1.0)
    return float(value) if value.ndim == 0 else value


def _projector_block(rng: np.random.Generator, dim: int) -> np.ndarray:
    """The RNG calls of one projector draw: the rank in 1..dim-1, then one
    ``(2, rank, dim)`` Gaussian block, the real and the imaginary parts of
    ``rank`` vectors.  One call draws the same bits as two ``(rank, dim)``
    calls."""
    rank = int(rng.integers(1, dim)) if dim > 1 else 1
    return rng.normal(size=(2, rank, dim))


def _density_block(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.normal(size=(2, dim, dim))


def _complex(blocks: Sequence[np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    """The complex stack ``re + 1j * im`` of real ``(2, ...)`` blocks
    stacked to ``shape``: the same bits, with one complex temporary less."""
    a = np.array(blocks).reshape(shape)
    g = 1j * a[:, 1]
    g += a[:, 0]
    return g


def _projectors(blocks: Sequence[np.ndarray], dim: int) -> np.ndarray:
    """Projectors onto the row spans of the blocks, as one ``(n, d, d)``
    stack: the orthonormal QR factor of each block's transpose, V V^H.
    Blocks of one rank share one stacked QR and one stacked product, which
    give the same bits as one call per block."""
    out = np.empty((len(blocks), dim, dim), dtype=np.complex128)
    by_rank: dict[int, list[int]] = {}
    for i, block in enumerate(blocks):
        by_rank.setdefault(block.shape[1], []).append(i)
    for rank, rows in by_rank.items():
        g = _complex([blocks[i] for i in rows], (len(rows), 2, rank, dim))
        basis, _ = np.linalg.qr(g.swapaxes(-1, -2))
        out[rows] = basis @ basis.conj().swapaxes(-1, -2)
    return out


def _densities(blocks: Sequence[np.ndarray], dim: int) -> np.ndarray:
    """Full-support states G G^H / tr(G G^H), as one ``(n, d, d)`` stack."""
    g = _complex(blocks, (len(blocks), 2, dim, dim))
    m = g @ g.conj().swapaxes(-1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1)[:, None, None]


_DRAWS = {"projector": (_projector_block, _projectors), "density": (_density_block, _densities)}


def random_stacks(
    rng: np.random.Generator, dim: int, trials: int, kinds: Sequence[str]
) -> tuple[np.ndarray, ...]:
    """One ``(trials, dim, dim)`` stack per entry of ``kinds`` ("projector"
    or "density").  Trial by trial, one operator of each kind is drawn in the
    order of ``kinds``: the same RNG calls, in the same order, and the same
    matrices as one-trial stacks drawn in that loop."""
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    blocks: list[list[np.ndarray]] = [[] for _ in kinds]
    draws = [_DRAWS[kind][0] for kind in kinds]
    for _ in range(trials):
        for draw, out in zip(draws, blocks):
            out.append(draw(rng, dim))
    return tuple(_DRAWS[kind][1](b, dim) for kind, b in zip(kinds, blocks))


def basis_vector(dim: int, i: int) -> np.ndarray:
    v = np.zeros(dim, dtype=np.complex128)
    v[i] = 1.0
    return v
