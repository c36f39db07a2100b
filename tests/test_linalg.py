from pathlib import Path

import numpy as np
import pytest

from conftest import as_matrix, leq, matrix_to_json
from qnsem import hilbert, linalg


def multiply(a, b) -> np.ndarray:
    """The product of two single matrices, whose shapes must chain."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise linalg.DimensionMismatch(f"cannot multiply {a.shape[0]}x{a.shape[1]} by {b.shape[0]}x{b.shape[1]}")
    return a @ b


def trace(a) -> complex:
    """The trace of a single square matrix."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise linalg.DimensionMismatch(f"trace needs a square matrix, got {a.shape[0]}x{a.shape[1]}")
    return complex(np.trace(a))


def test_multiply_identity_and_zero():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.allclose(multiply(np.eye(2), a), a)
    assert np.allclose(multiply(a, np.zeros((2, 2))), 0)


def test_multiply_swap_involution():
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.allclose(multiply(swap, swap), np.eye(2))


def test_multiply_shape_error_names_both_shapes():
    with pytest.raises(linalg.DimensionMismatch, match="2x2 by 3x1"):
        multiply(np.eye(2), np.ones((3, 1)))


def test_trace():
    assert trace(np.eye(3)) == pytest.approx(3)
    proj = np.diag([1.0, 1.0, 0.0]).astype(complex)
    assert trace(proj) == pytest.approx(2)  # trace = rank for projectors
    with pytest.raises(linalg.DimensionMismatch):
        trace(np.ones((2, 3)))


def test_trace_cyclic(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert trace(a @ b) == pytest.approx(trace(b @ a), abs=1e-10)


def test_hermitian_eigen_examples():
    values, _ = linalg.hermitian_eigen(np.diag([2.0, 1.0]))
    assert np.allclose(values, [1.0, 2.0])
    # characteristic polynomial of the swap matrix is x^2 - 1
    values, _ = linalg.hermitian_eigen(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(values, [-1.0, 1.0])
    # a stack is factored slice by slice in one call
    values, _ = linalg.hermitian_eigen(np.array([np.diag([2.0, 1.0]), [[0, 1], [1, 0]]]))
    assert np.allclose(values, [[1.0, 2.0], [-1.0, 1.0]])


def test_hermitian_eigen_projector_spectrum():
    v = np.array([1.0, 1.0j]) / np.sqrt(2)
    p = np.outer(v, v.conj())
    values, _ = linalg.hermitian_eigen(p)
    assert all(min(abs(x), abs(x - 1)) < 1e-12 for x in values)


def test_hermitian_eigen_rejects_asymmetry():
    with pytest.raises(linalg.NotHermitian, match="asymmetry"):
        linalg.hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(linalg.NotHermitian, match="asymmetry"):
        linalg.hermitian_eigen(np.array([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]]))


def test_hermitian_eigen_reconstruction_sweep(rng):
    for _ in range(1000):
        dim = int(rng.integers(2, 9))
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (g + g.conj().T) / 2
        values, vectors = linalg.hermitian_eigen(h)
        rebuilt = vectors @ np.diag(values) @ vectors.conj().T
        norm = max(linalg.max_norm(h), 1e-30)
        assert linalg.max_norm(rebuilt - h) <= 10 * 1e-9 * norm
        assert list(values) == sorted(values)
        gram = vectors.conj().T @ vectors
        assert linalg.max_norm(gram - np.eye(dim)) <= 1e-10


def test_orthonormalize_examples():
    basis = linalg.orthonormalize([[1, 0], [0, 2]])
    assert np.allclose(basis, [[1, 0], [0, 1]])
    assert len(linalg.orthonormalize([[1, 0], [1, 0]])) == 1
    two = linalg.orthonormalize([np.array([1, 1]) / np.sqrt(2), np.array([1, 0])])
    gram = np.array([[np.vdot(u, v) for v in two] for u in two])
    assert linalg.max_norm(gram - np.eye(2)) <= 1e-10


def test_orthonormalize_empty_and_mismatch():
    assert linalg.orthonormalize([]) == []
    with pytest.raises(linalg.DimensionMismatch):
        linalg.orthonormalize([[1, 0], [1, 0, 0]])


def test_orthonormalize_gram_random(rng):
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        count = int(rng.integers(1, dim + 2))
        vecs = [rng.normal(size=dim) + 1j * rng.normal(size=dim) for _ in range(count)]
        basis = linalg.orthonormalize(vecs)
        gram = np.array([[np.vdot(u, v) for v in basis] for u in basis])
        assert linalg.max_norm(gram - np.eye(len(basis))) <= 1e-10


def test_matrix_json_roundtrip(rng):
    a = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    obj = matrix_to_json(a)
    assert obj["rows"] == 2 and obj["cols"] == 3
    back = linalg.matrix_from_json(obj)
    assert linalg.max_norm(a - back) == 0.0


def test_matrix_json_validation():
    with pytest.raises(linalg.InvariantViolation):
        linalg.matrix_from_json({"rows": 2, "cols": 2, "entries": [[1, 0]]})
    with pytest.raises(linalg.InvariantViolation):
        linalg.matrix_from_json({"rows": 0, "cols": 1, "entries": []})


def test_default_tolerance_ignores_environment(monkeypatch):
    # the default tolerance is DEFAULT_TOL whatever the environment says
    monkeypatch.setenv("QNSEM_TOL", "0.5")
    p = hilbert.projector_from_span([[1, 0]])
    q = hilbert.projector_from_span([[1, 1e-3]])
    assert not leq(p, q)
    assert leq(p, q, 1e-2)
    sources = Path(linalg.__file__).parent.glob("*.py")
    assert [f.name for f in sources if "os.environ" in f.read_text()] == []
