import numpy as np
import pytest

from qnsem import hilbert, linalg
from qnsem.linalg import DimensionMismatch, InvariantViolation, NotHermitian, max_norm
from qnsem.quantum import ProjectorBindings


def basis(dim):
    return [hilbert.basis_vector(dim, i) for i in range(dim)]


def test_projector_from_span_examples():
    e = basis(2)
    assert np.allclose(hilbert.projector_from_span([e[0]]), np.diag([1.0, 0.0]))
    assert np.allclose(hilbert.projector_from_span(e), np.eye(2))
    # empty span is the lattice bottom
    assert np.allclose(hilbert.projector_from_span([], dim=2), np.zeros((2, 2)))
    with pytest.raises(hilbert.DimensionMismatch, match="explicit dimension"):
        hilbert.projector_from_span([])


def test_projector_validation():
    hilbert.check_projector(np.diag([1.0, 0.0]))
    with pytest.raises(InvariantViolation, match="idempotent"):
        hilbert.check_projector(np.diag([0.5, 0.0]))


def test_density_validation(rng):
    hilbert.check_density(np.eye(3) / 3)
    with pytest.raises(InvariantViolation, match="trace"):
        hilbert.check_density(np.eye(3))


def test_meet_paper_configuration():
    # dim 4: P spans rays 1,2 and Q spans rays 2,3; their meet is ray 2
    e = basis(4)
    p = hilbert.projector_from_span([e[0], e[1]])
    q = hilbert.projector_from_span([e[1], e[2]])
    r = hilbert.meet(p, q)
    assert max_norm(r - hilbert.projector_from_span([e[1]])) <= 1e-10


def test_meet_trivial_cases(rng):
    p = hilbert.random_projector(rng, 3)
    assert max_norm(hilbert.meet(p, p) - p) <= 1e-10
    assert max_norm(hilbert.meet(p, hilbert.ortho(p))) <= 1e-10


def test_join_superposition_configuration():
    # dim 3: ray of a joined with the ray of (a+b)/sqrt(2) spans the a,b plane
    e = basis(3)
    phi = (e[0] + e[1]) / np.sqrt(2)
    p = hilbert.projector_from_span([e[0]])
    q = hilbert.projector_from_span([phi])
    expected = hilbert.projector_from_span([e[0], e[1]])
    assert max_norm(hilbert.join(p, q) - expected) <= 1e-10


def test_join_trivial_cases(rng):
    p = hilbert.random_projector(rng, 4)
    zero = hilbert.zero(4)
    assert max_norm(hilbert.join(p, zero) - p) <= 1e-10
    assert max_norm(hilbert.join(p, hilbert.ortho(p)) - np.eye(4)) <= 1e-10


def test_ortho():
    assert np.allclose(hilbert.ortho(hilbert.zero(3)), np.eye(3))
    assert np.allclose(hilbert.ortho(np.diag([1.0, 0, 0]).astype(complex)), np.diag([0.0, 1, 1]))
    p = np.diag([1.0, 0, 0]).astype(complex)
    assert np.allclose(hilbert.ortho(hilbert.ortho(p)), p)


def test_leq():
    e = basis(4)
    p = hilbert.projector_from_span([e[0], e[1]])
    ray = hilbert.projector_from_span([e[1]])
    assert hilbert.leq(hilbert.zero(4), p)
    assert hilbert.leq(p, p)
    assert hilbert.leq(ray, p)
    assert not hilbert.leq(p, ray)


def test_is_orthogonal():
    e = basis(3)
    phi = (e[0] + e[1]) / np.sqrt(2)
    c = hilbert.projector_from_span([e[2]])
    q = hilbert.projector_from_span([phi])
    assert hilbert.is_orthogonal(c, q)
    p = hilbert.projector_from_span([e[0]])
    assert hilbert.is_orthogonal(p, hilbert.ortho(p))
    assert not hilbert.is_orthogonal(p, p)


def test_born_examples():
    e = basis(4)
    psi = sum(e) / 2.0
    rho = np.outer(psi, psi.conj())
    p = hilbert.projector_from_span([e[0], e[1]])
    assert hilbert.born(rho, p) == pytest.approx(0.5, abs=1e-12)
    assert hilbert.born(rho, hilbert.zero(4)) == 0.0
    assert hilbert.born(rho, np.outer(psi, psi.conj())) == pytest.approx(1.0, abs=1e-12)


def test_born_rejects_wild_values():
    with pytest.raises(InvariantViolation, match="Born value"):
        hilbert.born(np.eye(2).astype(complex), np.eye(2).astype(complex))


def test_state_axioms_complement_family(rng):
    rho = hilbert.random_density(rng, 4)
    p = hilbert.random_projector(rng, 4)
    report = hilbert.verify_state_axioms(rho, [p, hilbert.ortho(p)])
    assert report.ok


def test_state_axioms_maximally_mixed():
    dim = 4
    rho = np.eye(dim, dtype=complex) / dim
    family = [hilbert.projector_from_span([hilbert.basis_vector(dim, i)]) for i in range(dim)]
    for p in family:
        assert hilbert.born(rho, p) == pytest.approx(1 / dim, abs=1e-12)
    report = hilbert.verify_state_axioms(rho, family)
    assert report.ok and report.additivity_residual <= 1e-9


def test_state_axioms_random_orthogonal_triple(rng):
    e = basis(4)
    rho = hilbert.random_density(rng, 4)
    vecs = [v for v in np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0].T]
    family = [hilbert.projector_from_span([v]) for v in vecs[:3]]
    report = hilbert.verify_state_axioms(rho, family)
    assert report.ok


def test_state_axioms_rejects_non_orthogonal(rng):
    rho = hilbert.random_density(rng, 3)
    e = basis(3)
    p = hilbert.projector_from_span([e[0]])
    q = hilbert.projector_from_span([(e[0] + e[1]) / np.sqrt(2)])
    with pytest.raises(InvariantViolation, match="not orthogonal"):
        hilbert.verify_state_axioms(rho, [p, q])


def _informationally_complete_family(rng, dim):
    family = []
    while True:
        g = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        family.append(hilbert.projector_from_span([g]))
        if len(family) >= dim * dim + 2:
            return family


def test_state_reconstruction_roundtrip(rng):
    dim = 3
    hidden = hilbert.random_density(rng, dim)
    family = _informationally_complete_family(rng, dim)
    values = [hilbert.born(hidden, p) for p in family]
    result = hilbert.state_reconstruction(family, values)
    assert max_norm(result.state - hidden) <= 1e-8
    assert result.residual <= 1e-8


def test_state_reconstruction_maximally_mixed(rng):
    dim = 3
    family = _informationally_complete_family(rng, dim)
    values = [hilbert.born(np.eye(dim) / dim, p) for p in family]
    result = hilbert.state_reconstruction(family, values)
    assert max_norm(result.state - np.eye(dim) / dim) <= 1e-8


def test_state_reconstruction_rejects_impossible_values(rng):
    dim = 3
    e = basis(dim)
    family = _informationally_complete_family(rng, dim)
    family += [hilbert.projector_from_span([e[0]]), hilbert.projector_from_span([e[1]])]
    values = [0.0] * (len(family) - 2) + [1.0, 1.0]
    with pytest.raises(InvariantViolation, match="not realizable|family does not"):
        hilbert.state_reconstruction(family, values)


def test_state_reconstruction_rank_deficient(rng):
    e = basis(3)
    family = [hilbert.projector_from_span([e[i]]) for i in range(3)]
    with pytest.raises(InvariantViolation, match="family does not determine"):
        hilbert.state_reconstruction(family, [0.2, 0.3, 0.5])


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_lattice_laws_random(rng, dim):
    for _ in range(100):
        p = hilbert.random_projector(rng, dim)
        q = hilbert.random_projector(rng, dim)
        meet_pq = hilbert.meet(p, q)
        join_pq = hilbert.join(p, q)
        assert max_norm(meet_pq - hilbert.meet(q, p)) <= 1e-8
        assert max_norm(join_pq - hilbert.join(q, p)) <= 1e-8
        assert max_norm(hilbert.meet(p, p) - p) <= 1e-8
        assert max_norm(hilbert.join(p, hilbert.meet(p, q)) - p) <= 1e-8
        de_morgan = hilbert.meet(hilbert.ortho(p), hilbert.ortho(q))
        assert max_norm(hilbert.ortho(join_pq) - de_morgan) <= 1e-8


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_orthomodular_law_random(rng, dim):
    for _ in range(100):
        p = hilbert.random_projector(rng, dim)
        q = hilbert.join(p, hilbert.random_projector(rng, dim))
        assert hilbert.leq(p, q, 1e-7)
        rebuilt = hilbert.join(p, hilbert.meet(q, hilbert.ortho(p)))
        assert max_norm(q - rebuilt) <= 1e-8


def test_born_monotonicity_and_additivity(rng):
    for _ in range(200):
        dim = int(rng.integers(2, 5))
        rho = hilbert.random_density(rng, dim)
        p = hilbert.random_projector(rng, dim)
        q = hilbert.random_projector(rng, dim)
        assert hilbert.born(rho, hilbert.meet(p, q)) <= hilbert.born(rho, p) + 1e-9
        assert hilbert.born(rho, p) <= hilbert.born(rho, hilbert.join(p, q)) + 1e-9
        r = hilbert.meet(q, hilbert.ortho(p))
        if hilbert.is_orthogonal(p, r):
            total = hilbert.born(rho, hilbert.join(p, r))
            assert abs(total - hilbert.born(rho, p) - hilbert.born(rho, r)) <= 1e-9


def test_operator_json_roundtrip(rng):
    p = hilbert.random_projector(rng, 3)
    obj = hilbert.operator_to_json(p, "projector")
    back, kind = hilbert.operator_from_json(obj)
    assert kind == "projector" and max_norm(back - p) <= 1e-12
    with pytest.raises(InvariantViolation, match="kind"):
        hilbert.operator_from_json({"rows": 1, "cols": 1, "entries": [[1, 0]]})


def _stacked_pairs(rng, dim):
    """Random pairs of every rank combination, then the degenerate pairs:
    p = q, p orthogonal to q (a ray and the whole complement), 0 and I."""
    pairs = [
        (hilbert.random_projector(rng, dim, a), hilbert.random_projector(rng, dim, b))
        for a in range(1, dim)
        for b in range(1, dim)
    ]
    p = hilbert.random_projector(rng, dim)
    ray = hilbert.projector_from_span([hilbert.ortho(p) @ (rng.normal(size=dim) + 1j * rng.normal(size=dim))])
    zero, one = hilbert.zero(dim), hilbert.identity(dim)
    pairs += [(p, p), (p, ray), (p, hilbert.ortho(p)), (p, zero), (p, one), (zero, zero), (one, one), (zero, one)]
    return np.array([a for a, _ in pairs]), np.array([b for _, b in pairs])


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_stack_matches_slices(rng, dim):
    p, q = _stacked_pairs(rng, dim)
    n = len(p)
    for op in (hilbert.meet, hilbert.join):
        stack = op(p, q)
        assert stack.shape == p.shape
        for i in range(n):
            assert max_norm(stack[i] - op(p[i], q[i])) <= 1e-12, (op.__name__, i)
        assert max_norm(stack - stack.conj().swapaxes(-1, -2)) <= 1e-12
        assert max_norm(stack @ stack - stack) <= 1e-12
    # the degenerate pairs, in the order _stacked_pairs appends them
    meet, join = hilbert.meet(p, q)[-8:], hilbert.join(p, q)[-8:]
    x, one = p[-8], np.eye(dim)
    for got, want in [
        (meet[0], x), (join[0], x),  # p = q
        (meet[1], 0 * x), (join[1], x + q[-7]),  # p orthogonal to a ray
        (meet[2], 0 * x), (join[2], one),  # p and its complement
        (meet[3], 0 * x), (join[3], x),  # p and 0
        (meet[4], x), (join[4], one),  # p and I
        (meet[5], 0 * x), (join[6], one), (meet[7], 0 * x), (join[7], one),
    ]:
        assert max_norm(got - want) <= 1e-12
    rho = np.array([hilbert.random_density(rng, dim) for _ in range(n)])
    values = hilbert.born(rho, p)
    assert values.shape == (n,)
    for i in range(n):
        assert abs(values[i] - hilbert.born(rho[i], p[i])) <= 1e-12


def test_kernel_keeps_its_guards(monkeypatch):
    # a non-Hermitian slice anywhere in a stack is refused
    good = np.array([np.diag([1.0, 0.0]), np.eye(2)], dtype=complex)
    bad = good.copy()
    bad[1, 0, 1] = 1.0
    hilbert.meet(good, good)
    with pytest.raises(NotHermitian, match="asymmetry"):
        hilbert.meet(bad, good)
    with pytest.raises(NotHermitian):
        hilbert.meet(np.array([[1.0, 1.0], [0.0, 0.0]]), hilbert.zero(2))
    # one Born value out of range anywhere in a stack is refused
    rho = np.array([np.eye(2) / 2, np.eye(2) / 2, np.eye(2)], dtype=complex)
    with pytest.raises(InvariantViolation, match="Born value 2.0 "):
        hilbert.born(rho, np.array([np.eye(2)] * 3))
    # meet and join take the eigenvector columns as they are: no Gram-Schmidt
    def banned(*args, **kwargs):
        raise AssertionError("re-orthonormalization in the kernel")

    monkeypatch.setattr(linalg, "orthonormalize", banned)
    monkeypatch.setattr(hilbert, "orthonormalize", banned)
    monkeypatch.setattr(hilbert, "projector_from_span", banned)
    e = basis(3)
    p = np.outer(e[0], e[0]) + np.outer(e[1], e[1])
    q = np.outer(e[1], e[1]) + np.outer(e[2], e[2])
    assert max_norm(hilbert.meet(p, q) - np.outer(e[1], e[1])) <= 1e-12
    assert max_norm(hilbert.join(p, q) - np.eye(3)) <= 1e-12


def test_validators_check_stacks_by_slice():
    # the validators and the bindings take a stack as the kernel does,
    # naming the first bad slice; the wire form takes exactly one matrix
    stack = np.array([np.diag([1.0, 0.0]), np.eye(2)], dtype=complex)
    assert hilbert.check_projector(stack).shape == (2, 2, 2)
    assert hilbert.check_density(stack / np.array([1.0, 2.0])[:, None, None]).shape == (2, 2, 2)
    assert ProjectorBindings({"P": stack}).dim == 2
    with pytest.raises(InvariantViolation, match=r"not a projector at slice \(1,\)"):
        hilbert.check_projector(stack * np.array([1.0, 0.5])[:, None, None])
    with pytest.raises(InvariantViolation, match=r"not a density operator at slice \(0,\)"):
        hilbert.check_density(stack / 2)
    with pytest.raises(InvariantViolation, match=r"not a projector at slice \(0, 1\)"):
        ProjectorBindings({"P": np.array([[stack[0], stack[1] / 2]])})
    with pytest.raises(DimensionMismatch, match="must be square, got 2x3"):
        hilbert.check_projector(np.zeros((4, 2, 3)))
    with pytest.raises(DimensionMismatch):
        linalg.matrix_to_json(stack)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_batched_draws_match_successive_calls(dim):
    # the legality sweep's interleaved P, Q, rho and the lattice laws' p, q, r
    for kinds in (("projector", "projector", "density"), ("projector",) * 3):
        batched_rng, loop_rng = np.random.default_rng(dim), np.random.default_rng(dim)
        stacks = hilbert.random_stacks(batched_rng, dim, 200, kinds)
        draw = {"projector": hilbert.random_projector, "density": hilbert.random_density}
        for t in range(200):
            for kind, stack in zip(kinds, stacks):
                assert np.array_equal(stack[t], draw[kind](loop_rng, dim)), (kinds, t, kind)
        assert batched_rng.bit_generator.state == loop_rng.bit_generator.state
    empty = hilbert.random_stacks(np.random.default_rng(0), dim, 0, kinds)
    assert [s.shape for s in empty] == [(0, dim, dim)] * 3
    with pytest.raises(ValueError, match="non-negative"):
        hilbert.random_stacks(np.random.default_rng(0), dim, -1, kinds)


def _two_call_stacks(rng, dim, trials, kinds):
    """random_stacks as first written: per trial and kind, the rank of a
    projector, then two ``normal`` calls combined by ``+ 1j *``; projectors
    built per rank group by one QR, states as G G^H / tr."""
    blocks = [[] for _ in kinds]
    for _ in range(trials):
        for kind, out in zip(kinds, blocks):
            rows = dim
            if kind == "projector":
                rows = int(rng.integers(1, dim)) if dim > 1 else 1
            out.append(rng.normal(size=(rows, dim)) + 1j * rng.normal(size=(rows, dim)))
    stacks = []
    for kind, got in zip(kinds, blocks):
        if kind == "density":
            g = np.array(got, dtype=np.complex128).reshape(trials, dim, dim)
            m = g @ g.conj().swapaxes(-1, -2)
            stacks.append(m / np.trace(m, axis1=-2, axis2=-1)[:, None, None])
            continue
        out = np.empty((trials, dim, dim), dtype=np.complex128)
        by_rank = {}
        for i, g in enumerate(got):
            by_rank.setdefault(g.shape[0], []).append(i)
        for rows in by_rank.values():
            basis, _ = np.linalg.qr(np.array([got[i] for i in rows]).swapaxes(-1, -2))
            out[rows] = basis @ basis.conj().swapaxes(-1, -2)
        stacks.append(out)
    return stacks


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_random_stacks_match_two_normal_calls_per_block(dim):
    # pins the RNG call order and the bits against an independent copy of
    # the two-call draw, not through the block helpers random_stacks uses
    for kinds in (("projector", "projector", "density"), ("projector",) * 3, ("density", "projector")):
        rng, ref_rng = np.random.default_rng(100 + dim), np.random.default_rng(100 + dim)
        stacks = hilbert.random_stacks(rng, dim, 150, kinds)
        expected = _two_call_stacks(ref_rng, dim, 150, kinds)
        for kind, got, want in zip(kinds, stacks, expected):
            assert got.shape == want.shape == (150, dim, dim)
            assert got.tobytes() == want.tobytes(), (kinds, kind)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_random_projector_rank_range(rng):
    state = rng.bit_generator.state
    for rank in (-1, 4, 5):
        with pytest.raises(ValueError, match=r"rank must lie in 0\.\.3"):
            hilbert.random_projector(rng, 3, rank)
    assert rng.bit_generator.state == state  # refused before any draw
    assert max_norm(hilbert.random_projector(rng, 3, 0)) == 0.0
    assert max_norm(hilbert.random_projector(rng, 3, 3) - np.eye(3)) <= 1e-12
    assert hilbert.rank_of(hilbert.random_projector(rng, 3, 2)) == 2


def test_residuals_per_slice(rng):
    p = np.array([hilbert.random_projector(rng, 3) for _ in range(4)])
    p[2, 0, 1] += 1e-3
    rho = np.array([hilbert.random_density(rng, 3) for _ in range(4)])
    rho[1] *= 1.5
    for residuals, stack in ((hilbert.projector_residuals, p), (hilbert.density_residuals, rho)):
        per_slice = residuals(stack)
        for i, matrix in enumerate(stack):
            single = residuals(matrix)
            assert all(type(v) is float for v in single.values())
            assert {k: float(v[i]) for k, v in per_slice.items()} == single
    with pytest.raises(InvariantViolation, match=r"not a projector at slice \(2,\)"):
        hilbert.require_residuals("projector", hilbert.projector_residuals(p), 1e-9)
    with pytest.raises(InvariantViolation, match=r"not a density operator at slice \(1,\)"):
        hilbert.require_residuals("density operator", hilbert.density_residuals(rho), 1e-9)
