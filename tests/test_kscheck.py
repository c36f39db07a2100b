import inspect
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import family_to_json
from qnsem import fixtures, hilbert, kscheck

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))


def standard_family(dim=3):
    vecs = {f"e{i+1}": hilbert.basis_vector(dim, i) for i in range(dim)}
    return kscheck.VectorContextFamily(dim, vecs, (tuple(sorted(vecs)),))


def rotated_family():
    """Two dim-3 contexts sharing the first basis vector."""
    e = [hilbert.basis_vector(3, i) for i in range(3)]
    c, s = np.cos(0.7), np.sin(0.7)
    f2 = c * e[1] + s * e[2]
    f3 = -s * e[1] + c * e[2]
    vecs = {"e1": e[0], "e2": e[1], "e3": e[2], "f2": f2, "f3": f3}
    return kscheck.VectorContextFamily(3, vecs, (("e1", "e2", "e3"), ("e1", "f2", "f3")))


def recheck_assignment(family, assignment, tol=1e-9) -> list[str]:
    """Independent full re-check of the two constraints; empty means valid."""
    adj = kscheck.orthogonality_graph(family, tol)
    problems = []
    for ctx in family.contexts:
        ones = sum(assignment[v] for v in ctx)
        if ones != 1:
            problems.append(f"context ({','.join(ctx)}) carries {ones} ones")
    for a, b in itertools.combinations(sorted(assignment), 2):
        if assignment[a] == assignment[b] == 1 and b in adj[a]:
            problems.append(f"orthogonal pair ({a}, {b}) both true")
    return problems


def brute_force_count(family):
    """Test-local oracle over all 2^n assignments, independent of the library."""
    ids = family.ids()
    adj = kscheck.orthogonality_graph(family)
    count = 0
    for bits in itertools.product((0, 1), repeat=len(ids)):
        v = dict(zip(ids, bits))
        if any(sum(v[x] for x in ctx) != 1 for ctx in family.contexts):
            continue
        if any(v[a] and v[b] for a in ids for b in adj[a] if a < b):
            continue
        count += 1
    return count


def test_json_roundtrip():
    fam = fixtures.ks18()
    back = kscheck.VectorContextFamily.from_json(family_to_json(fam))
    assert back.contexts == fam.contexts
    assert all(np.array_equal(back.vectors[k], fam.vectors[k]) for k in fam.vectors)


def test_verify_contexts_standard_basis():
    report = kscheck.verify_contexts(standard_family())
    assert report.ok
    assert max(report.orthonormality.values()) == 0.0
    assert max(report.resolution.values()) == 0.0


def test_verify_contexts_incomplete():
    vecs = {f"e{i+1}": hilbert.basis_vector(3, i) for i in range(3)}
    fam = kscheck.VectorContextFamily(3, vecs, (("e1", "e2"),))
    report = kscheck.verify_contexts(fam)
    assert not report.ok
    assert any("expected 3" in p or "resolve" in p for p in report.problems)


def test_fixture_contexts_verified_exactly():
    report = kscheck.verify_contexts(fixtures.ks18())
    assert report.ok
    assert max(report.orthonormality.values()) <= 1e-12
    assert max(report.resolution.values()) <= 1e-12


def test_fixture_each_vector_in_two_contexts():
    fam = fixtures.ks18()
    assert len(fam.vectors) == 18 and len(fam.contexts) == 9
    usage = {vid: 0 for vid in fam.vectors}
    for ctx in fam.contexts:
        for vid in ctx:
            usage[vid] += 1
    assert all(n == 2 for n in usage.values())


def test_single_context_solutions():
    fam = standard_family()
    first = kscheck.search_classical_valuation(fam)
    assert first is not None
    assert recheck_assignment(fam, first) == []
    assert kscheck.count_solutions(fam) == 3
    assert kscheck.exhaustive_count(fam) == 3
    assert brute_force_count(fam) == 3


def test_two_disjoint_contexts():
    e = [hilbert.basis_vector(3, i) for i in range(3)]
    w = np.exp(2j * np.pi / 3)
    fourier = {
        "f1": np.array([1, 1, 1], dtype=complex) / np.sqrt(3),
        "f2": np.array([1, w, w**2], dtype=complex) / np.sqrt(3),
        "f3": np.array([1, w**2, w], dtype=complex) / np.sqrt(3),
    }
    vecs = {f"e{i+1}": e[i] for i in range(3)} | fourier
    fam = kscheck.VectorContextFamily(3, vecs, (("e1", "e2", "e3"), ("f1", "f2", "f3")))
    assert kscheck.count_solutions(fam) == 9
    assert kscheck.exhaustive_count(fam) == 9


def test_shared_vector_family_agreement():
    fam = rotated_family()
    assert kscheck.count_solutions(fam) == kscheck.exhaustive_count(fam) == brute_force_count(fam)
    first = kscheck.search_classical_valuation(fam)
    assert first is not None and recheck_assignment(fam, first) == []


def test_ks_fixture_unsat_three_ways():
    fam = fixtures.ks18()
    assert kscheck.search_classical_valuation(fam) is None
    assert kscheck.count_solutions(fam) == 0
    assert kscheck.exhaustive_count(fam) == 0


def test_monotone_hardness():
    # adding a context over already-covered vectors is a pure filter, so the
    # solution count cannot grow; from seven contexts on, the bundled family
    # covers all eighteen vectors
    fam = fixtures.ks18()
    counts = []
    for k in (7, 8, 9):
        sub = kscheck.VectorContextFamily(fam.dim, fam.vectors, fam.contexts[:k])
        covered = {v for ctx in sub.contexts for v in ctx}
        assert covered == set(fam.vectors)
        counts.append(kscheck.count_solutions(sub))
    assert counts == sorted(counts, reverse=True)
    assert counts[-1] == 0


def test_propagation_soundness_on_random_subfamilies(rng):
    fam = fixtures.ks18()
    for _ in range(20):
        k = int(rng.integers(1, 6))
        picks = rng.choice(len(fam.contexts), size=k, replace=False)
        sub = kscheck.VectorContextFamily(
            fam.dim, fam.vectors, tuple(fam.contexts[i] for i in sorted(picks))
        )
        result = kscheck.search_classical_valuation(sub)
        if result is not None:
            assert recheck_assignment(sub, result) == []


def test_backtracking_matches_brute_force_small_families(rng):
    # families with at most 12 vectors: exact agreement with enumeration
    fam = fixtures.ks18()
    for k in (1, 2, 3):
        sub = kscheck.VectorContextFamily(fam.dim, fam.vectors, fam.contexts[:k])
        used = {v for ctx in sub.contexts for v in ctx}
        trimmed = kscheck.VectorContextFamily(
            fam.dim, {k_: v for k_, v in fam.vectors.items() if k_ in used}, sub.contexts
        )
        if len(trimmed.vectors) <= 12:
            assert kscheck.count_solutions(trimmed) == brute_force_count(trimmed)


def test_rs3_on_ks_fixture_is_empty():
    # exactly-one-per-context is the binding constraint: its emptiness on the
    # bundled family is the backtracking verdict
    fam = fixtures.ks18()
    assert kscheck.search_classical_valuation(fam) is None


# ---------------------------------------------------------------------------
# the backtracking loop against the recursive search it replaced


def recursive_search(family, cap=None):
    """The search as one recursion level per open context: same choice
    order, kept as the oracle of the explicit-stack loop.  A cap of None
    counts every solution."""
    adj = kscheck.orthogonality_graph(family)
    ids = family.ids()
    contexts = [sorted(ctx, key=ids.index) for ctx in family.contexts]
    state, found = {}, {"first": None, "count": 0}

    def choose():
        best = None
        for ctx in contexts:
            ones = sum(1 for v in ctx if state.get(v) == 1)
            free = [v for v in ctx if v not in state]
            if ones > 1 or (ones == 0 and not free):
                return ctx, None
            if ones == 0 and (best is None or len(free) < len(best[1])):
                best = (ctx, free)
        return best if best is not None else (None, [])

    def assign(v):
        changed = [v]
        state[v] = 1
        for w in adj[v]:
            if state.get(w) == 1:
                return changed, False
            if w not in state:
                state[w] = 0
                changed.append(w)
        return changed, True

    def rec():
        ctx, free = choose()
        if free is None:
            return False
        if ctx is None:
            found["count"] += 1
            if found["first"] is None:
                found["first"] = {**dict.fromkeys(ids, 0), **state}
            return cap is not None and found["count"] >= cap
        for v in free:
            changed, ok = assign(v)
            if ok and rec():
                return True
            for w in changed:
                del state[w]
        return False

    rec()
    return found["first"], found["count"]


def _benchmark_families():
    """ks18, peres24 and the benchmark's random peres24 subfamilies."""
    import known
    import workloads

    rng = np.random.default_rng(0)
    peres = known.peres24()
    size = workloads.KS_SUBFAMILY_VECTORS
    subs = [known.subfamily(peres, rng, size) for _ in range(workloads.KS_SUBFAMILIES)]
    subs += [known.subfamily(peres, np.random.default_rng(s), n) for s in range(4) for n in (10, 14, 20)]
    out = [fixtures.ks18()]
    for fam in [peres, *subs]:
        vectors = {vid: np.array(v, dtype=np.complex128) for vid, v in fam.vectors.items()}
        out.append(kscheck.VectorContextFamily(4, vectors, fam.contexts))
    return out


def test_search_loop_matches_recursive_oracle():
    satisfiable = 0
    for fam in _benchmark_families():
        first, count = recursive_search(fam)
        assert kscheck.search_classical_valuation(fam) == first
        assert kscheck.count_solutions(fam) == count
        for cap in (1, 3):
            assert kscheck.count_solutions(fam, cap=cap) == recursive_search(fam, cap=cap)[1]
        satisfiable += first is not None
    assert satisfiable > 0  # both verdicts are covered


def test_vector_listed_twice_in_a_context_is_zero():
    # e1 can never be the one 1 of (e1, e1, e2, e3); context masks are
    # unions, so the repeat must not set another bit
    fam = kscheck.VectorContextFamily(3, standard_family().vectors, (("e1", "e1", "e2", "e3"),))
    first = {"e1": 0, "e2": 1, "e3": 0}
    assert kscheck.search_classical_valuation(fam) == recursive_search(fam)[0] == first
    for cap, count in ((1, 1), (3, 2), (10**6, 2)):
        assert kscheck.count_solutions(fam, cap=cap) == recursive_search(fam, cap=cap)[1] == count
    assert kscheck.exhaustive_count(fam) == brute_force_count(fam) == 2


@pytest.mark.parametrize("cap", [0, -1])
def test_count_refuses_a_cap_below_one(cap):
    with pytest.raises(ValueError, match="cap must be at least 1"):
        kscheck.count_solutions(fixtures.single_context_dim3(), cap=cap)


def _cut_peres_family(rng, n):
    """n of Peres's 24 rays and a random third of its contexts, each cut down
    to those rays: contexts lose vectors, and a ray whose contexts all went
    is uncovered."""
    import known

    peres = known.peres24()
    keep = set(rng.choice(sorted(peres.vectors), size=n, replace=False).tolist())
    contexts = (tuple(v for v in ctx if v in keep) for ctx, pick in zip(peres.contexts, rng.random(24) < 0.35) if pick)
    vectors = {vid: np.array(peres.vectors[vid], dtype=np.complex128) for vid in keep}
    return kscheck.VectorContextFamily(4, vectors, tuple(ctx for ctx in contexts if ctx))


def test_bit_sliced_count_matches_brute_force_at_every_chunk_size(monkeypatch):
    # n = 5, 6 and 7 sit at the edge of one 64-bit word; chunks of 0 and 3
    # bits (up to n = 10) make most vectors per-chunk constants, 6 and 7 one
    # or two words
    # the count, like the search, holds an uncovered vector at 0: it is the
    # oracle's count on the covered vectors alone
    rng = np.random.default_rng(2025)
    families = [_cut_peres_family(rng, n) for n in range(1, 17) for _ in range(1 + (n <= 12))]
    covered = [{v for ctx in fam.contexts for v in ctx} for fam in families]
    expected = [
        brute_force_count(kscheck.VectorContextFamily(4, {v: fam.vectors[v] for v in c}, fam.contexts))
        for c, fam in zip(covered, families)
    ]
    assert any(len(c) < len(fam.vectors) for c, fam in zip(covered, families))  # uncovered vectors
    assert any(0 < len(ctx) < 4 for fam in families for ctx in fam.contexts)  # contexts with vectors dropped
    assert 0 in expected and max(expected) > 1
    for chunk_bits in (0, 3, 6, 7, kscheck._CHUNK_BITS):
        monkeypatch.setattr(kscheck, "_CHUNK_BITS", chunk_bits)
        up_to = 16 if chunk_bits > 3 else 10  # one chunk per assignment is slow
        cases = [(fam, count) for fam, count in zip(families, expected) if len(fam.vectors) <= up_to]
        assert [kscheck.exhaustive_count(fam) for fam, _ in cases] == [count for _, count in cases], chunk_bits


def test_exhaustive_count_stops_at_22_vectors():
    # one single-vector context each: the all-ones assignment is the only one
    vectors = {f"v{i:02d}": np.array([1.0 + 0j]) for i in range(23)}
    fam = kscheck.VectorContextFamily(1, vectors, tuple((vid,) for vid in sorted(vectors)))
    with pytest.raises(ValueError, match="23 vectors is too large"):
        kscheck.exhaustive_count(fam)
    del vectors["v22"]
    assert kscheck.exhaustive_count(kscheck.VectorContextFamily(1, vectors, fam.contexts[:22])) == 1


def test_exhaustive_count_in_chunks_matches_search(monkeypatch):
    # the count does not depend on the chunk size, down to one assignment
    # per chunk; an uncovered vector counts as 0, as in the search
    large = [f for f in _benchmark_families() if len(f.ids()) <= 20]
    e = [hilbert.basis_vector(3, i) for i in range(3)]
    uncovered = kscheck.VectorContextFamily(3, {"e1": e[0], "e2": e[1], "e3": e[2]}, (("e1", "e2"),))
    small = [standard_family(), rotated_family(), uncovered, *(f for f in large if len(f.ids()) <= 10)]
    counts = []
    for chunk_bits, families in ((kscheck._CHUNK_BITS, large), (3, small), (0, small)):
        monkeypatch.setattr(kscheck, "_CHUNK_BITS", chunk_bits)
        for fam in families:
            count = kscheck.exhaustive_count(fam)
            assert count == kscheck.count_solutions(fam), (chunk_bits, fam.ids())
            counts.append(count)
    assert 0 in counts and max(counts) > 1


def test_search_has_no_depth_limit():
    # one context per level: deeper than the recursion limit allows the
    # recursive oracle, which must fail where the loop gets a verdict
    limit = sys.getrecursionlimit()
    depth = len(inspect.stack())
    n = 300
    vectors = {f"v{i:03d}": np.array([1.0 + 0j]) for i in range(n)}
    fam = kscheck.VectorContextFamily(1, vectors, tuple((vid,) for vid in sorted(vectors)))
    sys.setrecursionlimit(depth + 150)
    try:
        with pytest.raises(RecursionError):
            recursive_search(fam)
        first = kscheck.search_classical_valuation(fam)
        count = kscheck.count_solutions(fam)
    finally:
        sys.setrecursionlimit(limit)
    assert first == dict.fromkeys(vectors, 1) and count == 1


# ---------------------------------------------------------------------------
# the Gram-product orthogonality graph against the pair loop it replaced


def pairwise_orthogonality_graph(family, tol=kscheck.DEFAULT_TOL):
    """One ``np.vdot`` per pair with the same relative bound, kept as the
    oracle of the Gram product."""
    ids = family.ids()
    norms = {vid: float(np.linalg.norm(family.vectors[vid])) for vid in ids}
    adj = {vid: set() for vid in ids}
    for a, b in itertools.combinations(ids, 2):
        inner = abs(complex(np.vdot(family.vectors[a], family.vectors[b])))
        if inner <= tol * max(1.0, norms[a] * norms[b]):
            adj[a].add(b)
            adj[b].add(a)
    return adj


def _bound_straddling_family():
    """Scaled basis vectors tilted off their partners by multiples of the
    tolerance on both sides of the bound; below unit norm the bound is
    absolute, above it relative."""
    tol = kscheck.DEFAULT_TOL
    e = np.eye(4, dtype=np.complex128)
    vectors = {}
    for scale in (0.1, 1.0, 1e3):
        for tilt in (0.0, 0.5, 2.0, 50.0, 500.0):
            vectors[f"s{scale:g}t{tilt:g}"] = scale * (e[1] + tilt * tol * e[0])
        vectors[f"s{scale:g}"] = scale * e[0]
    return kscheck.VectorContextFamily(4, vectors, ())


def _random_bases_family(contexts=100, dim=3, seed=5):
    rng = np.random.default_rng(seed)
    vectors, ctxs = {}, []
    for c in range(contexts):
        basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        ctx = tuple(f"c{c:03d}v{k}" for k in range(dim))
        vectors.update(zip(ctx, basis.T))
        ctxs.append(ctx)
    return kscheck.VectorContextFamily(dim, vectors, tuple(ctxs))


def test_orthogonality_graph_matches_pair_loop():
    families = _benchmark_families()[:7] + [fixtures.single_context_dim3(), rotated_family()]
    families += [_bound_straddling_family(), _random_bases_family()]
    for fam in families:
        assert kscheck.orthogonality_graph(fam) == pairwise_orthogonality_graph(fam)
    # the straddling family puts pairs on both sides of the bound
    adj = kscheck.orthogonality_graph(_bound_straddling_family())
    assert {"s1t0.5", "s1000t0.5"} <= adj["s1"] and adj["s1"].isdisjoint({"s1t2", "s1000t2"})
    assert "s0.1t50" in adj["s0.1"] and "s0.1t500" not in adj["s0.1"]
    assert kscheck.orthogonality_graph(kscheck.VectorContextFamily(3, {}, ())) == {}


def test_huge_entries_do_not_overflow():
    # a ray is a ray at any scale; entries above about 1e154 overflowed the
    # norms and the Gram product
    data = family_to_json(fixtures.single_context_dim3())
    data["vectors"]["e1"] = [[1e200, 0], [0, 0], [0, 0]]
    single = kscheck.VectorContextFamily.from_json(data)
    assert kscheck.verify_contexts(single).ok and kscheck.count_solutions(single) == 3
    # inf <= inf made a and b adjacent
    huge = {"a": np.array([1e200, 1e200]), "b": np.array([1e200, 0.0]), "c": np.array([1e200, -1e200])}
    assert kscheck.orthogonality_graph(kscheck.VectorContextFamily(2, huge, ())) == {
        "a": {"c"}, "b": set(), "c": {"a"},
    }
    # norms of at least 1 put every pair in the relative regime of the
    # bound, so scaling a whole family keeps its graph
    for fam in _benchmark_families()[:7] + [_random_bases_family()]:
        scaled = kscheck.VectorContextFamily(fam.dim, {k: v * 2.0**900 for k, v in fam.vectors.items()}, fam.contexts)
        assert kscheck.orthogonality_graph(scaled) == kscheck.orthogonality_graph(fam)
        assert kscheck.verify_contexts(scaled).ok == kscheck.verify_contexts(fam).ok
