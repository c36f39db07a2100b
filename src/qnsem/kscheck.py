"""Vector context families and the search for classical truth-value
assignments: exactly one vector per orthonormal context carries the value 1,
and no two orthogonal vectors carry it together.

The orthogonality graph is precomputed once from the vector data (exact for
the bundled integer fixtures), after which the search is purely
combinatorial, so unsatisfiability verdicts do not depend on floating-point
branching.  Contexts are processed most-constrained first with deterministic
tie-breaking by id.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import hilbert
from .linalg import DEFAULT_TOL, json_count, json_entries, json_list, json_object, max_norm


@dataclass(frozen=True)
class VectorContextFamily:
    """Named vectors in one dimension plus contexts (orthonormal bases)."""

    dim: int
    vectors: Mapping[str, np.ndarray]
    contexts: tuple[tuple[str, ...], ...]

    @staticmethod
    def from_json(obj: dict) -> "VectorContextFamily":
        dim = json_count(obj["dim"], "dim")
        vectors = {}
        for vid, entries in json_object(obj["vectors"], "vectors").items():
            v = json_entries(entries, f"vectors[{vid!r}]")
            if v.size != dim:
                raise ValueError(f"vector {vid!r} has length {v.size}, expected {dim}")
            vectors[vid] = v
        contexts = tuple(
            tuple(json_list(ctx, f"contexts[{i}]")) for i, ctx in enumerate(json_list(obj["contexts"], "contexts"))
        )
        for ctx in contexts:
            for vid in ctx:
                if vid not in vectors:
                    raise ValueError(f"context {ctx} references unknown vector {vid!r}")
        return VectorContextFamily(dim, vectors, contexts)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "vectors": {
                vid: [[float(z.real), float(z.imag)] for z in vec]
                for vid, vec in sorted(self.vectors.items())
            },
            "contexts": [list(ctx) for ctx in self.contexts],
        }

    def ids(self) -> list[str]:
        return sorted(self.vectors)


def _scaled(vectors) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``vectors``, each divided by the power of two 2**e that
    brings its entries into [-1, 1], and the exponents e.  The scaling is
    exact, and no norm or inner product of the scaled rows overflows."""
    parts = np.ascontiguousarray(vectors, dtype=np.complex128).view(np.float64)  # re, im interleaved
    exps = np.frexp(np.abs(parts).max(axis=-1, initial=0.0))[1]
    return np.ldexp(parts, -exps[..., None]).view(np.complex128), exps


def orthogonality_graph(
    family: VectorContextFamily, tol: float = DEFAULT_TOL
) -> dict[str, set[str]]:
    """Adjacency by vanishing inner product, relative to the vector norms:
    ``|<a, b>| <= tol * max(1, |a| |b|)``, every pair from one Gram product
    of the ``_scaled`` rows, both sides divided by 2**(e_a + e_b)."""
    ids = family.ids()
    vectors, exps = _scaled(np.reshape([family.vectors[vid] for vid in ids], (len(ids), family.dim)))
    norms = np.linalg.norm(vectors, axis=1)
    with np.errstate(over="ignore"):  # an infinite tol / 2**(e_a + e_b) is right
        floor = np.ldexp(tol, -np.add.outer(exps, exps))
    apart = np.abs(vectors.conj() @ vectors.T) <= np.maximum(floor, tol * np.outer(norms, norms))
    np.fill_diagonal(apart, False)
    return {vid: {ids[k] for k in np.flatnonzero(row)} for vid, row in zip(ids, apart)}


@dataclass(frozen=True)
class ContextReport:
    orthonormality: dict[str, float]
    resolution: dict[str, float]
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems


def verify_contexts(family: VectorContextFamily, tol: float = DEFAULT_TOL) -> ContextReport:
    """Per-context residuals: pairwise orthonormality of the (normalized)
    members and completeness of the rank-one resolution of identity."""
    problems: list[str] = []
    ortho_res: dict[str, float] = {}
    resolution_res: dict[str, float] = {}
    for ctx in family.contexts:
        key = ",".join(ctx)
        if len(set(ctx)) != len(ctx):
            problems.append(f"context ({key}) repeats a vector id")
            continue
        if len(ctx) != family.dim:
            problems.append(f"context ({key}) has {len(ctx)} members, expected {family.dim}")
        vecs = _scaled(np.reshape([family.vectors[vid] for vid in ctx], (len(ctx), family.dim)))[0]
        norms = np.linalg.norm(vecs, axis=1)
        problems += [f"vector {vid!r} is zero" for vid, norm in zip(ctx, norms) if norm == 0.0]
        vecs = vecs[norms > 0] / norms[norms > 0, None]
        res = max_norm(vecs.conj() @ vecs.T - np.eye(len(vecs)))
        ortho_res[key] = res
        if res > tol:
            problems.append(f"context ({key}) is not orthonormal: residual {res:.3e}")
        res = max_norm(vecs.T @ vecs.conj() - hilbert.identity(family.dim))
        resolution_res[key] = res
        if res > tol:
            problems.append(f"context ({key}) does not resolve the identity: residual {res:.3e}")
    return ContextReport(ortho_res, resolution_res, tuple(problems))


def _prepared(family: VectorContextFamily, tol: float):
    adj = orthogonality_graph(family, tol)
    ids = family.ids()
    order = {vid: k for k, vid in enumerate(ids)}
    contexts = [tuple(sorted(ctx, key=order.__getitem__)) for ctx in family.contexts]
    return adj, ids, contexts


def _search(family: VectorContextFamily, tol: float, count_cap: int | None):
    """Backtracking core: returns (first solution, count up to cap)."""
    adj, ids, contexts = _prepared(family, tol)
    state: dict[str, int] = {}
    first: dict[str, int] | None = None
    count = 0

    def context_status(ctx) -> tuple[int, list[str]]:
        ones = sum(1 for v in ctx if state.get(v) == 1)
        free = [v for v in ctx if v not in state]
        return ones, free

    def choose_context():
        best = None
        for ctx in contexts:
            ones, free = context_status(ctx)
            if ones > 1:
                return ctx, -1  # contradiction
            if ones == 1:
                continue
            if not free:
                return ctx, -1  # all zero, no candidate left
            if best is None or len(free) < len(best[1]):
                best = (ctx, free)
        if best is None:
            return None, 0
        return best[0], best[1]

    def assign_one(v: str):
        changed = []
        state[v] = 1
        changed.append(v)
        for w in adj[v]:
            if state.get(w) == 1:
                return changed, False
            if w not in state:
                state[w] = 0
                changed.append(w)
        return changed, True

    # one frame per open context: [free vectors, index of the next to try,
    # the assignments made by the current try]; the loop visits the same
    # choices in the same order as recursing once per context would
    frames: list[list] = []
    while True:
        ctx, free = choose_context()
        if ctx is None:  # every context holds its one vector: a solution
            count += 1
            if first is None:
                first = dict.fromkeys(ids, 0)
                first.update(state)
            if count_cap is None or count >= count_cap:
                break
        elif free != -1:
            frames.append([free, 0, []])
        # backtrack to the innermost context with an untried vector left,
        # and assign that vector
        descended = False
        while frames and not descended:
            frame = frames[-1]
            for w in frame[2]:
                del state[w]
            if frame[1] == len(frame[0]):
                frames.pop()
                continue
            frame[2], descended = assign_one(frame[0][frame[1]])
            frame[1] += 1
        if not descended:
            break
    return first, count


def search_classical_valuation(
    family: VectorContextFamily, tol: float = DEFAULT_TOL
) -> dict[str, int] | None:
    """One {0,1} assignment with exactly one 1 per context and no orthogonal
    pair both 1, or None when the family admits none.

    Choosing a vector propagates 0 to all its orthogonality-graph neighbours
    across contexts, so a returned assignment is globally consistent;
    unassigned leftovers (vectors outside every context) default to 0.
    """
    first, _ = _search(family, tol, count_cap=None)
    return first


def count_solutions(family: VectorContextFamily, cap: int = 10**6, tol: float = DEFAULT_TOL) -> int:
    """Exact solution count (up to cap) by exhaustive backtracking."""
    _, count = _search(family, tol, count_cap=cap)
    return count


#: exhaustive_count checks at most 2**_CHUNK_BITS assignments at a time
_CHUNK_BITS = 15


def exhaustive_count(family: VectorContextFamily, tol: float = DEFAULT_TOL) -> int:
    """Solution count by sheer enumeration of all 2^n assignments.

    Independent of the backtracking path: assignments are bitmasks, the
    exactly-one and no-orthogonal-pair constraints are evaluated by
    vectorized popcounts.  The low ``_CHUNK_BITS`` vectors range over one
    fixed grid of bit columns and the others are constants per chunk, so
    memory stays bounded.  Practical up to roughly 22 vectors.
    """
    ids = family.ids()
    n = len(ids)
    if n > 22:
        raise ValueError(f"exhaustive enumeration over {n} vectors is too large")
    low = min(n, _CHUNK_BITS)
    grid = np.arange(1 << low, dtype=np.int64)
    low_bits = [((grid >> k) & 1).astype(np.uint8) for k in range(low)]
    covered = {vid for ctx in family.contexts for vid in ctx}
    adj = orthogonality_graph(family, tol)
    edges = [(a, b) for a in ids for b in adj[a] if a < b]
    total = 0
    for high in itertools.product((0, 1), repeat=n - low):
        # bit[vid] is vector vid's value: a column over the chunk, or one int
        bit = dict(zip(ids, low_bits + list(high)))
        ok = np.ones(1 << low, dtype=bool)
        for vid in ids:
            if vid not in covered:  # same convention as the search: default to 0
                ok &= bit[vid] == 0
        for ctx in family.contexts:
            ok &= sum(bit[vid] for vid in ctx) == 1
        for a, b in edges:
            ok &= (bit[a] & bit[b]) == 0
        total += int(ok.sum())
    return total


def recheck_assignment(
    family: VectorContextFamily, assignment: Mapping[str, int], tol: float = DEFAULT_TOL
) -> list[str]:
    """Independent full re-check of the two constraints; empty means valid."""
    adj = orthogonality_graph(family, tol)
    problems = []
    for ctx in family.contexts:
        ones = sum(assignment[v] for v in ctx)
        if ones != 1:
            problems.append(f"context ({','.join(ctx)}) carries {ones} ones")
    for a, b in itertools.combinations(sorted(assignment), 2):
        if assignment[a] == assignment[b] == 1 and b in adj[a]:
            problems.append(f"orthogonal pair ({a}, {b}) both true")
    return problems


# ---------------------------------------------------------------------------
# order-respecting two-valued families over projector fragments


@dataclass(frozen=True)
class AdmissibilityReport:
    """Which of the nested admissibility conditions a {0,1} assignment on a
    projector fragment satisfies: complement-flip plus order preservation,
    then normality (some true ray), then exactly-one-per-context."""

    s3_violations: tuple[str, ...]
    normal: bool
    rs3_violations: tuple[str, ...]

    @property
    def s3(self) -> bool:
        return not self.s3_violations

    @property
    def ns3(self) -> bool:
        return self.s3 and self.normal

    @property
    def rs3(self) -> bool:
        return self.ns3 and not self.rs3_violations


def s3_check(
    values: Mapping[str, int],
    fragment: Mapping[str, np.ndarray],
    ortho_pairs: Mapping[str, str],
    contexts: Sequence[Sequence[str]] = (),
    tol: float = DEFAULT_TOL,
) -> AdmissibilityReport:
    """Check the admissibility clauses on a projector fragment closed under
    complement: v(P)=1 iff v(P')=0, and truth propagates up the order."""
    missing = set(fragment) - set(values)
    if missing:
        raise ValueError(f"assignment misses {sorted(missing)[:5]}")
    if set(ortho_pairs) != set(fragment):
        raise ValueError("fragment is not closed under complement")
    violations: list[str] = []
    for name, partner in ortho_pairs.items():
        if partner not in fragment:
            raise ValueError(f"complement {partner!r} of {name!r} missing from fragment")
        if (values[name] == 1) != (values[partner] == 0):
            violations.append(f"complement flip fails at ({name}, {partner})")
    names = sorted(fragment)
    for a in names:
        if values[a] != 1:
            continue
        for b in names:
            if a != b and hilbert.leq(fragment[a], fragment[b], tol) and values[b] != 1:
                violations.append(f"order preservation fails: {a} <= {b} but v({b})=0")
    normal = any(
        values[a] == 1 and hilbert.rank_of(fragment[a]) == 1 for a in names
    )
    rs3_violations = []
    for ctx in contexts:
        ones = sum(values[v] for v in ctx)
        if ones != 1:
            rs3_violations.append(f"context ({','.join(ctx)}) carries {ones} ones")
    return AdmissibilityReport(tuple(violations), normal, tuple(rs3_violations))


def family_projectors(family: VectorContextFamily) -> dict[str, np.ndarray]:
    """Rank-one projectors of the (normalized) family vectors."""
    out = {}
    for vid, v in family.vectors.items():
        out[vid] = hilbert.projector_from_span([v])
    return out
