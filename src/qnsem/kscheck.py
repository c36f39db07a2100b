"""Vector context families and the search for classical truth-value
assignments: exactly one vector per orthonormal context carries the value 1,
and no two orthogonal vectors carry it together.

The orthogonality graph is precomputed once from the vector data (exact for
the bundled integer fixtures), after which the search is purely
combinatorial, so unsatisfiability verdicts do not depend on floating-point
branching.  It runs on int bitmasks, one bit per vector: contexts and
orthogonality neighbourhoods are masks, an assignment is the pair of masks
of its 1s and 0s, and each backtracking frame keeps the pair it started
from, so a backtrack restores a snapshot.  Contexts are processed
most-constrained first with deterministic tie-breaking by family order,
their vectors in id order.

``exhaustive_count`` is the independent oracle: it checks all 2^n
assignments, bit-sliced, so bit x of a uint64 word is assignment x and one
word op checks 64 assignments.  The low ``_CHUNK_BITS`` = 18 vectors range
over a chunk of 4,096 words (32 KB per column, at most 12 columns, under
0.4 MB); each pattern of the vectors above them is one chunk.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import hilbert
from .linalg import DEFAULT_TOL, _bits, json_count, json_entries, json_list, json_object, max_norm


@dataclass(frozen=True)
class VectorContextFamily:
    """Named vectors in one dimension plus contexts (orthonormal bases)."""

    dim: int
    vectors: Mapping[str, np.ndarray]
    contexts: tuple[tuple[str, ...], ...]

    @staticmethod
    def from_json(obj: dict) -> "VectorContextFamily":
        dim = json_count(obj["dim"], "dim")
        if dim < 1:
            raise ValueError(f"dim must be at least 1, got {obj['dim']!r}")
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


def _search(family: VectorContextFamily, tol: float, count_cap: int):
    """Backtracking core: returns (first solution, count up to cap).

    Vector k of ``family.ids()`` is bit k.  Each context and each vector's
    orthogonality neighbourhood is an int mask, and an assignment is two
    masks, ``ones`` and ``zeros``.  A vector that one context lists twice
    can never be that context's one 1, so it starts in ``zeros``.

    At each level the open context is the first one in family order that
    holds no 1 and has the fewest free vectors; a context with two 1s, or
    with no 1 and nothing free, is a dead end.  Each open context gets a
    frame: its free vectors in id order, the index of the next one to try
    and the ``ones``/``zeros`` it started from.  Trying a vector restores
    that snapshot, sets the vector to 1 and its neighbours to 0 (none of
    them may be 1), so backtracking needs no undo list.  The frames are an
    explicit stack, so the search has no depth limit.
    """
    ids = family.ids()
    bit = {vid: 1 << k for k, vid in enumerate(ids)}
    graph = orthogonality_graph(family, tol)
    neighbours = [sum(bit[w] for w in graph[vid]) for vid in ids]
    contexts, zeros = [], 0
    for ctx in family.contexts:
        mask = 0
        for vid in ctx:  # unions: a repeated id is counted once
            zeros |= mask & bit[vid]
            mask |= bit[vid]
        contexts.append(mask)
    ones, first, count = 0, None, 0
    frames: list[list] = []
    while True:
        free, size, unassigned = 0, 0, ~(ones | zeros)
        for ctx in contexts:
            hit, left = ones & ctx, ctx & unassigned
            if hit & (hit - 1) or not hit | left:  # two 1s, or no 1 and nothing free
                break
            if not hit and (not free or left.bit_count() < size):
                free, size = left, left.bit_count()
        else:  # no dead end
            if free:
                frames.append([list(_bits(free)), 0, ones, zeros])
            else:  # every context holds its one vector: a solution
                count += 1
                if first is None:
                    first = {vid: ones >> k & 1 for k, vid in enumerate(ids)}
                if count >= count_cap:
                    break
        # backtrack to the innermost context with an untried vector left,
        # and set that vector to 1 on the snapshot the context started from
        while frames:
            frame = frames[-1]
            vectors, k, ones, zeros = frame
            if k == len(vectors):
                frames.pop()
            else:
                frame[1] = k + 1
                if not neighbours[vectors[k]] & ones:
                    ones |= 1 << vectors[k]
                    zeros |= neighbours[vectors[k]]
                    break
        if not frames:
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
    first, _ = _search(family, tol, count_cap=1)
    return first


def count_solutions(family: VectorContextFamily, cap: int = 10**6, tol: float = DEFAULT_TOL) -> int:
    """Exact solution count, up to cap, by exhaustive backtracking.  A cap
    below 1 raises ValueError."""
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    _, count = _search(family, tol, count_cap=cap)
    return count


#: exhaustive_count checks 2**_CHUNK_BITS assignments at a time
_CHUNK_BITS = 18

_ZERO, _ALL = np.uint64(0), np.uint64(2**64 - 1)
#: the value of vector k < 6 in a word whose bit x is assignment x: bit x of
#: _PATTERNS[k] is bit k of x (0xAAAA..., 0xCCCC..., 0xF0F0..., ...)
_PATTERNS = [np.uint64(sum(1 << x for x in range(64) if x >> k & 1)) for k in range(6)]


def exhaustive_count(family: VectorContextFamily) -> int:
    """Solution count by sheer enumeration of all 2^n assignments.

    Independent of the backtracking path, and bit-sliced: a chunk of
    assignments is an array of 64-bit words whose bit x is assignment x, so
    each word op checks 64 assignments at once.  Vector k of ``family.ids()``
    is bit k of the assignment.  For k < 6 its value is one of the constant
    ``_PATTERNS`` words; for 6 <= k < low, with low = min(n, ``_CHUNK_BITS``),
    it is a column that is ~0 in the words whose index has bit k - 6 set and
    0 elsewhere; the vectors above low are constants, 0 or ~0, one chunk per
    pattern of them.  A chunk of 2**18 assignments is 4,096 words, 32 KB per
    column, at most 12 columns.  Below 6 low bits a word holds 2**low
    assignments and the rest of it is masked off.

    A context holds exactly one 1 where its running parity is 1 and no 1
    met a 1 before it; an orthogonal pair outside every shared context is
    not both 1; an uncovered vector is 0, the convention of the search.
    The count is the number of set bits that pass every constraint.
    Practical up to roughly 22 vectors.
    """
    ids = family.ids()
    n = len(ids)
    if n > 22:
        raise ValueError(f"exhaustive enumeration over {n} vectors is too large")
    low = min(n, _CHUNK_BITS)
    words = np.arange(1 << max(low - 6, 0), dtype=np.uint64)
    low_values = _PATTERNS[:low] + [np.where(words >> k & 1, _ALL, _ZERO) for k in range(low - 6)]
    mask = _ALL if low >= 6 else np.uint64((1 << (1 << low)) - 1)
    position = {vid: k for k, vid in enumerate(ids)}
    contexts = [[position[vid] for vid in ctx] for ctx in family.contexts]
    uncovered = set(range(n)).difference(*contexts)
    together = {(a, b) for ctx in contexts for a in ctx for b in ctx}  # pairs exactly-one excludes
    adj = orthogonality_graph(family)
    later = [
        [b for b in map(position.get, adj[vid]) if b > a and (a, b) not in together]
        for a, vid in enumerate(ids)
    ]
    total = 0
    for high in itertools.product((_ZERO, _ALL), repeat=n - low):
        value = low_values + list(high)
        ok = np.full(len(words), mask)
        for a in uncovered:
            ok &= ~value[a]
        for ctx in contexts:
            one = more = _ZERO  # parity of the 1s so far; a 1 met a 1 before it
            for a in ctx:
                more = more | one & value[a]
                one = one ^ value[a]
            ok &= one & ~more
        for a, bs in enumerate(later):
            if bs:
                either = _ZERO
                for b in bs:
                    either = either | value[b]
                ok &= ~(value[a] & either)
        total += int.from_bytes(ok.tobytes(), "little").bit_count()
    return total
