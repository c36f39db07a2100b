"""Non-empty sets of truth values: finite label sets, and finite unions of
closed subintervals of [0,1].

Interval unions are normalized on construction (sorted, disjoint, merged).
Half-open sets arising from a designated threshold are represented closed,
displaced by ``OPEN_SHIFT``, which sits far below every test tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .linalg import DEFAULT_TOL

#: Displacement used to close a half-open endpoint.
OPEN_SHIFT = 1e-12


@dataclass(frozen=True)
class FiniteValues:
    """Non-empty subset of a finite label domain."""

    labels: frozenset[str]

    def __post_init__(self):
        if not self.labels:
            raise ValueError("value set must be non-empty")

    def contains(self, value) -> bool:
        return value in self.labels

    def subset_of(self, other: "FiniteValues") -> bool:
        return self.labels <= other.labels

    def __iter__(self):
        return iter(sorted(self.labels))

    def __str__(self):
        return "{" + ", ".join(sorted(self.labels)) + "}"


def finite(*labels: str) -> FiniteValues:
    return FiniteValues(frozenset(labels))


@dataclass(frozen=True)
class IntervalUnion:
    """Finite union of closed intervals and points inside [0,1]."""

    segments: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("value set must be non-empty")
        for lo, hi in self.segments:
            if not (0.0 <= lo <= hi <= 1.0):
                raise ValueError(f"segment [{lo}, {hi}] is not a valid subinterval of [0,1]")

    def contains(self, value: float, tol: float = DEFAULT_TOL) -> bool:
        return any(lo - tol <= value <= hi + tol for lo, hi in self.segments)

    def subset_of(self, other: "IntervalUnion", tol: float = 0.0) -> bool:
        return all(
            any(olo - tol <= lo and hi <= ohi + tol for olo, ohi in other.segments)
            for lo, hi in self.segments
        )

    def intersects(self, other: "IntervalUnion") -> bool:
        return any(
            lo <= ohi and olo <= hi
            for lo, hi in self.segments
            for olo, ohi in other.segments
        )

    @property
    def lo(self) -> float:
        return self.segments[0][0]

    @property
    def hi(self) -> float:
        return self.segments[-1][1]

    def __str__(self):
        parts = []
        for lo, hi in self.segments:
            parts.append(f"{{{lo:g}}}" if lo == hi else f"[{lo:g}, {hi:g}]")
        return " u ".join(parts)


def interval(lo: float, hi: float) -> IntervalUnion:
    return IntervalUnion(((float(lo), float(hi)),))


def interval_union(segments: Iterable[tuple[float, float]]) -> IntervalUnion:
    """Normalize: sort, clip to [0,1], merge overlapping or touching segments."""
    cleaned = sorted((max(0.0, float(lo)), min(1.0, float(hi))) for lo, hi in segments)
    merged: list[list[float]] = []
    for lo, hi in cleaned:
        if lo > hi:
            continue
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return IntervalUnion(tuple((lo, hi) for lo, hi in merged))


ValueSet = Union[FiniteValues, IntervalUnion]
