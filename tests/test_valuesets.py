import pytest
from hypothesis import given
from hypothesis import strategies as st

from qnsem.valuesets import FiniteValues, finite, interval, interval_union


def test_finite_values():
    vs = finite("t", "F")
    assert vs.contains("t") and not vs.contains("T")
    assert finite("t").subset_of(vs)
    with pytest.raises(ValueError):
        FiniteValues(frozenset())


def test_interval_membership_tolerance():
    vs = interval(0.25, 0.5)
    assert vs.contains(0.25) and vs.contains(0.5)
    assert vs.contains(0.5 + 5e-10)
    assert not vs.contains(0.5 + 1e-8)


def test_interval_validation():
    with pytest.raises(ValueError):
        interval(0.5, 0.1)
    with pytest.raises(ValueError):
        interval(-0.1, 0.5)


def test_union_normalization():
    vs = interval_union([(0.6, 0.9), (0.1, 0.3), (0.25, 0.5)])
    assert vs.segments == ((0.1, 0.5), (0.6, 0.9))
    assert vs.lo == 0.1 and vs.hi == 0.9


def test_subset_and_intersects():
    a = interval_union([(0.1, 0.2), (0.4, 0.6)])
    b = interval(0.0, 0.7)
    assert a.subset_of(b)
    assert not b.subset_of(a)
    assert a.intersects(interval(0.5, 0.5))
    assert not a.intersects(interval(0.3, 0.3))


segments = st.lists(
    st.tuples(st.floats(0, 1, width=32), st.floats(0, 1, width=32)).map(
        lambda t: (min(t), max(t))
    ),
    min_size=1,
    max_size=5,
)


@given(segments)
def test_normalization_invariants(segs):
    vs = interval_union(segs)
    # sorted, disjoint, within the unit interval
    for (lo1, hi1), (lo2, hi2) in zip(vs.segments, vs.segments[1:]):
        assert hi1 < lo2
    for lo, hi in vs.segments:
        assert 0.0 <= lo <= hi <= 1.0
    # all original endpoints are still members
    for lo, hi in segs:
        assert vs.contains(lo) and vs.contains(hi)
