"""Property tests: the engine's execution paths are byte-identical.

Whatever path a request takes through :class:`BatchSolver` — a fresh
solve, a memory or disk cache hit or a shared Q-grid read — the
returned measures must be the *same floats*, bit for bit.  Hypothesis drives randomized traffic mixes and switch sizes
through each pair of paths and compares ``float.hex()`` renderings.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given
from hypothesis import strategies as st

from repro.api import SolveRequest, SolveResult
from repro.core.traffic import TrafficClass
from repro.engine import BatchSolver, EngineConfig


def result_bits(result: SolveResult) -> tuple:
    """Every float of a result rendered exactly (hex, lossless)."""
    return (
        tuple(b.hex() for b in result.blocking),
        tuple(e.hex() for e in result.concurrency),
        tuple(a.hex() for a in result.acceptance),
        tuple(t.hex() for t in result.throughput),
        result.revenue.hex(),
        result.mean_occupancy.hex(),
        result.utilization.hex(),
    )


rates = st.floats(
    min_value=1e-4, max_value=0.2, allow_nan=False, allow_infinity=False
)

traffic_classes = st.builds(
    TrafficClass,
    alpha=rates,
    beta=st.floats(
        min_value=0.0, max_value=0.4, allow_nan=False, allow_infinity=False
    ),
    mu=st.floats(
        min_value=0.5, max_value=2.0, allow_nan=False, allow_infinity=False
    ),
    a=st.integers(min_value=1, max_value=2),
)

mixes = st.lists(traffic_classes, min_size=1, max_size=3)

sizes = st.lists(
    st.integers(min_value=2, max_value=8), min_size=1, max_size=5, unique=True
)


@given(n=st.integers(min_value=2, max_value=8), classes=mixes)
def test_cached_equals_uncached(n, classes):
    request = SolveRequest.square(n, tuple(classes))
    engine = BatchSolver(EngineConfig())
    fresh = engine.solve(request)
    cached = engine.solve(request)
    assert cached.from_cache
    assert result_bits(cached) == result_bits(fresh)


@given(n=st.integers(min_value=2, max_value=8), classes=mixes)
def test_disk_cache_round_trip_is_lossless(n, classes, tmp_path_factory):
    request = SolveRequest.square(n, tuple(classes))
    cache_dir = tmp_path_factory.mktemp("engine-cache")
    engine = BatchSolver(EngineConfig(disk_cache=cache_dir))
    fresh = engine.solve(request)
    engine.clear()  # force the disk path
    from_disk = engine.solve(request)
    assert from_disk.from_cache
    assert engine.stats.disk_hits == 1
    assert result_bits(from_disk) == result_bits(fresh)


@given(ns=sizes, classes=mixes)
def test_grid_sharing_equals_point_solves(ns, classes):
    requests = [SolveRequest.square(n, tuple(classes)) for n in ns]
    shared = BatchSolver(EngineConfig()).evaluate_many(requests)
    point = [BatchSolver(EngineConfig()).solve(r) for r in requests]
    assert [result_bits(s) for s in shared] == [result_bits(p) for p in point]


smooth_classes = st.builds(
    TrafficClass.bernoulli,
    sources=st.integers(min_value=1, max_value=30),
    per_source_rate=st.floats(
        min_value=1e-4, max_value=0.05, allow_nan=False, allow_infinity=False
    ),
    a=st.integers(min_value=1, max_value=2),
)

wide_classes = st.builds(
    TrafficClass,
    alpha=rates,
    beta=st.floats(
        min_value=0.0, max_value=0.4, allow_nan=False, allow_infinity=False
    ),
    a=st.just(3),
)

rectangles = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
    ),
    min_size=2, max_size=6, unique=True,
)


@given(
    points=rectangles,
    smooth=smooth_classes,
    wide=wide_classes,
    rest=st.lists(traffic_classes, max_size=1),
)
def test_grid_reads_equal_point_solves_smooth_wide_rectangular(
    points, smooth, wide, rest
):
    # The grid-read branches a square Poisson/Pascal sweep misses: a
    # smooth class read off its e_smooth grid, a class wider than the
    # smallest members (P(n, a) = 0 there) and n1 != n2 members.
    classes = (smooth, wide, *rest)
    requests = [SolveRequest.create(n1, n2, classes) for n1, n2 in points]
    engine = BatchSolver(EngineConfig())
    shared = engine.evaluate_many(requests)
    assert engine.last_metrics.grid_points == len(requests)
    point = [BatchSolver(EngineConfig()).solve(r) for r in requests]
    assert [result_bits(s) for s in shared] == [result_bits(p) for p in point]
