"""Tests for the batched evaluation engine (repro.engine)."""

from __future__ import annotations

import dataclasses
import gc
import json
import tracemalloc

import pytest

from repro.api import SolveRequest, solve_many
from repro.core.convolution import solve_convolution
from repro.core.state import SwitchDimensions
from repro.core.traffic import TrafficClass
from repro.engine import (
    BatchSolver,
    CacheCorruptionError,
    DiskCache,
    EngineConfig,
    LRUCache,
    StaleCacheKeyError,
    classes_key,
    get_default_engine,
    key_digest,
    request_key,
    sliced_solution,
)
import repro.engine.batch as batch_module
from repro.engine.cache import DISK_CACHE_VERSION
from repro.exceptions import ComputationError, ConfigurationError
from repro.methods import SolveMethod


@pytest.fixture
def classes():
    return (
        TrafficClass.poisson(0.03, name="data"),
        TrafficClass(alpha=0.01, beta=0.005, name="video"),
    )


def fresh_engine(**overrides) -> BatchSolver:
    return BatchSolver(EngineConfig(**overrides))


class TestKeys:
    def test_classes_key_order_insensitive(self, classes):
        a, b = classes
        assert classes_key((a, b)) == classes_key((b, a))

    def test_classes_key_ignores_names(self):
        assert classes_key(
            (TrafficClass.poisson(0.1, name="x"),)
        ) == classes_key((TrafficClass.poisson(0.1, name="y"),))

    def test_request_key_components(self, classes):
        key = request_key(
            SwitchDimensions(4, 6), classes, SolveMethod.CONVOLUTION
        )
        assert key.startswith("4x6|convolution|")

    def test_digest_is_stable_and_short(self):
        assert key_digest("abc") == key_digest("abc")
        assert len(key_digest("abc")) == 32
        assert key_digest("abc") != key_digest("abd")


class TestLRUCache:
    def test_put_get(self):
        lru = LRUCache(maxsize=4)
        lru.put("a", 1)
        assert lru.get("a") == 1
        assert lru.get("missing") is None

    def test_eviction_is_least_recently_used(self):
        lru = LRUCache(maxsize=2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.get("a")  # refresh "a"; "b" becomes the LRU entry
        lru.put("c", 3)
        assert "a" in lru
        assert "b" not in lru
        assert "c" in lru
        assert len(lru) == 2

    def test_clear(self):
        lru = LRUCache(maxsize=4)
        lru.put("a", 1)
        lru.clear()
        assert len(lru) == 0

    def test_rejects_silly_sizes(self):
        with pytest.raises(ComputationError):
            LRUCache(maxsize=0)


class TestDiskCache:
    def test_round_trip(self, tmp_path):
        disk = DiskCache(tmp_path)
        disk.store("some|key", {"value": 7})
        assert disk.load("some|key") == {"value": 7}
        assert len(disk) == 1

    def test_miss_returns_none(self, tmp_path):
        assert DiskCache(tmp_path).load("absent") is None

    def test_invalid_json_raises_in_strict_mode(self, tmp_path):
        disk = DiskCache(tmp_path, strict=True)
        disk.path_for("k").write_text("{not json")
        with pytest.raises(CacheCorruptionError):
            disk.load("k")

    def test_missing_envelope_raises_in_strict_mode(self, tmp_path):
        disk = DiskCache(tmp_path, strict=True)
        disk.path_for("k").write_text(json.dumps({"oops": 1}))
        with pytest.raises(CacheCorruptionError):
            disk.load("k")

    def test_version_bump_raises_stale_in_strict_mode(self, tmp_path):
        disk = DiskCache(tmp_path, strict=True)
        disk.path_for("k").write_text(
            json.dumps(
                {"version": DISK_CACHE_VERSION + 1, "key": "k", "payload": {}}
            )
        )
        with pytest.raises(StaleCacheKeyError):
            disk.load("k")

    def test_key_mismatch_raises_stale_in_strict_mode(self, tmp_path):
        disk = DiskCache(tmp_path, strict=True)
        disk.store("original", {"value": 1})
        # Simulate a digest collision / copied cache: same file name,
        # different logical key.
        disk.path_for("other").write_text(
            disk.path_for("original").read_text()
        )
        with pytest.raises(StaleCacheKeyError):
            disk.load("other")

    def test_non_strict_quarantines_and_misses(self, tmp_path):
        disk = DiskCache(tmp_path, strict=False)
        path = disk.path_for("k")
        path.write_text("{not json")
        assert disk.load("k") is None
        assert not path.exists(), "bad entry should be quarantined"

    def test_clear(self, tmp_path):
        disk = DiskCache(tmp_path)
        disk.store("a", {})
        disk.store("b", {})
        assert disk.clear() == 2
        assert len(disk) == 0


class TestBatchSolverCaching:
    def test_memory_hit_accounting(self, classes):
        engine = fresh_engine()
        request = SolveRequest.square(6, classes)
        first = engine.solve(request)
        assert not first.from_cache
        again = engine.solve(request)
        assert again.from_cache
        assert again == first
        snap = engine.stats.snapshot()
        assert snap["lookups"] == 2
        assert snap["memory_hits"] == 1
        assert snap["solves"] == 1

    def test_disk_hit_survives_memory_clear(self, classes, tmp_path):
        engine = fresh_engine(disk_cache=tmp_path)
        request = SolveRequest.square(6, classes)
        first = engine.solve(request)
        engine.clear()  # drop memory; the disk entry remains
        again = engine.solve(request)
        assert again.from_cache
        assert again == first
        assert engine.stats.disk_hits == 1

    def test_strict_engine_raises_on_undeserializable_payload(
        self, classes, tmp_path
    ):
        engine = fresh_engine(disk_cache=tmp_path, strict_cache=True)
        request = SolveRequest.square(6, classes)
        engine.solve(request)
        engine.clear()
        # Valid envelope, valid JSON — but a payload the result schema
        # cannot deserialize.
        engine.disk.store(request.cache_key, {"schema": "bogus"})
        with pytest.raises(CacheCorruptionError):
            engine.solve(request)

    def test_lenient_engine_resolves_bad_payload(self, classes, tmp_path):
        engine = fresh_engine(disk_cache=tmp_path, strict_cache=False)
        request = SolveRequest.square(6, classes)
        expected = engine.solve(request)
        engine.clear()
        engine.disk.store(request.cache_key, {"schema": "bogus"})
        again = engine.solve(request)  # falls back to a fresh solve
        assert not again.from_cache
        assert again == expected

    def test_cross_order_hit_remaps_measures(self, classes):
        engine = fresh_engine()
        a, b = classes
        forward = engine.solve(SolveRequest.square(8, (a, b)))
        reverse = engine.solve(SolveRequest.square(8, (b, a)))
        assert reverse.from_cache
        assert reverse.blocking == tuple(reversed(forward.blocking))
        assert reverse.concurrency == tuple(reversed(forward.concurrency))
        assert reverse.revenue == forward.revenue

    def test_solution_for_memoizes_object(self, classes):
        engine = fresh_engine()
        request = SolveRequest.square(7, classes)
        first = engine.solution_for(request)
        assert engine.solution_for(request) is first
        assert engine.stats.memory_hits == 1

    def test_solution_for_cross_order_permutes_grids(self, classes):
        engine = fresh_engine()
        a, b = classes
        forward = engine.solution_for(SolveRequest.square(8, (a, b)))
        reverse = engine.solution_for(SolveRequest.square(8, (b, a)))
        assert reverse.blocking(0) == forward.blocking(1)
        assert reverse.blocking(1) == forward.blocking(0)
        assert reverse.concurrency(0) == forward.concurrency(1)


@pytest.fixture
def count_copies(monkeypatch):
    """Count ``dataclasses.replace`` calls made by the engine module."""
    import repro.engine.batch as batch_module

    calls: list[str] = []
    real_replace = batch_module.replace

    def counting_replace(obj, **changes):
        calls.append(type(obj).__name__)
        return real_replace(obj, **changes)

    monkeypatch.setattr(batch_module, "replace", counting_replace)
    return calls


class TestServedCopies:
    """A hit reuses one served copy per stored result; the store path
    copies nothing."""

    @pytest.mark.parametrize("memory_only", [True, False])
    def test_repeat_hits_return_one_served_object(
        self, classes, count_copies, memory_only
    ):
        engine = fresh_engine()
        request = SolveRequest.square(6, classes)
        engine.solve(request)
        hits = [engine.cached_result(request, memory_only)
                for _ in range(5)]
        assert all(hit is hits[0] for hit in hits)
        assert hits[0].from_cache and hits[0].elapsed == 0.0
        assert count_copies == ["SolveResult"]  # the first hit only
        assert engine.solve(request) is hits[0]
        assert count_copies == ["SolveResult"]

    def test_fresh_result_is_not_mutated_by_hits(self, classes):
        engine = fresh_engine()
        request = SolveRequest.square(6, classes)
        (fresh,) = engine.evaluate_many([request])
        elapsed = fresh.elapsed
        assert not fresh.from_cache and elapsed > 0.0
        hit = engine.cached_result(request, memory_only=True)
        assert hit is not fresh and hit == fresh
        assert hit.from_cache and hit.elapsed == 0.0
        assert not fresh.from_cache and fresh.elapsed == elapsed

    def test_sweep_store_path_makes_no_copy(self, classes, count_copies):
        engine = fresh_engine()
        results = engine.evaluate_many(
            [SolveRequest.square(n, classes) for n in range(1, 33)]
        )
        assert engine.last_metrics.grid_points == 32
        assert not any(r.from_cache for r in results)
        assert count_copies == []

    def test_disk_hit_stores_its_served_copy(
        self, classes, tmp_path, count_copies
    ):
        request = SolveRequest.square(6, classes)
        expected = fresh_engine(disk_cache=tmp_path).solve(request)
        engine = fresh_engine(disk_cache=tmp_path)
        first = engine.cached_result(request)
        assert engine.stats.disk_hits == 1
        assert first.from_cache and first == expected
        assert engine.cached_result(request, memory_only=True) is first
        assert engine.stats.disk_hits == 1
        assert count_copies == ["SolveResult"]

    def test_hit_for_renamed_classes_carries_the_callers_names(
        self, classes
    ):
        """Names are outside the key and outside request equality, but
        they are part of the answer: a hit for a renamed mix is a copy
        carrying the caller's request, with the stored measures."""
        engine = fresh_engine()
        stored = SolveRequest.square(6, classes)
        renamed = SolveRequest.square(6, tuple(
            dataclasses.replace(c, name=name)
            for c, name in zip(classes, ("x", "y"))
        ))
        first = engine.solve(stored)
        hit = engine.solve(renamed)
        assert [c.name for c in hit.request.classes] == ["x", "y"]
        assert hit.request is renamed and hit.from_cache
        assert_hex_equal(hit, first)
        assert engine.cached_result(renamed, memory_only=True).request \
            is renamed
        # The stored names still get the one served copy.
        served = engine.cached_result(stored)
        assert engine.solve(stored) is served
        assert [c.name for c in served.request.classes] == ["data", "video"]

    def test_cross_order_hit_leaves_the_stored_copy_in_place(
        self, classes
    ):
        engine = fresh_engine()
        a, b = classes
        forward = SolveRequest.square(8, (a, b))
        reverse = SolveRequest.square(8, (b, a))
        engine.solve(forward)
        stored = engine.cached_result(forward)
        flipped = engine.cached_result(reverse)
        assert flipped.request == reverse and flipped.from_cache
        assert flipped.blocking == tuple(reversed(stored.blocking))
        assert engine.cached_result(forward) is stored


class TestEvaluateMany:
    def test_grid_group_matches_point_solves(self, classes):
        engine = fresh_engine()
        sizes = range(3, 12)
        requests = [SolveRequest.square(n, classes) for n in sizes]
        results = engine.evaluate_many(requests)
        metrics = engine.last_metrics
        assert metrics.grid_groups == 1
        assert metrics.grid_points == len(requests)
        assert metrics.solved == 0
        for n, result in zip(sizes, results):
            direct = solve_convolution(SwitchDimensions.square(n), classes)
            assert result.blocking == tuple(
                direct.blocking(r) for r in range(len(classes))
            )
            assert result.concurrency == tuple(
                direct.concurrency(r) for r in range(len(classes))
            )

    def test_second_pass_is_pure_hits(self, classes):
        engine = fresh_engine()
        requests = [SolveRequest.square(n, classes) for n in range(3, 9)]
        first = engine.evaluate_many(requests)
        second = engine.evaluate_many(requests)
        metrics = engine.last_metrics
        assert metrics.hit_rate == 1.0
        assert metrics.solved == 0
        assert second == first
        assert all(r.from_cache for r in second)

    def test_non_grid_methods_solved_individually(self, classes):
        engine = fresh_engine()
        requests = [
            SolveRequest.square(n, classes, SolveMethod.MVA)
            for n in range(3, 7)
        ]
        engine.evaluate_many(requests)
        metrics = engine.last_metrics
        assert metrics.grid_groups == 0
        assert metrics.solved == len(requests)

    def test_mixed_methods_and_sizes(self, classes):
        engine = fresh_engine()
        requests = [
            SolveRequest.square(4, classes),
            SolveRequest.square(6, classes),
            SolveRequest.square(4, classes, SolveMethod.MVA),
            SolveRequest.square(4, classes),  # duplicate of the first
        ]
        results = engine.evaluate_many(requests)
        assert results[0].blocking == results[3].blocking
        direct = solve_convolution(SwitchDimensions.square(4), classes)
        assert results[0].blocking == tuple(
            direct.blocking(r) for r in range(len(classes))
        )

    def test_rejects_non_request_items(self, classes):
        with pytest.raises(ConfigurationError):
            fresh_engine().evaluate_many(["nope"])

    def test_solve_many_uses_default_engine(self, classes):
        engine = get_default_engine()
        before = engine.stats.lookups
        solve_many([SolveRequest.square(5, classes)])
        assert engine.stats.lookups > before


@pytest.fixture
def dispatched(monkeypatch):
    """Requests that reach the engine's solver dispatch, in order."""
    calls: list[SolveRequest] = []
    real_dispatch = batch_module._dispatch_solve

    def counting_dispatch(request):
        calls.append(request)
        return real_dispatch(request)

    monkeypatch.setattr(batch_module, "_dispatch_solve", counting_dispatch)
    return calls


def reversed_order(request: SolveRequest) -> SolveRequest:
    return SolveRequest(request.dims, request.classes[::-1], request.method)


def assert_hex_equal(got, want) -> None:
    assert got == want
    for name in ("blocking", "concurrency", "acceptance", "throughput"):
        assert [x.hex() for x in getattr(got, name)] == [
            x.hex() for x in getattr(want, name)
        ], name
    assert got.revenue.hex() == want.revenue.hex()


class TestReadThrough:
    """The result entry points read the solution memo, never fill it."""

    @pytest.mark.parametrize("shape", ["points", "sweeps"])
    def test_solved_grids_are_not_retained(self, shape):
        mixes = [
            (
                TrafficClass.poisson(0.001 * (k + 1), name="data"),
                TrafficClass(alpha=0.0005, beta=0.1 + 0.01 * k, mu=1.0, a=2,
                             name="video"),
            )
            for k in range(8)
        ]
        sizes = (128,) if shape == "points" else (64, 128)
        requests = [
            SolveRequest.square(n, mix) for mix in mixes for n in sizes
        ]
        engine = fresh_engine()
        # Load the kernels first: their imports are not the engine's.
        engine.evaluate_many([SolveRequest.square(4, mixes[0])])
        engine.clear()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            results = engine.evaluate_many(requests)
            del results
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # Eight Algorithm 1 solutions at N = 128 hold ~3.3 MB of grids.
        assert retained < 0.5e6, f"{retained / 1e6:.2f} MB retained"
        assert engine.cache_entries() == {
            "results": len(requests), "solutions": 0,
        }

    def test_memoized_solution_is_read_not_resolved(
        self, classes, dispatched
    ):
        engine = fresh_engine()
        top = SolveRequest.create(8, 8, classes)
        engine.solution_for(top)
        assert len(dispatched) == 1
        engine.solve(top)
        # A grid group whose componentwise-max dims are ``top``.
        members = [
            SolveRequest.create(8, 6, classes),
            SolveRequest.create(6, 8, classes),
        ]
        grouped = engine.evaluate_many(members)
        assert len(dispatched) == 1
        assert engine.last_metrics.grid_groups == 1
        for request, result in zip(members, grouped):
            assert_hex_equal(result, fresh_engine().solve(request))

    @pytest.mark.parametrize(
        "method", [SolveMethod.MVA, SolveMethod.EXACT]
    )
    def test_equal_misses_share_one_dispatch_per_class_order(
        self, classes, dispatched, method
    ):
        forward = SolveRequest.square(4, classes, method)
        reverse = reversed_order(forward)
        results = fresh_engine().evaluate_many([forward, forward, reverse])
        assert dispatched == [forward, reverse]
        assert not results[1].from_cache
        assert_hex_equal(results[0], fresh_engine().solve(forward))
        assert_hex_equal(results[1], fresh_engine().solve(forward))
        assert_hex_equal(results[2], fresh_engine().solve(reverse))
        assert results[2].request.classes == reverse.classes

    def test_an_equal_miss_gets_its_twins_result_object(self, classes):
        request = SolveRequest.square(4, classes, SolveMethod.MVA)
        first, twin = fresh_engine().evaluate_many([request, request])
        assert twin is first and not twin.from_cache

    def test_an_equal_miss_keeps_its_own_request(self, classes):
        """Class names are not part of the key: a twin differing only
        by names shares the solve but is answered under its own request."""
        forward = SolveRequest.square(4, classes, SolveMethod.MVA)
        renamed = SolveRequest.square(4, tuple(
            TrafficClass(c.alpha, c.beta, c.mu, c.a, c.weight, name="x")
            for c in classes
        ), SolveMethod.MVA)
        first, twin = fresh_engine().evaluate_many([forward, renamed])
        assert twin.request is renamed
        assert_hex_equal(twin, first)

    def test_pool_maps_each_distinct_miss_once(
        self, classes, dispatched
    ):
        forward = SolveRequest.square(4, classes, SolveMethod.MVA)
        reverse = reversed_order(forward)
        results = fresh_engine().evaluate_many(
            [forward, reverse, forward, forward]
        )
        assert dispatched == [forward, reverse]
        assert results[2] is results[0] and results[3] is results[0]
        assert results[1].request.classes == reverse.classes


class TestSlicedSolution:
    def test_slice_matches_direct_solve(self, classes):
        big = solve_convolution(SwitchDimensions.square(12), classes)
        small_dims = SwitchDimensions(5, 9)
        sliced = sliced_solution(big, small_dims)
        direct = solve_convolution(small_dims, classes)
        for r in range(len(classes)):
            assert sliced.blocking(r) == direct.blocking(r)
            assert sliced.concurrency(r) == direct.concurrency(r)
            assert sliced.call_acceptance(r) == direct.call_acceptance(r)

    def test_cannot_slice_upward(self, classes):
        small = solve_convolution(SwitchDimensions.square(4), classes)
        with pytest.raises(ConfigurationError):
            sliced_solution(small, SwitchDimensions.square(8))
