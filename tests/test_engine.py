"""Tests for the batched evaluation engine (repro.engine)."""

from __future__ import annotations

import json

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
        engine.evaluate_many(requests, parallel=False)
        metrics = engine.last_metrics
        assert metrics.grid_groups == 0
        assert metrics.solved == len(requests)

    def test_parallel_results_identical_to_serial(self, classes):
        requests = [
            SolveRequest.square(n, classes, SolveMethod.MVA)
            for n in range(3, 9)
        ]
        serial = fresh_engine().evaluate_many(requests, parallel=False)
        parallel_engine = fresh_engine(processes=2)
        parallel = parallel_engine.evaluate_many(requests, parallel=True)
        assert parallel_engine.last_metrics.parallel
        for s, p in zip(serial, parallel):
            assert s.blocking == p.blocking
            assert s.concurrency == p.concurrency
            assert s.revenue == p.revenue

    def test_mixed_methods_and_sizes(self, classes):
        engine = fresh_engine()
        requests = [
            SolveRequest.square(4, classes),
            SolveRequest.square(6, classes),
            SolveRequest.square(4, classes, SolveMethod.MVA),
            SolveRequest.square(4, classes),  # duplicate of the first
        ]
        results = engine.evaluate_many(requests, parallel=False)
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
