"""Tests for the unified typed solve API (repro.api)."""

from __future__ import annotations

import json

import pytest

from repro.api import SolveRequest, SolveResult, solve, solve_many
from repro.core.convolution import solve_convolution
from repro.core.model import CrossbarModel
from repro.core.state import SwitchDimensions
from repro.core.traffic import TrafficClass
from repro.exceptions import ConfigurationError
from repro.methods import SolveMethod


@pytest.fixture
def classes():
    return (
        TrafficClass.poisson(0.05, name="data"),
        TrafficClass(alpha=0.02, beta=0.01, name="video"),
    )


class TestSolveMethod:
    def test_str_valued(self):
        assert SolveMethod.MVA == "mva"
        assert SolveMethod("convolution-scaled") is SolveMethod.CONVOLUTION_SCALED
        assert json.loads(json.dumps(SolveMethod.EXACT.value)) == "exact"

    def test_coerce_accepts_enum_value_and_alias(self):
        assert SolveMethod.coerce(SolveMethod.MVA) is SolveMethod.MVA
        assert SolveMethod.coerce("mva") is SolveMethod.MVA
        assert SolveMethod.coerce("convolution/log") is SolveMethod.CONVOLUTION
        assert (
            SolveMethod.coerce("convolution/scaled")
            is SolveMethod.CONVOLUTION_SCALED
        )

    def test_coerce_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            SolveMethod.coerce("oracle")

    def test_grid_property(self):
        assert SolveMethod.CONVOLUTION.is_grid
        assert SolveMethod.CONVOLUTION_SCALED.is_grid
        # The unscaled mode exists to demonstrate overflow; enlarging
        # its grid could change whether it overflows.
        assert not SolveMethod.CONVOLUTION_FLOAT.is_grid
        assert not SolveMethod.MVA.is_grid

    def test_convolution_mode(self):
        assert SolveMethod.CONVOLUTION.convolution_mode == "log"
        assert SolveMethod.CONVOLUTION_SCALED.convolution_mode == "scaled"
        assert SolveMethod.MVA.convolution_mode is None


class TestSolveRequest:
    def test_dims_coercion(self, classes):
        assert SolveRequest(8, classes).dims == SwitchDimensions.square(8)
        assert SolveRequest((4, 6), classes).dims == SwitchDimensions(4, 6)
        assert (
            SolveRequest(SwitchDimensions(3, 5), classes).dims
            == SwitchDimensions(3, 5)
        )

    def test_method_coercion(self, classes):
        assert SolveRequest(4, classes, "mva").method is SolveMethod.MVA
        assert (
            SolveRequest(4, classes, "convolution/log").method
            is SolveMethod.CONVOLUTION
        )

    def test_requires_classes(self):
        with pytest.raises(ConfigurationError):
            SolveRequest(4, ())

    def test_rejects_non_traffic_classes(self):
        with pytest.raises(ConfigurationError):
            SolveRequest(4, ("not-a-class",))

    def test_hashable_and_frozen(self, classes):
        request = SolveRequest.square(8, classes)
        assert hash(request) == hash(SolveRequest.square(8, classes))
        with pytest.raises(AttributeError):
            request.method = SolveMethod.MVA

    def test_cache_key_is_order_insensitive(self, classes):
        a, b = classes
        assert (
            SolveRequest.square(8, (a, b)).cache_key
            == SolveRequest.square(8, (b, a)).cache_key
        )

    def test_cache_key_separates_models(self, classes):
        base = SolveRequest.square(8, classes)
        assert base.cache_key != base.with_dims(9).cache_key
        assert base.cache_key != base.with_method("mva").cache_key

    def test_with_dims_and_method(self, classes):
        request = SolveRequest.square(8, classes)
        assert request.with_dims(16).dims == SwitchDimensions.square(16)
        assert request.with_method("exact").method is SolveMethod.EXACT
        # original untouched
        assert request.dims == SwitchDimensions.square(8)

    def test_dict_round_trip(self, classes):
        request = SolveRequest.create(4, 6, classes, method="mva")
        clone = SolveRequest.from_dict(
            json.loads(json.dumps(request.to_dict()))
        )
        assert clone == request


class TestSolveResult:
    def test_from_solution_matches_performance_solution(self, classes):
        dims = SwitchDimensions.square(8)
        solution = solve_convolution(dims, classes)
        request = SolveRequest(dims, classes)
        result = SolveResult.from_solution(request, solution)
        for r in range(len(classes)):
            assert result.blocking[r] == solution.blocking(r)
            assert result.concurrency[r] == solution.concurrency(r)
            assert result.acceptance[r] == solution.call_acceptance(r)
            assert result.throughput[r] == solution.throughput(r)
        assert result.revenue == solution.revenue()
        assert result.mean_occupancy == solution.mean_occupancy()
        assert result.utilization == solution.utilization()
        assert result.total_throughput == solution.total_throughput()

    def test_grid_read_results_are_plain_results(self, classes):
        """Built without ``__post_init__``, a grid read's result equals
        the validated one field for field, and saves exactly the three
        tuples ``__post_init__`` converts: the instance itself keeps the
        class's slotted layout."""
        import dataclasses
        import sys
        import tracemalloc

        top = SwitchDimensions.square(12)
        solution = solve_convolution(top, classes)
        base = SolveRequest(top, classes)
        requests = [base.with_dims(n) for n in range(1, 13)] * 40
        points = solution.read_points([r.dims for r in requests])

        def build(make) -> tuple[list[SolveResult], int]:
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                built = [make(r, *m) for r, m in zip(requests, points)]
                return built, tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()

        def validated(r, *m):
            return SolveResult.from_measures(
                r, *m, solved_by="convolution/log", elapsed=0.5
            )

        _, first_bytes = build(validated)
        read, read_bytes = build(lambda r, *m: SolveResult.from_grid_read(
            r, *m, "convolution/log", 0.5))
        checked, checked_bytes = build(validated)
        # A class whose instances lost the shared layout grows them all.
        assert checked_bytes <= first_bytes * 1.02
        converted = 3 * sys.getsizeof(points[0][0]) * len(requests)
        assert read_bytes <= checked_bytes - converted
        assert read == checked
        names = [f.name for f in dataclasses.fields(SolveResult)]
        for got, want in zip(read, checked):
            assert [getattr(got, n) for n in names] == [
                getattr(want, n) for n in names
            ]

    def test_derived_measures(self, classes):
        result = solve(SolveRequest.square(6, classes))
        for r in range(len(classes)):
            assert result.non_blocking[r] == 1.0 - result.blocking[r]
            assert result.call_congestion[r] == 1.0 - result.acceptance[r]

    def test_execution_metadata_excluded_from_equality(self, classes):
        request = SolveRequest.square(6, classes)
        first = solve(request)
        again = solve(request)
        assert again.from_cache
        assert again.elapsed == 0.0
        assert again == first

    def test_dict_round_trip(self, classes):
        result = solve(SolveRequest.square(6, classes))
        clone = SolveResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert clone == result

    def test_wrong_arity_rejected(self, classes):
        request = SolveRequest.square(6, classes)
        good = solve(request)
        with pytest.raises(ConfigurationError):
            SolveResult(
                request=request,
                blocking=good.blocking[:1],  # one entry short
                concurrency=good.concurrency,
                acceptance=good.acceptance,
                throughput=good.throughput,
                revenue=good.revenue,
                mean_occupancy=good.mean_occupancy,
                utilization=good.utilization,
            )


class TestValueTypes:
    def test_value_types_are_slotted_and_copy_equal(self, classes):
        """The four value types keep no instance ``__dict__`` and come
        back equal from ``pickle`` (the process pool's path) and from
        ``dataclasses.replace``; the request's memos are fields that
        neither compare nor survive a ``replace``."""
        import dataclasses
        import pickle

        from repro.engine import BatchSolver, EngineConfig

        request = SolveRequest.square(8, classes)
        key = request.cache_key  # fills the memo
        result = solve(request, engine=BatchSolver(EngineConfig()))
        for value in (request.dims, request.classes[0], request, result):
            assert not hasattr(value, "__dict__"), type(value)
            with pytest.raises((AttributeError, TypeError)):
                object.__setattr__(value, "extra", 1)
            assert pickle.loads(pickle.dumps(value)) == value
            assert dataclasses.replace(value) == value
        assert pickle.loads(pickle.dumps(request)).cache_key == key
        assert SolveRequest.square(8, classes) == request
        assert hash(SolveRequest.square(8, classes)) == hash(request)
        fresh = SolveRequest.square(6, classes)
        assert request.with_dims(6).cache_key == fresh.cache_key
        assert dataclasses.replace(
            request, dims=SwitchDimensions.square(6)
        ).cache_key == fresh.cache_key
        assert request.with_method("mva").cache_key == SolveRequest.square(
            8, classes, "mva"
        ).cache_key


class TestEntryPoints:
    def test_solve_requires_classes_with_dims(self):
        with pytest.raises(ConfigurationError):
            solve(SwitchDimensions.square(4))

    def test_solve_many_preserves_order(self, classes):
        requests = [SolveRequest.square(n, classes) for n in (6, 3, 5, 4)]
        results = solve_many(requests)
        assert [r.dims.n1 for r in results] == [6, 3, 5, 4]
        for request, result in zip(requests, results):
            assert result == solve(request)

    def test_model_solve_delegates_to_engine(self, classes):
        model = CrossbarModel.square(7, classes)
        solution = model.solve()
        direct = solve_convolution(SwitchDimensions.square(7), classes)
        for r in range(len(classes)):
            assert solution.blocking(r) == direct.blocking(r)
            assert solution.concurrency(r) == direct.concurrency(r)
        # Repeated solves are memoized: the very same object comes back.
        assert model.solve() is solution

    def test_model_solve_accepts_enum(self, classes):
        model = CrossbarModel.square(5, classes)
        via_enum = model.solve(SolveMethod.MVA)
        via_str = model.solve("mva")
        assert via_enum.blocking(0) == via_str.blocking(0)

    def test_model_solve_unknown_method_rejected(self, classes):
        with pytest.raises(ConfigurationError):
            CrossbarModel.square(5, classes).solve("oracle")
