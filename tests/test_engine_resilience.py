"""The engine's fault-tolerance layer: breaker, failure envelopes for
real solver errors, and disk-cache hardening."""

from __future__ import annotations

import json
import multiprocessing
import os
import time

import pytest

from repro.api import SolveRequest, solve_many
from repro.core.traffic import TrafficClass
from repro.engine import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    BatchSolver,
    CircuitBreaker,
    DiskCache,
    EngineConfig,
    FailedResult,
)
from repro.exceptions import ConfigurationError, InvalidParameterError
from repro.methods import SolveMethod


@pytest.fixture
def classes():
    return (
        TrafficClass.poisson(0.03, name="data"),
        TrafficClass(alpha=0.01, beta=0.005, name="video"),
    )


def fresh_engine(**overrides) -> BatchSolver:
    return BatchSolver(EngineConfig(**overrides))


def mva_requests(classes, sizes):
    """MVA requests are never grid-grouped: each is one solve task."""
    return [
        SolveRequest.square(n, classes, method=SolveMethod.MVA)
        for n in sizes
    ]


#: Slot of the inadmissible request in :func:`batch_with_failure`.
VICTIM = 4


def batch_with_failure(classes):
    """Nine good MVA requests and, at :data:`VICTIM`, a real solver
    failure: a non-integer Bernoulli source count (15.5) whose arrival
    rate goes negative inside the state space at n = 400, so every
    solve raises :class:`InvalidParameterError`."""
    batch = mva_requests(classes, range(3, 12))
    batch.insert(VICTIM, SolveRequest.square(400, (
        TrafficClass(0.31, 0.2), TrafficClass(0.155, -0.01, a=2),
    )))
    return batch


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


# ----------------------------------------------------------------------
# Circuit breaker state machine
# ----------------------------------------------------------------------


class TestCircuitBreaker:
    def test_starts_closed_and_allows(self):
        breaker = CircuitBreaker()
        assert breaker.state == STATE_CLOSED
        assert breaker.allow()

    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
        for _ in range(2):
            breaker.record_failure("io")
        assert breaker.state == STATE_CLOSED
        breaker.record_failure("io")
        assert breaker.state == STATE_OPEN
        assert breaker.trips == 1
        assert not breaker.allow()
        assert breaker.rejections == 1

    def test_success_resets_the_failure_run(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == STATE_CLOSED

    def test_half_open_probe_closes_on_success(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown=10.0, clock=clock
        )
        breaker.record_failure("disk full")
        assert breaker.state == STATE_OPEN
        assert not breaker.allow()
        clock.advance(10.0)
        assert breaker.allow()  # the probe
        assert breaker.state == STATE_HALF_OPEN
        assert not breaker.allow()  # only one probe at a time
        breaker.record_success()
        assert breaker.state == STATE_CLOSED
        assert breaker.probes == 1

    def test_half_open_probe_reopens_on_failure(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown=5.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure("still broken")
        assert breaker.state == STATE_OPEN
        assert breaker.trips == 2
        # The cooldown restarted at the failed probe.
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.allow()

    def test_transitions_are_recorded(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown=1.0, clock=clock
        )
        breaker.record_failure("io")
        clock.advance(1.0)
        breaker.allow()
        breaker.record_success()
        states = [(e.from_state, e.to_state) for e in breaker.events]
        assert states == [
            (STATE_CLOSED, STATE_OPEN),
            (STATE_OPEN, STATE_HALF_OPEN),
            (STATE_HALF_OPEN, STATE_CLOSED),
        ]

    def test_reset_forces_closed(self):
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure()
        breaker.reset()
        assert breaker.state == STATE_CLOSED
        assert breaker.allow()

    def test_snapshot_shape(self):
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure()
        snap = breaker.snapshot()
        assert snap["state"] == STATE_OPEN
        assert snap["trips"] == 1
        assert snap["failures"] == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(cooldown=-1.0)


# ----------------------------------------------------------------------
# Batches holding a request whose solver raises
# ----------------------------------------------------------------------


class TestSupervisedBatches:
    def test_permanent_failure_yields_failed_result(self, classes):
        engine = fresh_engine()
        batch = batch_with_failure(classes)
        results = engine.evaluate_many(batch, parallel=False)
        assert not engine.last_metrics.parallel
        failure = results[VICTIM]
        assert isinstance(failure, FailedResult)
        assert failure.request == batch[VICTIM]
        assert failure.error_type == "InvalidParameterError"
        assert "non-integer source count" in failure.error_message
        assert [a.outcome for a in failure.attempts] == ["error"]
        assert failure.attempts[0].detail.startswith(
            "InvalidParameterError"
        )
        good = batch[:VICTIM] + batch[VICTIM + 1:]
        clean = fresh_engine().evaluate_many(good, parallel=False)
        assert results[:VICTIM] + results[VICTIM + 1:] == clean
        assert engine.last_metrics.failed == 1
        assert engine.last_metrics.retries == 0
        payload = json.dumps(failure.to_dict())
        assert "InvalidParameterError" in payload

    def test_strict_mode_reraises(self, classes):
        with pytest.raises(InvalidParameterError):
            fresh_engine().evaluate_many(
                batch_with_failure(classes), parallel=False, strict=True
            )

    def test_solve_many_strict_passthrough(self, classes):
        engine = fresh_engine()
        requests = batch_with_failure(classes)
        results = solve_many(requests, engine=engine, parallel=False)
        assert isinstance(results[VICTIM], FailedResult)
        with pytest.raises(InvalidParameterError):
            solve_many(
                requests, engine=engine, parallel=False, strict=True
            )

    def test_unsupervised_config_uses_plain_fanout(self, classes):
        engine = fresh_engine(processes=2)
        requests = mva_requests(classes, [3, 4, 5, 6])
        clean = fresh_engine().evaluate_many(requests, parallel=False)
        results = engine.evaluate_many(requests, parallel=True)
        assert engine.last_metrics.parallel
        # SolveResult equality ignores elapsed/from_cache, so this is
        # the byte-identity claim for the numbers.
        assert results == clean


# ----------------------------------------------------------------------
# Disk-cache hardening: breaker wiring, swallowed writes, tmp sweep
# ----------------------------------------------------------------------


def _deny_hook(op, key, path):
    raise OSError("injected I/O failure")


class TestDiskCacheHardening:
    def test_write_failure_is_swallowed_and_counted(self, tmp_path):
        breaker = CircuitBreaker(failure_threshold=3)
        disk = DiskCache(
            tmp_path, breaker=breaker, fault_hook=_deny_hook
        )
        assert disk.store("k", {"v": 1}) is False
        assert breaker.failures == 1
        assert len(disk) == 0

    def test_read_io_failure_is_a_miss_not_corruption(self, tmp_path):
        breaker = CircuitBreaker(failure_threshold=10)
        disk = DiskCache(tmp_path, strict=True, breaker=breaker)
        disk.store("k", {"v": 1})
        disk.fault_hook = _deny_hook
        # Strict mode raises for *corruption*; an I/O failure is just
        # a miss, and the entry is NOT quarantined.
        assert disk.load("k") is None
        disk.fault_hook = None
        assert disk.load("k") == {"v": 1}

    def test_breaker_opens_and_short_circuits(self, tmp_path):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=3600.0)
        disk = DiskCache(
            tmp_path, breaker=breaker, fault_hook=_deny_hook
        )
        disk.store("k", {"v": 1})
        disk.load("k")
        assert breaker.state == STATE_OPEN
        # Open breaker: no disk I/O at all, so the hook cannot fire.
        before = breaker.failures
        assert disk.load("k") is None
        assert disk.store("k", {"v": 2}) is False
        assert breaker.failures == before
        assert breaker.rejections >= 2

    def test_stale_tmp_swept_fresh_kept(self, tmp_path):
        stale = tmp_path / "aaaa.tmp-123"
        stale.write_text("{")
        old = time.time() - 3600.0
        os.utime(stale, (old, old))
        fresh = tmp_path / "bbbb.tmp-456"
        fresh.write_text("{")
        disk = DiskCache(tmp_path, stale_tmp_age=600.0)
        assert not stale.exists()
        assert fresh.exists()
        assert disk.sweep_stale_tmp() == 0

    def test_engine_metrics_report_breaker(self, tmp_path, classes):
        engine = BatchSolver(
            EngineConfig(disk_cache=tmp_path, breaker_threshold=2)
        )
        assert engine.disk.breaker is not None
        engine.evaluate_many(
            mva_requests(classes, [3, 4]), parallel=False
        )
        metrics = engine.last_metrics
        assert metrics.breaker_state == STATE_CLOSED
        assert metrics.breaker_trips == 0
        assert "breaker_state" in metrics.to_dict()


# ----------------------------------------------------------------------
# Concurrent writers on one cache directory
# ----------------------------------------------------------------------


def _hammer_store(directory: str, key: str, marker: int, rounds: int):
    disk = DiskCache(directory)
    for i in range(rounds):
        disk.store(key, {"writer": marker, "round": i})


class TestConcurrentWriters:
    def test_two_processes_same_key_last_writer_wins(self, tmp_path):
        key = "shared-key"
        ctx = multiprocessing.get_context("fork")
        writers = [
            ctx.Process(
                target=_hammer_store,
                args=(str(tmp_path), key, marker, 60),
            )
            for marker in (1, 2)
        ]
        for p in writers:
            p.start()
        for p in writers:
            p.join(60.0)
            assert p.exitcode == 0
        # Strict mode: any torn/corrupt entry would raise here.
        disk = DiskCache(tmp_path, strict=True)
        payload = disk.load(key)
        assert payload is not None
        assert payload["writer"] in (1, 2)
        assert payload["round"] == 59
        assert len(disk) == 1
        # Atomic replace leaves no tmp litter behind.
        assert not list(tmp_path.glob("*.tmp-*"))
