"""Chaos harness drills: disk-cache faults against full 50-point
sweeps, asserting recovery is byte-identical to a clean run.

Every solve is a pure function of its request, and ``SolveResult``
equality deliberately excludes timing/provenance fields — so a batch
that survived a corrupted or denied cache entry must compare *equal* to
the fault-free batch.  Real solver failures are drilled serially in
``test_engine_resilience.py``.
"""

from __future__ import annotations

import random

import pytest

pytestmark = pytest.mark.chaos  # fault-injection chaos harness

from repro.api import SolveRequest
from repro.core.traffic import TrafficClass
from repro.engine import (
    BatchSolver,
    EngineConfig,
    corrupt_entry,
)
from repro.engine.chaos import CacheFaultInjector, ChaosFault, FaultPlan
from repro.exceptions import ConfigurationError
from repro.methods import SolveMethod

SEED = 1992  # the paper's year; any seed works, this one is pinned
N_POINTS = 50


@pytest.fixture(scope="module")
def classes():
    return (
        TrafficClass.poisson(0.03, name="data"),
        TrafficClass(alpha=0.01, beta=0.005, name="video"),
    )


@pytest.fixture(scope="module")
def requests(classes):
    """50 distinct MVA points (MVA is never grid-grouped: one task
    per point, which is what the fault plans target)."""
    return [
        SolveRequest.square(n, classes, method=SolveMethod.MVA)
        for n in range(3, 3 + N_POINTS)
    ]


@pytest.fixture(scope="module")
def clean(requests):
    """Fault-free reference results, solved serially (once)."""
    return BatchSolver(EngineConfig()).evaluate_many(requests)


class TestFaultPlans:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosFault("melt-the-switch")

    def test_cache_injector_respects_count_budget(self, tmp_path):
        plan = FaultPlan(
            faults=(ChaosFault("cache-deny", op="load", count=2),)
        )
        injector = CacheFaultInjector(plan)
        for _ in range(2):
            with pytest.raises(OSError):
                injector("load", "k", tmp_path / "k.json")
        injector("load", "k", tmp_path / "k.json")  # budget spent
        injector("store", "k", tmp_path / "k.json")  # op mismatch
        assert len(injector.fired) == 2


class TestCacheCorruptionRecovery:
    def test_sweep_survives_a_corrupted_entry(
        self, tmp_path, requests, clean
    ):
        # Pass 1: populate the disk cache.
        warm = BatchSolver(EngineConfig(disk_cache=tmp_path))
        first = warm.evaluate_many(requests)
        assert first == clean

        # Chaos corrupts the seed-chosen victim's entry right before
        # the engine reads it.
        victim = random.Random(SEED).sample(range(N_POINTS), k=1)[0]
        victim_key = requests[victim].cache_key
        plan = FaultPlan(
            faults=(
                ChaosFault(
                    "cache-corrupt", op="load", key=victim_key
                ),
            ),
            seed=SEED,
        )
        engine = BatchSolver(
            EngineConfig(disk_cache=tmp_path, chaos=plan)
        )
        results = engine.evaluate_many(requests)
        assert results == clean
        assert engine.disk.fault_hook.fired == [
            ("cache-corrupt", "load", victim_key)
        ]
        # The quarantined entry was re-solved and re-stored intact.
        assert engine.disk.load(victim_key) is not None

    def test_corrupt_entry_helper(self, tmp_path, classes):
        disk_engine = BatchSolver(EngineConfig(disk_cache=tmp_path))
        request = SolveRequest.square(
            4, classes, method=SolveMethod.MVA
        )
        before = disk_engine.solve(request)
        path = corrupt_entry(disk_engine.disk, request.cache_key)
        assert path.exists()
        disk_engine.clear()
        after = disk_engine.solve(request)  # quarantine + re-solve
        assert after == before
        with pytest.raises(ConfigurationError):
            corrupt_entry(disk_engine.disk, "never-stored-key")


class TestBreakerUnderChaos:
    def test_cache_denies_trip_the_breaker_mid_sweep(
        self, tmp_path, requests, clean
    ):
        plan = FaultPlan(
            faults=(ChaosFault("cache-deny", count=3),), seed=SEED
        )
        engine = BatchSolver(
            EngineConfig(
                disk_cache=tmp_path,
                chaos=plan,
                breaker_threshold=3,
                breaker_cooldown=3600.0,
            )
        )
        results = engine.evaluate_many(requests[:10])
        assert results == clean[:10]
        metrics = engine.last_metrics
        assert metrics.breaker_trips == 1
        assert metrics.breaker_state == "open"
        assert engine.disk.breaker.rejections > 0
        assert engine.last_metrics.failed == 0
