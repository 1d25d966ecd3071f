"""Brownout ladder: staged degradation under pressure, observable end
to end.

Controller units cover the hysteresis (raise-after / lower-after
consecutive evaluations), the gate-limit side effects, and the forced
overrides.  The end-to-end walk drives a live daemon through
admission-shrink -> stale-cache -> fast-503 and back,
asserting the wire contract of every stage and that each transition
lands on ``/metrics``.
"""

from __future__ import annotations

import threading

import pytest

pytestmark = pytest.mark.service  # spins up the solve-serving daemon

from repro.api import SolveRequest, solve
from repro.core.traffic import TrafficClass
from repro.engine import BatchSolver, EngineConfig
from repro.exceptions import ConfigurationError
from repro.service import (
    AdmissionGate,
    AdmissionRejectedError,
    BrownoutConfig,
    STAGE_NAMES,
    ServiceClient,
    ServiceConfig,
    ServicePressureController,
    start_in_thread,
)
from repro.service.brownout import (
    STAGE_ADMISSION_SHRINK,
    STAGE_FAST_503,
    STAGE_NORMAL,
    STAGE_STALE_CACHE,
)


def point_request(n: int = 4, rate: float = 0.01) -> SolveRequest:
    return SolveRequest.square(n, [TrafficClass.poisson(rate)])


class _StubBatcher:
    max_batch = 8
    queue_depth = 0
    worker_lag = 0.0


class _StubEngine:
    disk = None


def make_controller(
    capacity: int = 10, **config_overrides
) -> ServicePressureController:
    gate = AdmissionGate(capacity)
    return ServicePressureController(
        BrownoutConfig(**config_overrides),
        gate=gate,
        batcher=_StubBatcher(),
        engine=_StubEngine(),
    )


def pin_pressure(
    controller: ServicePressureController, overall: float
) -> None:
    controller.pressure = lambda: {
        "gate": overall, "queue": 0.0, "lag": 0.0, "breaker": 0.0,
        "overall": overall,
    }


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------


@pytest.mark.parametrize("bad", [
    dict(shrink_factor=0.0),
    dict(shrink_factor=1.5),
    dict(lower_threshold=0.9, raise_threshold=0.8),
    dict(interval=0.0),
    dict(lag_budget=0.0),
    dict(raise_after=0),
    dict(lower_after=0),
])
def test_brownout_config_rejects_bad_knobs(bad):
    with pytest.raises(ConfigurationError):
        BrownoutConfig(**bad)


# ----------------------------------------------------------------------
# Hysteresis
# ----------------------------------------------------------------------


def test_escalation_needs_consecutive_high_scores():
    controller = make_controller(raise_after=3)
    pin_pressure(controller, 0.95)
    assert controller.evaluate() == STAGE_NORMAL
    assert controller.evaluate() == STAGE_NORMAL
    assert controller.evaluate() == STAGE_ADMISSION_SHRINK


def test_midband_score_resets_the_streak():
    controller = make_controller(raise_after=2)
    pin_pressure(controller, 0.95)
    controller.evaluate()
    pin_pressure(controller, 0.7)  # between the thresholds
    controller.evaluate()
    pin_pressure(controller, 0.95)
    controller.evaluate()  # streak restarted: still only 1 high score
    assert controller.stage == STAGE_NORMAL
    controller.evaluate()
    assert controller.stage == STAGE_ADMISSION_SHRINK


def test_recovery_is_slower_than_escalation():
    controller = make_controller(raise_after=2, lower_after=4)
    pin_pressure(controller, 0.95)
    controller.evaluate()
    controller.evaluate()
    assert controller.stage == STAGE_ADMISSION_SHRINK
    pin_pressure(controller, 0.1)
    for _ in range(3):
        controller.evaluate()
        assert controller.stage == STAGE_ADMISSION_SHRINK
    controller.evaluate()
    assert controller.stage == STAGE_NORMAL


def test_ladder_tops_out_at_fast_503():
    controller = make_controller(raise_after=1)
    pin_pressure(controller, 1.0)
    for _ in range(10):
        controller.evaluate()
    assert controller.stage == STAGE_FAST_503
    assert controller.shedding


# ----------------------------------------------------------------------
# Side effects on the admission gate
# ----------------------------------------------------------------------


def test_stage1_shrinks_gate_limit_and_recovery_restores_it():
    controller = make_controller(capacity=10, raise_after=1,
                                 lower_after=1, shrink_factor=0.5)
    gate = controller.gate
    assert gate.limit == 10
    pin_pressure(controller, 0.95)
    controller.evaluate()
    assert controller.stage == STAGE_ADMISSION_SHRINK
    assert gate.limit == 5
    # The shrunken limit holds for the whole degraded ladder ...
    controller.evaluate()
    assert controller.stage == STAGE_STALE_CACHE
    assert gate.limit == 5
    # ... and only a full recovery to stage 0 restores it.
    pin_pressure(controller, 0.1)
    controller.evaluate()
    assert controller.stage == STAGE_ADMISSION_SHRINK
    assert gate.limit == 5
    controller.evaluate()
    assert controller.stage == STAGE_NORMAL
    assert gate.limit == 10


def test_gate_set_limit_clamps_and_never_evicts():
    gate = AdmissionGate(4)
    leases = [gate.try_acquire("solve", 1) for _ in range(4)]
    assert all(leases)
    assert gate.set_limit(2) == 2
    # Holders keep their tokens; only new admissions see the limit.
    assert gate.in_use == 4
    assert gate.try_acquire("solve", 1) is None
    for lease in leases[:3]:
        gate.release(lease)
    assert gate.try_acquire("solve", 1) is not None  # 1 + 1 <= 2
    assert gate.set_limit(99) == 4   # clamped to capacity
    assert gate.set_limit(0) == 1    # clamped to at least one token
    assert gate.set_limit(4) == 4


def test_breaker_pressure_holds_but_cannot_escalate():
    controller = make_controller(raise_after=1)

    class _OpenBreaker:
        state = "open"

    class _BrokenDisk:
        breaker = _OpenBreaker()

    class _BrokenEngine:
        disk = _BrokenDisk()

    controller.engine = _BrokenEngine()
    components = controller.pressure()
    assert components["breaker"] == pytest.approx(0.6)
    # 0.6 sits between lower (0.55) and raise (0.85): it keeps the
    # streak counters pinned at zero, neither escalating nor lowering.
    controller.evaluate()
    assert controller.stage == STAGE_NORMAL


def test_fleet_pressure_holds_but_cannot_escalate_alone():
    """The router-pushed fleet pressure (X-Fleet-Pressure) is a first-
    class component, but — like an open disk breaker — it is capped at
    ``breaker_pressure``: a shrunken fleet holds a degraded stage yet
    never sheds traffic it is not actually receiving."""
    controller = make_controller(raise_after=1)
    assert controller.pressure()["fleet"] == 0.0
    controller.fleet_pressure = 0.5
    components = controller.pressure()
    assert components["fleet"] == pytest.approx(0.5)
    assert components["overall"] == pytest.approx(0.5)
    # Half the fleet dead stamps 1.0; the component caps between the
    # thresholds (0.55 < 0.6 < 0.85).
    controller.fleet_pressure = 1.0
    assert controller.pressure()["fleet"] == pytest.approx(0.6)
    controller.fleet_pressure = -3.0
    assert controller.pressure()["fleet"] == 0.0
    controller.fleet_pressure = 1.0
    controller.evaluate()
    assert controller.stage == STAGE_NORMAL  # holds, never escalates
    # ... but it does keep an escalated stage from recovering.
    controller.force_stage(STAGE_ADMISSION_SHRINK, hold=False)
    for _ in range(controller.config.lower_after * 4):
        controller.evaluate()
    assert controller.stage == STAGE_ADMISSION_SHRINK


def test_force_stage_pins_and_release_resumes():
    controller = make_controller(raise_after=1)
    controller.force_stage(STAGE_STALE_CACHE)
    assert controller.stage == STAGE_STALE_CACHE
    assert controller.stale_only
    pin_pressure(controller, 0.0)
    controller.evaluate()  # forced: the ladder must not move
    assert controller.stage == STAGE_STALE_CACHE
    controller.release()
    for _ in range(controller.config.lower_after * 4):
        controller.evaluate()
    assert controller.stage == STAGE_NORMAL


def test_force_stage_rejects_out_of_range():
    controller = make_controller()
    with pytest.raises(ConfigurationError):
        controller.force_stage(99)
    with pytest.raises(ConfigurationError):
        controller.force_stage(-1)


def test_transitions_fire_callback_and_counter():
    seen = []
    controller = make_controller(raise_after=1)
    controller.on_transition = lambda old, new, score: \
        seen.append((old, new))
    pin_pressure(controller, 0.95)
    controller.evaluate()
    controller.evaluate()
    assert seen == [(0, 1), (1, 2)]
    assert controller.transitions == 2


# ----------------------------------------------------------------------
# End to end: the full ladder on a live daemon
# ----------------------------------------------------------------------


@pytest.fixture()
def handle():
    config = ServiceConfig(
        port=0, batch_window=0.005, gate_capacity=8,
        brownout=BrownoutConfig(enabled=True, interval=60.0),
    )
    with start_in_thread(
        config, engine=BatchSolver(EngineConfig())
    ) as service_handle:
        yield service_handle


def set_stage(handle, stage: int) -> None:
    """Force the loop-confined controller from the test thread."""
    done = threading.Event()

    def _apply() -> None:
        handle.service.brownout.force_stage(stage)
        done.set()

    handle.loop.call_soon_threadsafe(_apply)
    assert done.wait(5.0)


def test_full_ladder_walk_end_to_end(handle):
    service = handle.service
    client = ServiceClient(*handle.address)
    cached = point_request(6)
    uncached = point_request(7, rate=0.02)
    local = solve(cached)

    # Stage 0: byte-identical service, full token pool.
    envelope = client.solve_raw(cached)
    assert "degraded" not in envelope
    assert decode_equal(envelope, local)
    assert service.gate.limit == service.gate.capacity

    # Stage 1 (admission-shrink): limit halves, answers stay exact; a
    # miss is solved by the method it asked for, never rewritten.
    set_stage(handle, STAGE_ADMISSION_SHRINK)
    assert service.gate.limit == 4
    envelope = client.solve_raw(cached)
    assert "degraded" not in envelope
    assert decode_equal(envelope, local)
    envelope = client.solve_raw(uncached)
    assert "degraded" not in envelope
    assert decode_equal(envelope, solve(uncached))

    # Stage 2 (stale-cache): the stage-0 hit is served from cache with
    # the degraded stamp; a cold request fast-503s without solving.
    set_stage(handle, STAGE_STALE_CACHE)
    lookups_before = service.engine.stats.snapshot()["solves"]
    envelope = client.solve_raw(cached)
    assert envelope["degraded"] is True
    assert envelope["degraded_stage"] == "stale-cache"
    assert envelope["from_cache"] is True
    assert decode_equal(envelope, local)
    cold = point_request(9, rate=0.03)
    with pytest.raises(AdmissionRejectedError) as excinfo:
        client.solve(cold)
    assert excinfo.value.kind == "brownout_rejected"
    assert excinfo.value.retry_after >= 0.0
    assert service.engine.stats.snapshot()["solves"] == lookups_before

    # Stage 3 (fast-503): everything is cleared before the gate.
    set_stage(handle, STAGE_FAST_503)
    offered_before = service.gate.offered
    with pytest.raises(AdmissionRejectedError) as excinfo:
        client.solve(cached)
    assert excinfo.value.kind == "brownout_rejected"
    assert service.gate.offered == offered_before  # never reached it

    # Recovery: stage 0 restores the full pool and exact service.
    set_stage(handle, STAGE_NORMAL)
    assert service.gate.limit == service.gate.capacity
    envelope = client.solve_raw(cached)
    assert "degraded" not in envelope
    assert decode_equal(envelope, local)


def decode_equal(envelope: dict, local) -> bool:
    from repro.service.protocol import decode_result

    remote = decode_result(envelope["result"])
    if remote != local:
        return False
    for field in ("blocking", "throughput", "mean_occupancy"):
        r, l = getattr(remote, field), getattr(local, field)
        if isinstance(r, float) and r.hex() != l.hex():
            return False
    return True


def test_batch_at_stale_stage_serves_hits_and_marks_misses(handle):
    client = ServiceClient(*handle.address)
    warm = point_request(6)
    cold = point_request(11, rate=0.04)
    local = solve(warm)
    client.solve(warm)  # prime the cache at stage 0
    set_stage(handle, STAGE_STALE_CACHE)
    results = client.solve_many([warm, cold])
    assert results[0] == local
    assert getattr(results[1], "failed", False)
    assert results[1].error_type == "BrownoutError"


def test_brownout_observable_in_health_and_metrics(handle):
    service = handle.service
    client = ServiceClient(*handle.address)
    health = client.health()
    block = health["brownout"]
    assert block["stage_name"] == "normal"
    assert set(block["pressure"]) >= {"gate", "queue", "lag",
                                      "breaker", "overall"}
    assert health["gate"]["limit"] == service.gate.capacity

    client.solve(point_request(4))              # cached at stage 0
    set_stage(handle, STAGE_ADMISSION_SHRINK)
    set_stage(handle, STAGE_STALE_CACHE)
    client.solve_raw(point_request(4))          # degraded response
    set_stage(handle, STAGE_FAST_503)
    with pytest.raises(AdmissionRejectedError):
        client.solve(point_request(4))          # shed

    assert client.metric_value("repro_service_brownout_stage") == 3.0
    assert client.metric_value(
        "repro_service_brownout_transitions_total",
        **{"from": "normal", "to": "admission-shrink"},
    ) >= 1.0
    assert client.metric_value(
        "repro_service_degraded_responses_total", stage="stale-cache"
    ) >= 1.0
    assert client.metric_value(
        "repro_service_brownout_shed_total", **{"class": "solve"}
    ) >= 1.0
    page = client.metrics()
    assert "repro_service_brownout_pressure" in page
    health = client.health()
    assert health["brownout"]["stage_name"] == "fast-503"
    assert health["brownout"]["transitions"] >= 3
