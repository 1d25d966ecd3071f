"""Brownout: staged, measurable degradation under overload.

The daemon sheds load the way the paper's crossbar does: a request
that cannot be carried is cleared, never rewritten onto another solver
(every other solver costs more than the default grid solve).  The
:class:`ServicePressureController` watches the daemon's own saturation
signals — admission-gate occupancy, micro-batcher queue depth,
batch-worker lag, the disk-cache circuit breaker, and (inside a
cluster) the router-reported fleet pressure from dead shards — folds
them into one pressure score, and walks an ordered ladder of sheds:

==== =================== ===============================================
stage name                behavior
==== =================== ===============================================
0    ``normal``          full service
1    ``admission-shrink`` the gate's soft token limit shrinks by
                          ``shrink_factor`` (blocking probability rises
                          exactly as the multi-rate model predicts for
                          a smaller ``N``)
2    ``stale-cache``     only cache hits are served (provenance-stamped
                          ``"degraded": true``); misses fast-503
3    ``fast-503``        every solve is cleared before the gate
==== =================== ===============================================

Escalation and recovery are hysteretic — the score must hold above
(below) its threshold for several consecutive evaluations — so the
ladder does not flap at the boundary.  Every transition is observable:
the controller reports stage, per-component pressure and a transition
count through the daemon's ``/metrics``.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..exceptions import ConfigurationError
from ..logging import get_logger, kv

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine import BatchSolver
    from .batcher import MicroBatcher
    from .gate import AdmissionGate

__all__ = [
    "BrownoutConfig",
    "ServicePressureController",
    "STAGE_NAMES",
    "STAGE_NORMAL",
    "STAGE_ADMISSION_SHRINK",
    "STAGE_STALE_CACHE",
    "STAGE_FAST_503",
]

logger = get_logger("service.brownout")

STAGE_NORMAL = 0
STAGE_ADMISSION_SHRINK = 1
STAGE_STALE_CACHE = 2
STAGE_FAST_503 = 3

STAGE_NAMES = (
    "normal",
    "admission-shrink",
    "stale-cache",
    "fast-503",
)


@dataclass(frozen=True)
class BrownoutConfig:
    """Tunables of the pressure controller."""

    #: Master switch; disabled leaves the daemon permanently at stage 0.
    enabled: bool = True
    #: Seconds between pressure evaluations.
    interval: float = 0.25
    #: Stage >= 1 shrinks the gate's soft limit to
    #: ``ceil(capacity * shrink_factor)``.
    shrink_factor: float = 0.5
    #: Batch-worker lag (age of the oldest in-flight flush, seconds)
    #: that counts as pressure 1.0.
    lag_budget: float = 2.0
    #: Escalate one stage after the score holds >= this ...
    raise_threshold: float = 0.85
    #: ... for this many consecutive evaluations.
    raise_after: int = 2
    #: Recover one stage after the score holds <= this ...
    lower_threshold: float = 0.55
    #: ... for this many consecutive evaluations (slower than raising:
    #: recovering into a still-saturated gate just flaps).
    lower_after: int = 4
    #: Pressure contributed by an open disk-cache breaker.  Chosen to
    #: sit between the thresholds: an open breaker *holds* a degraded
    #: stage but cannot escalate one on its own.
    breaker_pressure: float = 0.6

    def __post_init__(self) -> None:
        if not 0.0 < self.shrink_factor <= 1.0:
            raise ConfigurationError(
                "shrink_factor must be in (0, 1]"
            )
        if not self.lower_threshold < self.raise_threshold:
            raise ConfigurationError(
                "lower_threshold must be < raise_threshold"
            )
        if self.interval <= 0 or self.lag_budget <= 0:
            raise ConfigurationError(
                "interval and lag_budget must be > 0"
            )
        if self.raise_after < 1 or self.lower_after < 1:
            raise ConfigurationError(
                "raise_after and lower_after must be >= 1"
            )


class ServicePressureController:
    """Walks the brownout ladder from live saturation signals.

    The controller is event-loop-confined like the gate: ``evaluate``
    runs on the daemon's loop (a periodic task the server owns), so
    plain attributes suffice.  Tests and benchmarks drive it directly
    with :meth:`force_stage` / :meth:`evaluate`.
    """

    def __init__(
        self,
        config: BrownoutConfig,
        *,
        gate: "AdmissionGate",
        batcher: "MicroBatcher",
        engine: "BatchSolver",
        on_transition: Callable[[int, int, float], None] | None = None,
    ) -> None:
        self.config = config
        self.gate = gate
        self.batcher = batcher
        self.engine = engine
        self.on_transition = on_transition
        self.stage = STAGE_NORMAL
        self.transitions = 0
        self.forced = False
        self.last_pressure: dict[str, float] = {"overall": 0.0}
        self._above = 0
        self._below = 0
        #: Pressure pushed down from a cluster router (the
        #: ``X-Fleet-Pressure`` request header): the excess load this
        #: worker absorbs for dead shards, ``d / (W - d)``.  A lone
        #: daemon never sees the header and stays at 0.  As a
        #: component it is capped at ``breaker_pressure`` (see
        #: :meth:`pressure`).
        self.fleet_pressure = 0.0

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------

    def pressure(self) -> dict[str, float]:
        """Per-component pressure in ``[0, ~1]`` plus their max."""
        gate_occupancy = (
            self.gate.in_use / self.gate.capacity
            if self.gate.capacity else 0.0
        )
        queue_depth = self.batcher.queue_depth
        queue = queue_depth / self.batcher.max_batch
        lag = self.batcher.worker_lag / self.config.lag_budget
        breaker = (
            self.config.breaker_pressure
            if self._breaker_open() else 0.0
        )
        # Like the breaker: capped between the thresholds, so a
        # shrunken fleet *holds* a degraded stage but cannot walk the
        # ladder to fast-503 on its own — the load it actually absorbs
        # shows up in gate/queue/lag and escalates honestly.
        fleet = min(
            self.config.breaker_pressure,
            max(self.fleet_pressure, 0.0),
        )
        components = {
            "gate": gate_occupancy,
            "queue": min(queue, 1.0),
            "lag": min(lag, 1.0),
            "breaker": breaker,
            "fleet": fleet,
        }
        components["overall"] = max(components.values())
        return components

    def _breaker_open(self) -> bool:
        # NB: DiskCache defines __len__, so an *empty* cache is falsy —
        # compare against None, not truthiness.
        disk = getattr(self.engine, "disk", None)
        breaker = getattr(disk, "breaker", None) if disk is not None else None
        return breaker is not None and breaker.state == "open"

    # ------------------------------------------------------------------
    # The ladder
    # ------------------------------------------------------------------

    @property
    def stage_name(self) -> str:
        return STAGE_NAMES[self.stage]

    @property
    def stale_only(self) -> bool:
        """Stage 2: serve cache hits only, clear misses."""
        return self.stage == STAGE_STALE_CACHE

    @property
    def shedding(self) -> bool:
        """Stage 3: clear every solve before the gate."""
        return self.stage >= STAGE_FAST_503

    def evaluate(self) -> int:
        """One hysteretic step of the controller; returns the stage."""
        if not self.config.enabled or self.forced:
            return self.stage
        components = self.pressure()
        self.last_pressure = components
        score = components["overall"]
        if score >= self.config.raise_threshold:
            self._above += 1
            self._below = 0
            if (
                self._above >= self.config.raise_after
                and self.stage < STAGE_FAST_503
            ):
                self._above = 0
                self._transition(self.stage + 1, score)
        elif score <= self.config.lower_threshold:
            self._below += 1
            self._above = 0
            if (
                self._below >= self.config.lower_after
                and self.stage > STAGE_NORMAL
            ):
                self._below = 0
                self._transition(self.stage - 1, score)
        else:
            self._above = 0
            self._below = 0
        return self.stage

    def force_stage(self, stage: int, *, hold: bool = True) -> None:
        """Pin the ladder at ``stage`` (tests, benchmarks, operators).

        With ``hold`` (default) the periodic evaluation stops moving
        the ladder until :meth:`release` is called.
        """
        if not 0 <= stage < len(STAGE_NAMES):
            raise ConfigurationError(
                f"brownout stage must be in [0, {len(STAGE_NAMES) - 1}], "
                f"got {stage}"
            )
        self.forced = hold
        if stage != self.stage:
            self._transition(stage, self.last_pressure.get("overall", 0.0))

    def release(self) -> None:
        """Resume automatic stage control after :meth:`force_stage`."""
        self.forced = False
        self._above = 0
        self._below = 0

    def _transition(self, new_stage: int, score: float) -> None:
        old = self.stage
        self.stage = new_stage
        self.transitions += 1
        self._apply_side_effects(old, new_stage)
        logger.warning(
            "brownout transition %s",
            kv(**{"from": STAGE_NAMES[old], "to": STAGE_NAMES[new_stage],
                  "pressure": round(score, 4)}),
        )
        if self.on_transition is not None:
            self.on_transition(old, new_stage, score)

    def _apply_side_effects(self, old: int, new: int) -> None:
        # Stage >= 1 holds the shrunken admission limit for the whole
        # degraded ladder; only a full recovery to stage 0 restores it.
        if new >= STAGE_ADMISSION_SHRINK and old < STAGE_ADMISSION_SHRINK:
            shrunk = max(
                1, int(self.gate.capacity * self.config.shrink_factor)
            )
            self.gate.set_limit(shrunk)
        elif new == STAGE_NORMAL and old > STAGE_NORMAL:
            self.gate.set_limit(self.gate.capacity)

    # ------------------------------------------------------------------

    async def run(self) -> None:
        """The periodic evaluation loop (owned by the daemon)."""
        while True:
            await asyncio.sleep(self.config.interval)
            self.evaluate()
