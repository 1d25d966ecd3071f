"""Weighted admission gate with blocked-calls-cleared semantics.

The daemon bounds its own concurrency exactly the way the paper's
crossbar bounds connections: a request class ``r`` "acquires ``a_r``
ports" (here: tokens) for its holding time, and a request that cannot
get its tokens *right now* is cleared — rejected with a structured
503 — never queued.  The gate therefore behaves as a multi-rate loss
system, and the ratio ``rejected / offered`` it reports is the served
analogue of the paper's blocking probability ``1 - B_r(N)`` (compare
it to :func:`repro.baselines.erlang.erlang_b` at the equivalent
offered load; the cross-validation tests do).

The gate is deliberately not a lock: it is only ever touched from the
service's event loop, so plain counters suffice and every statistic is
exact (no sampling, no races).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ConfigurationError

__all__ = ["AdmissionGate", "GateLease", "GateSnapshot"]


@dataclass(frozen=True)
class GateLease:
    """Proof of admission: the tokens one request holds until release."""

    weight: int
    admission_class: str


@dataclass(frozen=True)
class GateSnapshot:
    """Exact gate statistics at one instant."""

    capacity: int
    in_use: int
    peak_in_use: int
    offered: int
    admitted: int
    rejected: int
    released: int
    #: Soft admission limit (<= capacity); the brownout controller
    #: shrinks this under pressure.  Equals ``capacity`` when unshrunk.
    limit: int = 0

    @property
    def blocking_ratio(self) -> float:
        """Measured blocking probability ``rejected / offered``."""
        return self.rejected / self.offered if self.offered else 0.0


class AdmissionGate:
    """A bounded pool of admission tokens, blocked-calls-cleared.

    ``try_acquire`` either grants the full weight immediately or
    refuses (returning None) — there is no queue to build up under
    overload, so the daemon's memory footprint and latency stay
    bounded no matter the offered load.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"gate capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        #: Soft limit actually enforced by ``try_acquire``.  Starts at
        #: ``capacity``; the brownout controller shrinks it (stage 1,
        #: "admission-shrink") and restores it when pressure clears.
        #: Shrinking never evicts holders — ``in_use`` may exceed the
        #: limit transiently until leases drain.
        self.limit = capacity
        self.in_use = 0
        self.peak_in_use = 0
        self.offered = 0
        self.admitted = 0
        self.rejected = 0
        self.released = 0
        self._offered_by_class: dict[str, int] = {}
        self._rejected_by_class: dict[str, int] = {}

    # ------------------------------------------------------------------

    def effective_weight(self, weight: int) -> int:
        """Clamp a requested weight into ``[1, capacity]``.

        Mirrors the model's ``a_r <= min(N1, N2)`` admissibility bound:
        a sweep wider than the whole gate takes the whole gate rather
        than being permanently inadmissible.
        """
        return max(1, min(int(weight), self.capacity))

    def try_acquire(
        self, admission_class: str, weight: int
    ) -> GateLease | None:
        """Admit (and count) or clear (and count) one request."""
        weight = self.effective_weight(weight)
        self.offered += 1
        self._offered_by_class[admission_class] = (
            self._offered_by_class.get(admission_class, 0) + 1
        )
        if self.in_use + weight > self.limit:
            self.rejected += 1
            self._rejected_by_class[admission_class] = (
                self._rejected_by_class.get(admission_class, 0) + 1
            )
            return None
        self.in_use += weight
        self.peak_in_use = max(self.peak_in_use, self.in_use)
        self.admitted += 1
        return GateLease(weight=weight, admission_class=admission_class)

    def release(self, lease: GateLease) -> None:
        self.in_use -= lease.weight
        self.released += 1
        if self.in_use < 0:  # pragma: no cover - double release is a bug
            raise ConfigurationError("admission gate released below zero")

    def set_limit(self, limit: int) -> int:
        """Clamp and apply a new soft admission limit; returns it.

        The limit lives in ``[1, capacity]``: the gate can be shrunk to
        a trickle but never closed outright (stage 3 of the brownout
        ladder rejects *before* the gate instead), and it can never
        exceed the configured capacity.
        """
        self.limit = max(1, min(int(limit), self.capacity))
        return self.limit

    # ------------------------------------------------------------------

    def offered_by_class(self) -> dict[str, int]:
        return dict(self._offered_by_class)

    def rejected_by_class(self) -> dict[str, int]:
        return dict(self._rejected_by_class)

    def snapshot(self) -> GateSnapshot:
        return GateSnapshot(
            capacity=self.capacity,
            in_use=self.in_use,
            peak_in_use=self.peak_in_use,
            offered=self.offered,
            admitted=self.admitted,
            rejected=self.rejected,
            released=self.released,
            limit=self.limit,
        )
