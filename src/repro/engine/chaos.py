"""Deterministic fault injection for the engine and the serving stack.

The disk cache's resilience claims — quarantine of corrupt entries,
the circuit breaker, memory-only degradation — are only trustworthy if
they can be *exercised on demand*.  This module is the chaos harness:
a :class:`FaultPlan` describes exactly which cache operation fails and
how, and ``DiskCache.fault_hook`` — a :class:`CacheFaultInjector`
built from ``EngineConfig.chaos`` — fires it.

Fault kinds
-----------
``cache-deny``
    The next ``count`` matching cache operations raise ``OSError``
    (this is what trips the circuit breaker).
``cache-corrupt``
    The entry file is overwritten with garbage just before the cache
    touches it; the normal corruption path (quarantine/strict raise)
    takes over from there.

Plans are plain data.  Because every solve is a pure function of its
request, a recovered run is *byte-identical* to a fault-free run — the
property the chaos tests assert.

Two sibling harnesses share that contract:
:class:`ServiceFaultPlan` fires wire-level faults against one serving
daemon (stalled sockets, mid-request disconnects, killed flushes), and
:class:`ClusterFaultPlan` fires fleet-level faults against a whole
worker cluster (SIGKILL mid-request, SIGSTOP stalls, refused
connections, shared-cache corruption, crash-looping slots).
"""

from __future__ import annotations

import os
import random
import signal as signal_mod
import socket
import struct
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from ..exceptions import ConfigurationError

__all__ = [
    "CacheFaultInjector",
    "ChaosFault",
    "ClusterFault",
    "ClusterFaultInjector",
    "ClusterFaultPlan",
    "FaultPlan",
    "ServiceFault",
    "ServiceFaultInjector",
    "ServiceFaultPlan",
    "corrupt_entry",
    "corrupt_shared_cache",
    "KIND_CACHE_DENY",
    "KIND_CACHE_CORRUPT",
    "KIND_CLIENT_STALL",
    "KIND_CLIENT_DISCONNECT",
    "KIND_ENGINE_DELAY",
    "KIND_ENGINE_ERROR",
    "KIND_BREAKER_OPEN",
    "KIND_WORKER_KILL",
    "KIND_WORKER_STALL",
    "KIND_WORKER_REFUSE",
    "KIND_SHARED_CACHE_CORRUPT",
    "KIND_CRASH_LOOP",
]

KIND_CACHE_DENY = "cache-deny"
KIND_CACHE_CORRUPT = "cache-corrupt"

_CACHE_KINDS = (KIND_CACHE_DENY, KIND_CACHE_CORRUPT)

GARBAGE = "{chaos corrupted this entry"


@dataclass(frozen=True)
class ChaosFault:
    """One planned disk-cache fault.

    Targets an operation (``"load"``, ``"store"``, or ``""`` for both)
    and optionally a specific ``key`` (``""`` = any key), firing at
    most ``count`` times.
    """

    kind: str
    op: str = ""
    key: str = ""
    count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _CACHE_KINDS:
            raise ConfigurationError(
                f"unknown chaos fault kind {self.kind!r}; expected one of "
                f"{_CACHE_KINDS}"
            )

    def matches_cache(self, op: str, key: str) -> bool:
        return (
            (not self.op or self.op == op)
            and (not self.key or self.key == key)
        )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of disk-cache faults for one (or more) runs."""

    faults: tuple[ChaosFault, ...] = ()
    seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))


class CacheFaultInjector:
    """Stateful hook wired into :class:`~repro.engine.cache.DiskCache`.

    Called as ``injector(op, key, path)`` before each disk-cache
    operation; counts down each cache fault's ``count`` budget and
    fires it (deny raises ``OSError``, corrupt scribbles over the
    entry file).  Lives in the engine process only — pool workers never
    touch the parent's disk cache.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._remaining = [fault.count for fault in plan.faults]
        #: Faults actually fired, for test assertions.
        self.fired: list[tuple[str, str, str]] = []

    def __call__(self, op: str, key: str, path: Path) -> None:
        for i, fault in enumerate(self.plan.faults):
            if self._remaining[i] <= 0:
                continue
            if not fault.matches_cache(op, key):
                continue
            self._remaining[i] -= 1
            self.fired.append((fault.kind, op, key))
            if fault.kind == KIND_CACHE_DENY:
                raise OSError(
                    f"chaos: cache {op} denied (key {key[:40]!r})"
                )
            corrupt_path(path)
            return


def corrupt_path(path: Path) -> None:
    """Overwrite a cache entry file with unparseable garbage."""
    path.write_text(GARBAGE)


def corrupt_entry(disk, key: str) -> Path:
    """Corrupt the on-disk entry for ``key``; returns the file path.

    The file must exist (corrupting a miss would silently test
    nothing).
    """
    path = disk.path_for(key)
    if not path.exists():
        raise ConfigurationError(
            f"no cache entry to corrupt for key {key[:60]!r}"
        )
    corrupt_path(path)
    return path


# ----------------------------------------------------------------------
# Wire-level chaos: faults against the serving daemon
# ----------------------------------------------------------------------

KIND_CLIENT_STALL = "client-stall"
KIND_CLIENT_DISCONNECT = "client-disconnect"
KIND_ENGINE_DELAY = "engine-delay"
KIND_ENGINE_ERROR = "engine-error"
KIND_BREAKER_OPEN = "breaker-open"

_SERVICE_CLIENT_KINDS = (KIND_CLIENT_STALL, KIND_CLIENT_DISCONNECT)
_SERVICE_ENGINE_KINDS = (KIND_ENGINE_DELAY, KIND_ENGINE_ERROR)
_SERVICE_KINDS = (
    _SERVICE_CLIENT_KINDS + _SERVICE_ENGINE_KINDS + (KIND_BREAKER_OPEN,)
)


@dataclass(frozen=True)
class ServiceFault:
    """One planned wire-level fault.

    Engine faults (``engine-delay``/``engine-error``) target a batcher
    ``flush`` index (the n-th flush the daemon runs while the injector
    is wrapped in); client faults (``client-stall``/
    ``client-disconnect``) and ``breaker-open`` are fired explicitly by
    the test driving the injector's socket/breaker helpers.
    """

    kind: str
    flush: int = -1
    duration: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _SERVICE_KINDS:
            raise ConfigurationError(
                f"unknown service fault kind {self.kind!r}; expected one "
                f"of {_SERVICE_KINDS}"
            )


@dataclass(frozen=True)
class ServiceFaultPlan:
    """A deterministic set of wire-level faults for one serving run."""

    faults: tuple[ServiceFault, ...] = ()
    seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def engine_fault(self, flush: int) -> ServiceFault | None:
        """The first engine fault targeting this flush index, or None."""
        for fault in self.faults:
            if fault.kind in _SERVICE_ENGINE_KINDS and fault.flush == flush:
                return fault
        return None

    @property
    def client_faults(self) -> tuple[ServiceFault, ...]:
        return tuple(
            f for f in self.faults if f.kind in _SERVICE_CLIENT_KINDS
        )

    @property
    def wants_breaker_open(self) -> bool:
        return any(f.kind == KIND_BREAKER_OPEN for f in self.faults)

    @classmethod
    def from_seed(
        cls,
        seed: int,
        *,
        stalls: int = 0,
        disconnects: int = 0,
        engine_delays: int = 0,
        engine_errors: int = 0,
        flushes: int = 8,
        breaker_open: bool = False,
        delay_duration: float = 0.3,
    ) -> "ServiceFaultPlan":
        """Derive a plan from a seed: the same seed, the same plan.

        Victim flush indices for the engine faults are drawn without
        replacement from ``range(flushes)`` by ``random.Random(seed)``;
        client faults are counts (the test fires them explicitly, one
        socket each).
        """
        wanted = engine_delays + engine_errors
        if wanted > flushes:
            raise ConfigurationError(
                f"cannot pick {wanted} distinct flushes from {flushes}"
            )
        rng = random.Random(seed)
        victims = rng.sample(range(flushes), k=wanted)
        faults: list[ServiceFault] = []
        cursor = 0
        for kind, n in (
            (KIND_ENGINE_DELAY, engine_delays),
            (KIND_ENGINE_ERROR, engine_errors),
        ):
            for _ in range(n):
                faults.append(
                    ServiceFault(
                        kind=kind,
                        flush=victims[cursor],
                        duration=(
                            delay_duration
                            if kind == KIND_ENGINE_DELAY else 0.0
                        ),
                    )
                )
                cursor += 1
        faults.extend(
            ServiceFault(kind=KIND_CLIENT_STALL) for _ in range(stalls)
        )
        faults.extend(
            ServiceFault(kind=KIND_CLIENT_DISCONNECT)
            for _ in range(disconnects)
        )
        if breaker_open:
            faults.append(ServiceFault(kind=KIND_BREAKER_OPEN))
        return cls(faults=tuple(faults), seed=seed)


class ServiceFaultInjector:
    """Drives a :class:`ServiceFaultPlan` against a live daemon.

    Three fault surfaces:

    * **engine** — :meth:`wrap_runner` wraps the daemon's micro-batch
      runner; targeted flushes sleep (``engine-delay``) or die with an
      ``OSError`` (``engine-error``, exercising the batcher's
      respawn-and-requeue supervision) before the real engine runs.
    * **clients** — :meth:`stalled_socket` opens a connection that
      trickles a partial request head and then goes silent (the slow
      loris); :meth:`disconnect_mid_request` sends a complete request
      and slams the connection shut without reading the reply (the
      daemon must still release every admission token).
    * **breaker** — :meth:`force_breaker_open` records failures until
      the disk-cache circuit breaker opens.

    Everything fired is recorded on :attr:`fired` for assertions.
    """

    def __init__(self, plan: ServiceFaultPlan) -> None:
        self.plan = plan
        self._flush_index = 0
        #: ``(kind, detail)`` tuples, in firing order.
        self.fired: list[tuple[str, Any]] = []

    # -- engine surface -------------------------------------------------

    def wrap_runner(
        self, runner: Callable[[list], list]
    ) -> Callable[[list], list]:
        """Wrap the daemon's flush runner with the plan's engine faults.

        Flush indices count every invocation, including the batcher's
        supervised requeue — a plan targeting consecutive indices
        therefore kills the retry too.
        """

        def wrapped(requests: list) -> list:
            index = self._flush_index
            self._flush_index += 1
            fault = self.plan.engine_fault(index)
            if fault is not None:
                self.fired.append((fault.kind, index))
                if fault.kind == KIND_ENGINE_DELAY:
                    time.sleep(fault.duration)
                else:
                    raise OSError(
                        f"chaos: engine runner killed (flush {index})"
                    )
            return runner(requests)

        return wrapped

    # -- client surface -------------------------------------------------

    def stalled_socket(
        self, host: str, port: int, partial: bytes = b"POST /solve HTTP/1.1\r\n"
    ) -> socket.socket:
        """A slow-loris connection: partial head, then silence.

        Returns the open socket; the caller closes it (or lets the
        daemon's read timeout do so first, which is the point).
        """
        sock = socket.create_connection((host, port), timeout=30.0)
        sock.sendall(partial)
        self.fired.append((KIND_CLIENT_STALL, len(partial)))
        return sock

    def disconnect_mid_request(
        self, host: str, port: int, body: bytes,
        path: str = "/solve",
    ) -> None:
        """Send a full request, then vanish without reading the reply.

        The daemon will finish the solve and fail the write — every
        admission token it granted must still come back.
        """
        head = (
            f"POST {path} HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        sock = socket.create_connection((host, port), timeout=30.0)
        try:
            sock.sendall(head + body)
            # Hard reset (RST) rather than FIN: the worst-behaved exit.
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER,
                struct.pack("ii", 1, 0),
            )
        finally:
            sock.close()
        self.fired.append((KIND_CLIENT_DISCONNECT, path))

    # -- breaker surface ------------------------------------------------

    def force_breaker_open(self, breaker: Any) -> None:
        """Record failures until the circuit breaker reports open."""
        for _ in range(1000):
            if breaker.state == "open":
                self.fired.append((KIND_BREAKER_OPEN, breaker.state))
                return
            breaker.record_failure("chaos: forced open")
        raise ConfigurationError(
            "breaker did not open after 1000 recorded failures"
        )


# ----------------------------------------------------------------------
# Cluster-level chaos: faults against a whole worker fleet
# ----------------------------------------------------------------------

KIND_WORKER_KILL = "worker-kill"
KIND_WORKER_STALL = "worker-stall"
KIND_WORKER_REFUSE = "worker-refuse"
KIND_SHARED_CACHE_CORRUPT = "shared-cache-corrupt"
KIND_CRASH_LOOP = "crash-loop"

_CLUSTER_KINDS = (
    KIND_WORKER_KILL,
    KIND_WORKER_STALL,
    KIND_WORKER_REFUSE,
    KIND_SHARED_CACHE_CORRUPT,
    KIND_CRASH_LOOP,
)


@dataclass(frozen=True)
class ClusterFault:
    """One planned fleet-level fault.

    ``at`` is the offset (seconds) into the injector run at which the
    fault fires.  ``duration`` is the stall length (``worker-stall``),
    the respawn hold (``worker-refuse``), or the per-respawn wait
    budget (``crash-loop``); ``count`` is the number of consecutive
    kills a ``crash-loop`` lands on the slot.
    """

    kind: str
    shard: int = 0
    at: float = 0.0
    duration: float = 0.5
    count: int = 3

    def __post_init__(self) -> None:
        if self.kind not in _CLUSTER_KINDS:
            raise ConfigurationError(
                f"unknown cluster fault kind {self.kind!r}; expected one "
                f"of {_CLUSTER_KINDS}"
            )
        if self.shard < 0 or self.at < 0 or self.duration < 0 \
                or self.count < 1:
            raise ConfigurationError(
                "cluster fault needs shard/at/duration >= 0 and count >= 1"
            )


@dataclass(frozen=True)
class ClusterFaultPlan:
    """A deterministic storm of fleet-level faults.

    Same contract as the other plans: :meth:`from_seed` derives every
    victim and firing time from one seed, so a chaos run is exactly
    reproducible — and the supervisor's deterministic respawn jitter
    keeps the *recovery* timeline reproducible too.
    """

    faults: tuple[ClusterFault, ...] = ()
    seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "faults",
            tuple(sorted(self.faults, key=lambda f: f.at)),
        )

    @property
    def horizon(self) -> float:
        """Seconds from start until the last fault has fully fired."""
        return max(
            (f.at + f.duration for f in self.faults), default=0.0
        )

    def kills_per_shard(self) -> dict[int, int]:
        """SIGKILLs each shard takes (kills + refusals + loop kills)."""
        counts: dict[int, int] = {}
        for fault in self.faults:
            if fault.kind in (KIND_WORKER_KILL, KIND_WORKER_REFUSE):
                counts[fault.shard] = counts.get(fault.shard, 0) + 1
            elif fault.kind == KIND_CRASH_LOOP:
                counts[fault.shard] = counts.get(fault.shard, 0) \
                    + fault.count
        return counts

    @classmethod
    def from_seed(
        cls,
        seed: int,
        shards: int,
        *,
        kills_per_shard: int = 2,
        stalls: int = 0,
        refusals: int = 0,
        corruptions: int = 0,
        crash_loops: int = 0,
        horizon: float = 3.0,
        stall_duration: float = 0.4,
        refuse_duration: float = 0.5,
        loop_kills: int = 3,
        loop_wait: float = 10.0,
    ) -> "ClusterFaultPlan":
        """Derive a storm from a seed.

        Every shard is SIGKILLed exactly ``kills_per_shard`` times at
        seed-drawn instants in ``[0, horizon)`` — the guarantee the
        acceptance chaos test leans on — and the optional stall /
        refuse / corrupt / crash-loop faults pick seed-drawn victims.
        """
        if shards < 1:
            raise ConfigurationError("a cluster plan needs >= 1 shard")
        rng = random.Random(seed)
        faults: list[ClusterFault] = []
        for shard in range(shards):
            for _ in range(kills_per_shard):
                faults.append(ClusterFault(
                    kind=KIND_WORKER_KILL, shard=shard,
                    at=rng.uniform(0.0, horizon), duration=0.0,
                ))
        for kind, n, duration in (
            (KIND_WORKER_STALL, stalls, stall_duration),
            (KIND_WORKER_REFUSE, refusals, refuse_duration),
            (KIND_SHARED_CACHE_CORRUPT, corruptions, 0.0),
        ):
            for _ in range(n):
                faults.append(ClusterFault(
                    kind=kind, shard=rng.randrange(shards),
                    at=rng.uniform(0.0, horizon), duration=duration,
                ))
        for _ in range(crash_loops):
            faults.append(ClusterFault(
                kind=KIND_CRASH_LOOP, shard=rng.randrange(shards),
                at=rng.uniform(0.0, horizon), duration=loop_wait,
                count=loop_kills,
            ))
        return cls(faults=tuple(faults), seed=seed)


def corrupt_shared_cache(cache_dir: str | Path | None) -> int:
    """Scribble garbage over every entry of a fleet's shared disk
    cache (what a worker with a bad disk would leave behind); returns
    the number of entries hit.  Each worker's quarantine path must
    absorb them — answers stay byte-identical, served from a re-solve.
    """
    if not cache_dir:
        return 0
    count = 0
    for path in Path(cache_dir).glob("*.json"):
        corrupt_path(path)
        count += 1
    return count


class ClusterFaultInjector:
    """Drives a :class:`ClusterFaultPlan` against a live fleet.

    ``cluster`` duck-types :class:`repro.service.cluster.ClusterHandle`
    (``shard_pid`` / ``kill_shard`` / ``hold_respawn`` / ``cache_dir``)
    so this module never imports the service layer.  :meth:`run`
    blocks — callers drive it on its own thread next to the load —
    firing faults in ``at`` order; a stall holds the injector for its
    ``duration`` (SIGSTOP … SIGCONT), everything else returns
    immediately.  Every fault fired lands on :attr:`fired` as
    ``(kind, shard, elapsed_seconds)``.
    """

    def __init__(self, plan: ClusterFaultPlan) -> None:
        self.plan = plan
        self.fired: list[tuple[str, int, float]] = []

    def run(self, cluster: Any) -> None:
        start = time.monotonic()
        for fault in self.plan.faults:
            delay = start + fault.at - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            self._fire(fault, cluster)
            self.fired.append(
                (fault.kind, fault.shard, time.monotonic() - start)
            )

    def _fire(self, fault: ClusterFault, cluster: Any) -> None:
        if fault.kind == KIND_WORKER_KILL:
            cluster.kill_shard(fault.shard)
        elif fault.kind == KIND_WORKER_STALL:
            self._stall(fault, cluster)
        elif fault.kind == KIND_WORKER_REFUSE:
            # Hold the respawn first so the slot's port refuses
            # connections for the whole window after the kill.
            cluster.hold_respawn(fault.shard, fault.duration)
            cluster.kill_shard(fault.shard)
        elif fault.kind == KIND_SHARED_CACHE_CORRUPT:
            corrupt_shared_cache(cluster.cache_dir)
        else:  # crash-loop
            self._crash_loop(fault, cluster)

    def _stall(self, fault: ClusterFault, cluster: Any) -> None:
        pid = cluster.shard_pid(fault.shard)
        if pid is None:
            return
        try:
            os.kill(pid, signal_mod.SIGSTOP)
        except ProcessLookupError:
            return
        try:
            time.sleep(fault.duration)
        finally:
            try:
                os.kill(pid, signal_mod.SIGCONT)
            except ProcessLookupError:
                pass

    def _crash_loop(self, fault: ClusterFault, cluster: Any) -> None:
        """Kill the slot's next ``count`` incarnations as each comes
        up — the signature a crash-looping binary leaves, and what the
        slot's flap breaker exists to dampen.  Stops early once the
        breaker pauses respawns for longer than ``duration``."""
        last_pid: int | None = None
        for _ in range(fault.count):
            pid = self._await_incarnation(
                cluster, fault.shard, last_pid, fault.duration
            )
            if pid is None:
                return  # respawns paused (flap breaker) — goal reached
            try:
                os.kill(pid, signal_mod.SIGKILL)
            except ProcessLookupError:
                pass
            last_pid = pid

    @staticmethod
    def _await_incarnation(
        cluster: Any, shard: int, last_pid: int | None, budget: float
    ) -> int | None:
        """First pid of the slot that differs from ``last_pid``."""
        deadline = time.monotonic() + budget
        while time.monotonic() < deadline:
            pid = cluster.shard_pid(shard)
            if pid is not None and pid != last_pid:
                return pid
            time.sleep(0.02)
        return None
