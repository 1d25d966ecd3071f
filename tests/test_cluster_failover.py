"""Self-healing fleet: failover routing, backoff, dead-shard surface.

The PR-8 ladder, bottom to top:

* **ring preference** — every key carries a deterministic failover
  order (owner first, then its clockwise successors on the ring), so
  re-routing around a down shard is exactly the rebalance removing the
  slot from the ring would produce;
* **pool hygiene** — the router's keep-alive pools flush on worker
  death (never replay a crash against a corpse socket) and retire on
  shard death;
* **backoff** — respawn delays grow exponentially with deterministic
  per-(shard, generation) jitter, so a seeded chaos rerun sees the
  identical schedule;
* **dead shard** — ``max_respawns`` exhaustion (with
  ``max_respawns=0``, the first death) is terminal and observable
  everywhere: ``/cluster`` state, a non-200 ``/healthz``, the
  ``repro_cluster_shard_dead`` gauge — while the dead slot's keys keep
  answering through live peers with an ``X-Shard-Failover`` stamp and
  byte-identical results.
"""

from __future__ import annotations

import json
import os
import signal
import time
from http.client import HTTPConnection

import pytest

pytestmark = pytest.mark.service  # spawns worker processes

from repro.api import SolveRequest
from repro.core.traffic import TrafficClass
from repro.service import (
    ClusterConfig,
    ServiceClient,
    ServiceConfig,
    start_cluster_in_thread,
)
from repro.service.cluster import ClusterSupervisor, _WorkerPool
from repro.service.sharding import HashRing

REQUESTS = [
    SolveRequest.square(
        n,
        [
            TrafficClass.poisson(0.002, name="data"),
            TrafficClass(alpha=0.001, beta=0.0005, name="video"),
        ],
    )
    for n in (4, 5, 6, 7)
]


def solution_bytes(fragment: dict) -> str:
    record = dict(fragment)
    record.pop("from_cache", None)
    return json.dumps(record, sort_keys=True)


def wire_solve(
    host: str, port: int, request: SolveRequest
) -> tuple[int, int | None, int | None, dict]:
    """(status, shard, failed-over-from, envelope) for one /solve."""
    connection = HTTPConnection(host, port, timeout=30.0)
    try:
        connection.request(
            "POST", "/solve",
            body=json.dumps({"request": request.to_dict()}).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        raw = response.read()
        shard = response.getheader("X-Shard")
        failover = response.getheader("X-Shard-Failover")
        return (
            response.status,
            int(shard) if shard is not None else None,
            int(failover) if failover is not None else None,
            json.loads(raw.decode()),
        )
    finally:
        connection.close()


def raw_healthz(host: str, port: int) -> tuple[int, dict]:
    connection = HTTPConnection(host, port, timeout=30.0)
    try:
        connection.request("GET", "/healthz")
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode())
    finally:
        connection.close()


# ----------------------------------------------------------------------
# Ring preference
# ----------------------------------------------------------------------


def test_preference_starts_at_owner_and_covers_every_shard():
    ring = HashRing(4)
    for request in REQUESTS:
        order = ring.preference(request.cache_key)
        assert order[0] == ring.shard_for(request.cache_key)
        assert sorted(order) == [0, 1, 2, 3]


def test_preference_is_deterministic_and_single_shard_trivial():
    ring = HashRing(3)
    key = REQUESTS[0].cache_key
    assert ring.preference(key) == ring.preference(key)
    assert HashRing(1).preference(key) == (0,)


# ----------------------------------------------------------------------
# Pool hygiene (satellite: stale sockets across respawns)
# ----------------------------------------------------------------------


class _FakeWriter:
    def __init__(self) -> None:
        self.closed = False

    def is_closing(self) -> bool:
        return self.closed

    def close(self) -> None:
        self.closed = True


def test_worker_pool_flush_drops_idle_but_stays_usable():
    pool = _WorkerPool("127.0.0.1", 9)
    first, second = _FakeWriter(), _FakeWriter()
    pool.release(None, first)
    pool.release(None, second)
    pool.flush()
    assert first.closed and second.closed
    assert pool._idle == []
    third = _FakeWriter()
    pool.release(None, third)  # still pools after a flush
    assert not third.closed and len(pool._idle) == 1


def test_worker_pool_close_is_terminal():
    pool = _WorkerPool("127.0.0.1", 9)
    pooled = _FakeWriter()
    pool.release(None, pooled)
    pool.close()
    assert pooled.closed
    late = _FakeWriter()
    pool.release(None, late)  # released mid-respawn: closed, not cached
    assert late.closed and pool._idle == []


def test_worker_pool_never_caches_closing_writers():
    pool = _WorkerPool("127.0.0.1", 9)
    dying = _FakeWriter()
    dying.closed = True
    pool.release(None, dying)
    assert pool._idle == []


# ----------------------------------------------------------------------
# Respawn backoff
# ----------------------------------------------------------------------


def test_respawn_delay_is_deterministic_bounded_exponential():
    config = ServiceConfig(
        port=0,
        cluster=ClusterConfig(
            workers=2, respawn_backoff_base=0.1, respawn_backoff_cap=2.0
        ),
    )
    supervisor = ClusterSupervisor(config)
    try:
        base, cap = 0.1, 2.0
        for generation in range(8):
            delay = supervisor._respawn_delay(0, generation)
            assert delay == supervisor._respawn_delay(0, generation)
            raw = min(cap, base * 2 ** generation)
            assert raw <= delay < raw * 1.25
        # Jitter decorrelates slots felled by the same fault.
        assert (
            supervisor._respawn_delay(0, 3)
            != supervisor._respawn_delay(1, 3)
        )
    finally:
        supervisor._ready.close()


def test_cluster_config_rejects_bad_resilience_knobs():
    from repro.exceptions import ConfigurationError

    for bad in (
        {"respawn_backoff_base": 0.0},
        {"respawn_backoff_base": 1.0, "respawn_backoff_cap": 0.5},
        {"flap_window": 0.0},
        {"flap_threshold": 0},
        {"flap_cooldown": -1.0},
        {"proxy_timeout": 0.0},
    ):
        with pytest.raises(ConfigurationError):
            ClusterConfig(workers=2, **bad)
    # None disables the proxy bound (TOML/env spell it as 0).
    assert ClusterConfig(workers=2, proxy_timeout=None).proxy_timeout \
        is None


# ----------------------------------------------------------------------
# Client map refresh (satellite: stale maps after repeated failures)
# ----------------------------------------------------------------------


def test_client_refreshes_map_after_repeated_shard_failures(monkeypatch):
    client = ServiceClient("127.0.0.1", 9)
    client._cluster = {"strategy": "hash"}
    refreshes: list[bool] = []
    monkeypatch.setattr(
        client, "cluster_map",
        lambda refresh=False: refreshes.append(refresh) or {},
    )
    client._note_shard_failure(0)
    assert refreshes == [] and client.shard_failures[0] == 1
    client._note_shard_failure(0)
    assert refreshes == [True]
    assert client.map_refreshes == 1
    assert client.shard_failures[0] == 0  # counter reset after refresh
    client._note_shard_failure(1)  # other shards track independently
    assert refreshes == [True]


def test_client_never_probes_map_for_non_clusters(monkeypatch):
    client = ServiceClient("127.0.0.1", 9)
    client._cluster = False  # probed: plain daemon
    monkeypatch.setattr(
        client, "cluster_map",
        lambda refresh=False: pytest.fail("must not re-probe"),
    )
    for _ in range(5):
        client._note_shard_failure(None)


# ----------------------------------------------------------------------
# Dead shard, end to end
# ----------------------------------------------------------------------


def test_dead_shard_fails_over_and_is_surfaced_everywhere(tmp_path):
    """Kill one of two workers with no respawns left: its keys fail
    over to the peer (byte-identical, stamped), and the dead slot is
    visible on /cluster, /healthz (non-200) and the dead gauge."""
    config = ServiceConfig(
        port=0,
        cluster=ClusterConfig(
            workers=2,
            cache_dir=str(tmp_path),
            health_interval=0.05,
            max_respawns=0,
        ),
    )
    with start_cluster_in_thread(config) as handle:
        client = ServiceClient(*handle.address)
        chart = client.cluster_map()
        ring = HashRing(chart["workers"], chart["hash_replicas"])
        request = REQUESTS[0]
        owner = ring.shard_for(request.cache_key)
        peer = 1 - owner
        assert ring.preference(request.cache_key) == (owner, peer)

        status, shard, failover, envelope = wire_solve(
            *handle.address, request
        )
        assert (status, shard, failover) == (200, owner, None)
        expected = solution_bytes(envelope["result"])

        victim = next(
            entry for entry in chart["shards"]
            if entry["shard"] == owner
        )
        os.kill(victim["pid"], signal.SIGKILL)

        deadline = time.monotonic() + 30.0
        while True:
            chart = client.cluster_map(refresh=True)
            entry = next(
                e for e in chart["shards"] if e["shard"] == owner
            )
            if entry["dead"]:
                break
            assert time.monotonic() < deadline, "death never declared"
            time.sleep(0.05)

        # /cluster: first-class dead state.
        assert entry["state"] == "dead"
        assert chart["dead_shards"] == [owner]
        assert chart["failover"] is True

        # The dead slot's keys answer through the live peer,
        # byte-identically, with the detour stamped.
        status, shard, failover, envelope = wire_solve(
            *handle.address, request
        )
        assert (status, shard, failover) == (200, peer, owner)
        assert solution_bytes(envelope["result"]) == expected

        chart = client.cluster_map(refresh=True)
        entry = next(
            e for e in chart["shards"] if e["shard"] == owner
        )
        assert entry["failovers"] >= 1

        # /healthz: non-200 with the dead slot called out.
        status, payload = raw_healthz(*handle.address)
        assert status == 503
        assert payload["status"] == "degraded"
        assert payload["dead_shards"] == [owner]
        dead_entry = next(
            w for w in payload["workers"] if w["shard"] == owner
        )
        assert dead_entry["status"] == "dead"
        # One of two shards dead: survivors absorb 1/1 extra load.
        assert payload["fleet_pressure"] == pytest.approx(1.0)

        # ServiceClient.health() returns the degraded report (a 503
        # from a health probe is an answer, not a rejection).
        report = client.health()
        assert report["status"] == "degraded"
        assert report["dead_shards"] == [owner]

        # /metrics: the gauge and the failover counter.
        assert client.metric_value(
            "repro_cluster_shard_dead", shard=str(owner)
        ) == 1.0
        assert client.metric_value(
            "repro_cluster_shard_dead", shard=str(peer)
        ) == 0.0
        assert client.metric_value(
            "repro_cluster_failover_total", shard=str(owner)
        ) >= 1.0

        # The survivor sees the fleet pressure the router stamps on
        # every proxied request; brownout's "fleet" component caps it
        # at breaker_pressure (holds degraded stages, never sheds on
        # its own).
        peer_request = next(
            r for r in REQUESTS
            if ring.shard_for(r.cache_key) == peer
        )
        wire_solve(*handle.address, peer_request)
        assert client.metric_value(
            "repro_service_brownout_pressure",
            shard=str(peer), component="fleet",
        ) == pytest.approx(0.6)
