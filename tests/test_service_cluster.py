"""The sharded multi-worker cluster: routing, identity, resilience.

Four fleet-level contracts from the PR-7 tentpole:

* **byte identity** — any worker, asked the same canonical request,
  returns the same encoded result (solves are pure, so sharding is an
  optimization, never a semantic);
* **stable shard routing** — the consistent-hash ring is keyed by
  shard *index*, so a respawned worker (new pid, new port) inherits
  exactly the keys its predecessor owned;
* **shared disk cache** — two workers writing the same entries through
  the ``.tmp-<pid>`` + rename protocol never corrupt the store nor
  leave droppings behind;
* **metrics federation** — the router's ``/metrics`` page carries every
  worker's samples, each labeled with its shard.
"""

from __future__ import annotations

import gc
import json
import logging
import os
import signal
import socket
import time
from concurrent.futures import ThreadPoolExecutor
from http.client import HTTPConnection

import pytest

pytestmark = pytest.mark.service  # spawns worker processes

from repro.api import SolveRequest, solve
from repro.core.traffic import TrafficClass
from repro.exceptions import ConfigurationError
from repro.service import (
    ClusterConfig,
    ServiceClient,
    ServiceConfig,
    start_cluster_in_thread,
)
from repro.service.protocol import encode_result
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
    """Canonical solution bytes: the encoded result minus provenance
    (``from_cache`` says where a worker got the answer, not what the
    answer is — it differs between a warmed owner and a cold peer)."""
    record = dict(fragment)
    record.pop("from_cache", None)
    return json.dumps(record, sort_keys=True)


def wire_solve(
    host: str, port: int, request: SolveRequest
) -> tuple[int, int | None, dict]:
    """One raw /solve round-trip returning (status, shard, envelope)."""
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
        return (
            response.status,
            int(shard) if shard is not None else None,
            json.loads(raw.decode()),
        )
    finally:
        connection.close()


def read_raw_reply(sock: socket.socket) -> tuple[bytes, dict[str, str], bytes]:
    """One HTTP reply off a raw socket: (status line, headers, body)."""
    raw = b""
    while b"\r\n\r\n" not in raw:
        chunk = sock.recv(4096)
        if not chunk:
            break
        raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    while len(body) < length:
        chunk = sock.recv(4096)
        if not chunk:
            break
        body += chunk
    return status_line.encode("latin-1"), headers, body


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("fleet-cache")
    config = ServiceConfig(
        port=0,
        cluster=ClusterConfig(workers=2, cache_dir=str(cache_dir)),
    )
    with start_cluster_in_thread(config) as handle:
        yield handle, cache_dir


@pytest.fixture(scope="module")
def shard_map(cluster):
    handle, _ = cluster
    client = ServiceClient(*handle.address)
    chart = client.cluster_map()
    assert chart is not None and chart["strategy"] == "hash"
    return chart


def test_cluster_map_reports_the_fleet(shard_map):
    assert shard_map["workers"] == 2
    shards = {entry["shard"]: entry for entry in shard_map["shards"]}
    assert sorted(shards) == [0, 1]
    assert all(entry["alive"] for entry in shards.values())
    assert len({entry["pid"] for entry in shards.values()}) == 2
    assert len({entry["port"] for entry in shards.values()}) == 2


def test_router_routes_by_canonical_key(cluster, shard_map):
    handle, _ = cluster
    ring = HashRing(
        shard_map["workers"], shard_map["hash_replicas"]
    )
    for request in REQUESTS:
        status, shard, _ = wire_solve(*handle.address, request)
        assert status == 200
        assert shard == ring.shard_for(request.cache_key)
        # Repeat solves of the same key stay on the same shard.
        _, again, _ = wire_solve(*handle.address, request)
        assert again == shard


def test_cross_worker_byte_identity(cluster, shard_map):
    """Every worker answers every request with identical result bytes,
    and those bytes match a local in-process solve."""
    workers = [
        (entry["host"], entry["port"]) for entry in shard_map["shards"]
    ]
    for request in REQUESTS:
        local = solve(request)
        fragments = set()
        for address in workers:
            status, _, envelope = wire_solve(*address, request)
            assert status == 200
            fragments.add(solution_bytes(envelope["result"]))
            from repro.service.protocol import decode_result

            assert decode_result(envelope["result"]) == local
        assert len(fragments) == 1, "workers disagreed on result bytes"


def test_shared_disk_cache_survives_concurrent_writers(
    cluster, shard_map
):
    """Both workers hammer the same fresh keys; the shared store ends
    up consistent with no temp-file droppings."""
    handle, cache_dir = cluster
    workers = [
        (entry["host"], entry["port"]) for entry in shard_map["shards"]
    ]
    fresh = [
        SolveRequest.square(
            n, [TrafficClass.poisson(0.003, name="burst")]
        )
        for n in (8, 9, 10, 11)
    ]
    with ThreadPoolExecutor(max_workers=8) as pool:
        futures = [
            pool.submit(wire_solve, *address, request)
            for request in fresh
            for address in workers
            for _ in range(2)
        ]
        outcomes = [f.result(60.0) for f in futures]
    assert all(status == 200 for status, _, _ in outcomes)
    by_key: dict[str, set[str]] = {}
    for (status, _, envelope), request in zip(
        outcomes, [r for r in fresh for _ in range(4)]
    ):
        by_key.setdefault(request.cache_key, set()).add(
            solution_bytes(envelope["result"])
        )
    assert all(len(values) == 1 for values in by_key.values())
    leftovers = [
        name for name in os.listdir(cache_dir) if ".tmp" in name
    ]
    assert leftovers == [], f"temp droppings in shared cache: {leftovers}"
    assert any(cache_dir.iterdir()), "shared disk cache stayed empty"


def test_metrics_federation_labels_every_shard(cluster):
    handle, _ = cluster
    page = ServiceClient(*handle.address).metrics()
    assert 'shard="0"' in page
    assert 'shard="1"' in page
    assert "repro_cluster_proxied_total" in page
    # Worker pages merged: the core serving series survived federation.
    assert "repro_service_requests_total" in page


def test_healthz_aggregates_workers(cluster):
    handle, _ = cluster
    health = ServiceClient(*handle.address).health()
    assert health["status"] in ("ok", "degraded")
    assert len(health["workers"]) == 2
    assert all(
        entry["alive"] and entry["status"] == "ok"
        for entry in health["workers"]
    )


def test_client_hedges_to_a_different_shard(cluster, shard_map):
    handle, _ = cluster
    client = ServiceClient(*handle.address)
    ring = HashRing(
        shard_map["workers"], shard_map["hash_replicas"]
    )
    shards = {
        entry["shard"]: (entry["host"], entry["port"])
        for entry in shard_map["shards"]
    }
    for request in REQUESTS:
        owner = ring.shard_for(request.cache_key)
        hedge = client._hedge_address(request.cache_key)
        assert hedge is not None
        assert hedge != shards[owner]
        assert hedge in shards.values()


def test_respawned_worker_inherits_its_shard(tmp_path):
    """Kill a worker; the supervisor respawns the shard slot and the
    ring keeps routing its keys there (virtual nodes are keyed by
    shard index, not by pid or port)."""
    config = ServiceConfig(
        port=0,
        cluster=ClusterConfig(
            workers=2, health_interval=0.1, cache_dir=str(tmp_path)
        ),
    )
    with start_cluster_in_thread(config) as handle:
        client = ServiceClient(*handle.address)
        before = client.cluster_map()
        ring = HashRing(before["workers"], before["hash_replicas"])
        request = REQUESTS[0]
        owner = ring.shard_for(request.cache_key)
        status, shard, envelope = wire_solve(*handle.address, request)
        assert (status, shard) == (200, owner)
        expected = solution_bytes(envelope["result"])

        victim = next(
            entry for entry in before["shards"]
            if entry["shard"] == owner
        )
        os.kill(victim["pid"], signal.SIGKILL)

        deadline = time.monotonic() + 60.0
        while True:
            chart = client.cluster_map(refresh=True)
            entry = next(
                e for e in chart["shards"] if e["shard"] == owner
            )
            if (
                entry["alive"]
                and entry["pid"] != victim["pid"]
                and entry["port"]
            ):
                break
            assert time.monotonic() < deadline, "respawn timed out"
            time.sleep(0.1)
        assert entry["respawns"] == 1

        status, shard, envelope = wire_solve(*handle.address, request)
        assert (status, shard) == (200, owner)
        assert solution_bytes(envelope["result"]) == expected


def test_router_cuts_off_a_slow_loris_within_the_read_bound():
    """The router's inbound reads carry the same per-connection read
    deadline as a worker's: a stalled head or body gets a 408 within
    the bound, and the fleet keeps serving."""
    config = ServiceConfig(
        port=0, read_timeout=0.2, cluster=ClusterConfig(workers=1)
    )
    stalls = {
        "head": b"POST /solve HTTP/1.1\r\n",
        "body": (b"POST /solve HTTP/1.1\r\nContent-Length: 100\r\n\r\n"
                 + b"{" * 10),
    }
    with start_cluster_in_thread(config) as handle:
        for what, partial in stalls.items():
            began = time.monotonic()
            with socket.create_connection(handle.address, timeout=5.0) \
                    as sock:
                sock.sendall(partial)
                status, headers, body = read_raw_reply(sock)
            elapsed = time.monotonic() - began
            assert b" 408 " in status, (what, status)
            # The router answered (a worker's reply carries X-Shard).
            assert "x-shard" not in headers
            assert 0.15 <= elapsed < 3.0, (what, elapsed)
            envelope = json.loads(body)
            assert envelope["error"]["kind"] == "slow_client", envelope
            assert headers["x-request-id"] == envelope["id"]
        status, _, envelope = wire_solve(*handle.address, REQUESTS[0])
        assert status == 200
        assert solution_bytes(envelope["result"]) == solution_bytes(
            encode_result(solve(REQUESTS[0]))
        )


def test_router_get_routes_refuse_other_methods(cluster):
    """The router's own routes answer a wrong method as a daemon does:
    405 with ``Allow: GET``."""
    handle, _ = cluster
    for path in ("/healthz", "/metrics", "/cluster"):
        connection = HTTPConnection(*handle.address, timeout=30.0)
        try:
            connection.request("POST", path, body=b"{}")
            response = connection.getresponse()
            envelope = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 405, path
        assert response.getheader("Allow") == "GET"
        assert envelope["error"]["kind"] == "method_not_allowed"
        assert response.getheader("X-Request-Id") == envelope["id"]


def test_router_stop_leaves_no_connection_handler_pending(caplog):
    """``stop`` waits until every router connection handler has
    unwound: keep-alive sockets left open across it must not leave the
    loop to close under a suspended handler, which asyncio reports as
    "Task was destroyed but it is pending!"."""
    config = ServiceConfig(port=0, cluster=ClusterConfig(workers=1))
    body = json.dumps({"request": REQUESTS[0].to_dict()}).encode()
    exchange = (
        b"POST /solve HTTP/1.1\r\nContent-Type: application/json\r\n"
        b"Content-Length: %d\r\n\r\n" % len(body)
    ) + body
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        for _ in range(10):
            sockets = []
            try:
                with start_cluster_in_thread(config) as handle:
                    for _ in range(3):
                        sock = socket.create_connection(
                            handle.address, timeout=30.0
                        )
                        sockets.append(sock)
                        sock.sendall(exchange)
                        status, _, _ = read_raw_reply(sock)
                        assert b" 200 " in status
                gc.collect()
            finally:
                for sock in sockets:
                    sock.close()
    pending = [
        r for r in caplog.records
        if r.name == "asyncio" and "destroyed but it is pending" in
        r.getMessage()
    ]
    assert pending == []


def test_full_route_memo_is_refilled_not_frozen(monkeypatch):
    """The router's body -> shard memo holding 4096 entries is cleared
    before the next insert: a new body routed twice is decoded once."""
    import repro.service.cluster as cluster_module

    decoded: list[int] = []
    real_decode = cluster_module.decode_request

    def counting_decode(payload):
        decoded.append(1)
        return real_decode(payload)

    monkeypatch.setattr(cluster_module, "decode_request", counting_decode)
    supervisor = cluster_module.ClusterSupervisor(
        ServiceConfig(port=0, cluster=ClusterConfig(workers=2))
    )
    for i in range(4096):  # 4096 distinct bodies seen
        supervisor._route_cache[b"filler-%d" % i] = (0, 1)
    body = json.dumps({"request": REQUESTS[0].to_dict()}).encode()
    first = supervisor._shard_for_body("/solve", body)
    assert supervisor._shard_for_body("/solve", body) == first
    assert first == supervisor.ring.preference(REQUESTS[0].cache_key)
    assert decoded == [1]  # the second sighting hit the memo
    assert list(supervisor._route_cache) == [body]


def sweep_body(index: int, sizes=(4, 5, 6, 7), reverse: bool = False) -> bytes:
    """A /batch body: one fresh two-class mix over ``sizes``."""
    classes = [
        TrafficClass.poisson(0.001 + 0.0001 * index, name="data"),
        TrafficClass(alpha=0.0005, beta=0.0002, a=2, name="video"),
    ]
    if reverse:
        classes.reverse()
    return json.dumps({"requests": [
        SolveRequest.square(n, classes).to_dict() for n in sizes
    ]}).encode()


def test_batch_routes_are_not_memoized(cluster):
    """A sweep body is ~25 times a point's and rarely repeats: 40
    distinct sweeps through the router leave none in its route memo."""
    handle, _ = cluster
    client = ServiceClient(*handle.address)
    for index in range(40):
        requests = [
            SolveRequest.from_dict(record)
            for record in json.loads(sweep_body(index))["requests"]
        ]
        for request, result in zip(requests, client.solve_many(requests)):
            assert result == solve(request)
    memo = handle.supervisor._route_cache
    assert not [body for body in memo if b'"requests"' in body]


def test_batch_routes_by_its_first_member_as_before():
    """Routing decodes only the first member, and lands where decoding
    the whole batch and taking its first member's key did."""
    from repro.service.cluster import ClusterSupervisor
    from repro.service.protocol import decode_request_list

    supervisor = ClusterSupervisor(
        ServiceConfig(port=0, cluster=ClusterConfig(workers=4))
    )
    bodies = [sweep_body(i) for i in range(24)] + [
        sweep_body(i, sizes=(9, 4), reverse=True) for i in range(24)
    ]
    for body in bodies:
        first = decode_request_list(json.loads(body))[0]
        assert supervisor._shard_for_body("/batch", body) == \
            supervisor.ring.preference(first.cache_key)
    assert supervisor._route_cache == {}


def test_batch_with_a_malformed_later_member_gets_the_worker_400(cluster):
    from repro.service.protocol import decode_request

    handle, _ = cluster
    records = json.loads(sweep_body(99))["requests"]
    bad = {k: v for k, v in records[-1].items() if k != "n2"}
    with pytest.raises(ConfigurationError) as alone:
        decode_request(bad)
    connection = HTTPConnection(*handle.address, timeout=30.0)
    try:
        connection.request(
            "POST", "/batch",
            body=json.dumps({"requests": records + [bad]}).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        payload = json.loads(response.read().decode())
        shard = response.getheader("X-Shard")
    finally:
        connection.close()
    assert response.status == 400
    assert shard is not None  # answered by a worker, not the router
    assert payload["error"] == {
        "kind": "bad_request", "message": str(alone.value),
    }
