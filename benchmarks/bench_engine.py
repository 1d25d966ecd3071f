"""Benchmark the batched evaluation engine against point-by-point solves.

Three checks, all asserted (the script exits non-zero on failure) and
all recorded in ``BENCH_engine.json``:

1. **Sweep speedup** — a square size sweep (two BPP classes, Algorithm
   1) through ``BatchSolver.evaluate_many`` must beat solving each size
   independently, with *numerically identical* per-class blocking and
   concurrency.  The batch needs one Q-grid at the largest size; the
   point-by-point loop pays ``O(n^2 R)`` per size.
2. **Robust availability hit-rate** — the availability-weighted
   degraded-mode analysis on a 16-port switch followed by three failure
   masks and a second availability pass must serve more than half of
   its engine lookups from cache (mask cells share degraded shapes).
3. **Second-pass hit-rate** — re-evaluating the sweep batch on the same
   engine must be pure cache hits (nonzero hit-rate, zero solves).

A fourth section, **service**, drives the solve-serving daemon
(``repro.service``) over its real JSON/HTTP wire at 1, 8 and 64
concurrent clients and records throughput plus p50/p99 latency per
level and the overall coalesce hit-rate (asserted: every sampled wire
result equals the local solve; the timings are recorded for trend
tracking).

A fifth section, **service_cluster**, boots a 4-worker sharded fleet
and drives it with the ``repro.loadgen`` harness (client-side direct
sharding, 256 closed-loop users).  Asserted: byte-identical results
from every worker, best-of-3 throughput at least 3x the single-worker
service section, measured Poisson 503 blocking within 0.13 of the
offered-load-weighted Erlang-B prediction, and bursty traffic
(``burst_mean=3``) blocking strictly above the Poisson run — the
source paper's central claim, re-proved on the serving tier.

A sixth section, **cluster_failover**, measures the self-healing
fleet: kill one worker of a two-shard fleet and record how long its
keyspace spends failing over (recovery time, failover count, the
share of failover replies served from the shared cache — the
cache-locality cost of the detour), then hold one worker of a
4-shard fleet dead and offer open-loop Poisson traffic through the
router.  Asserted: the measured fleet blocking lands within 0.1 of
the availability-weighted Erlang-B prediction
(``B(c, (rate/(W-d)) * H)`` — the paper's loss model applied to the
shrunken fleet).

Run ``python benchmarks/bench_engine.py --quick`` for the CI-sized
variant.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.api import SolveRequest
from repro.core.convolution import solve_convolution
from repro.core.state import SwitchDimensions
from repro.core.traffic import TrafficClass
from repro.engine import BatchSolver, EngineConfig, get_default_engine
from repro.robust import FailureMask, availability_weighted_measures, solve_degraded

#: Two size-independent per-pair BPP classes (Poisson + peaky Pascal),
#: light enough to be admissible on every sweep size.
SWEEP_CLASSES = (
    TrafficClass.poisson(0.002, name="data"),
    TrafficClass(alpha=0.001, beta=0.0005, name="video"),
)


def bench_sweep(n_lo: int, n_hi: int, min_speedup: float) -> dict:
    """Batched vs point-by-point size sweep; asserts identity + speedup."""
    sizes = list(range(n_lo, n_hi + 1))
    requests = [SolveRequest.square(n, SWEEP_CLASSES) for n in sizes]

    began = time.perf_counter()
    baseline = [
        solve_convolution(SwitchDimensions.square(n), SWEEP_CLASSES)
        for n in sizes
    ]
    baseline_elapsed = time.perf_counter() - began

    engine = BatchSolver(EngineConfig())
    began = time.perf_counter()
    results = engine.evaluate_many(requests)
    batch_elapsed = time.perf_counter() - began

    for n, result, direct in zip(sizes, results, baseline):
        expect_b = tuple(direct.blocking(r) for r in range(len(SWEEP_CLASSES)))
        expect_e = tuple(
            direct.concurrency(r) for r in range(len(SWEEP_CLASSES))
        )
        assert result.blocking == expect_b, (
            f"N={n}: batched blocking {result.blocking} != point solve "
            f"{expect_b}"
        )
        assert result.concurrency == expect_e, (
            f"N={n}: batched concurrency {result.concurrency} != point "
            f"solve {expect_e}"
        )

    speedup = baseline_elapsed / batch_elapsed if batch_elapsed > 0 else float("inf")
    assert speedup >= min_speedup, (
        f"sweep speedup {speedup:.2f}x below the {min_speedup:g}x floor "
        f"(baseline {baseline_elapsed:.4f}s, batch {batch_elapsed:.4f}s)"
    )

    # Second pass on the same engine: everything must come from cache.
    second = engine.evaluate_many(requests)
    metrics = engine.last_metrics
    assert metrics is not None
    assert metrics.hit_rate > 0.0, "second pass recorded no cache hits"
    assert metrics.solved == 0, "second pass re-solved cached requests"
    assert [s.blocking for s in second] == [r.blocking for r in results]

    return {
        "sizes": [n_lo, n_hi],
        "points": len(sizes),
        "baseline_seconds": baseline_elapsed,
        "batch_seconds": batch_elapsed,
        "speedup": speedup,
        "min_speedup": min_speedup,
        "identical": True,
        "first_pass": engine_first_pass_metrics(results),
        "second_pass": metrics.to_dict(),
    }


def engine_first_pass_metrics(results) -> dict:
    return {
        "from_cache": sum(r.from_cache for r in results),
        "total": len(results),
    }


def bench_robust_availability() -> dict:
    """Availability-weighted + 3-mask scenario on 16 ports; >50% hits."""
    dims = SwitchDimensions.square(16)
    classes = (
        TrafficClass.poisson(0.01, name="data"),
        TrafficClass(alpha=0.004, beta=0.002, name="video"),
    )
    masks = (
        FailureMask.from_ports([0], []),
        FailureMask.from_ports([0, 5], [3]),
        FailureMask.from_ports([], [1, 9]),
    )

    # The analyses share the library's default engine: count only what
    # this scenario adds to it, starting from empty memos.
    engine = get_default_engine()
    engine.clear()
    before = engine.stats.snapshot()
    began = time.perf_counter()
    availability_weighted_measures(dims, classes, 0.98, routing="reroute")
    for mask in masks:
        solve_degraded(dims, classes, mask, routing="reroute")
    availability_weighted_measures(dims, classes, 0.98, routing="reroute")
    elapsed = time.perf_counter() - began

    after = engine.stats.snapshot()
    stats = {k: after[k] - before[k] for k in before if k != "hit_rate"}
    stats["hit_rate"] = (
        (stats["memory_hits"] + stats["disk_hits"]) / stats["lookups"]
        if stats["lookups"] else 0.0
    )
    assert stats["hit_rate"] > 0.5, (
        f"availability-weighted cache hit-rate {stats['hit_rate']:.3f} "
        "did not exceed 50%"
    )
    return {
        "dims": [dims.n1, dims.n2],
        "masks": len(masks),
        "elapsed_seconds": elapsed,
        **stats,
    }


def bench_service(n_requests: int) -> dict:
    """The daemon under 1/8/64 concurrent clients, real wire included.

    Requests rotate over four distinct warmed models, so the numbers
    measure the service path (framing, gate, coalescing, batching)
    rather than solve time — which is exactly the overhead a deployer
    wants to know.  Byte identity with local solves is asserted;
    throughput and latency are recorded.
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro.api import solve
    from repro.service import ServiceClient, ServiceConfig, start_in_thread

    pool_requests = [
        SolveRequest.square(n, SWEEP_CLASSES) for n in (4, 6, 8, 10)
    ]
    local = {r.cache_key: solve(r) for r in pool_requests}

    handle = start_in_thread(
        ServiceConfig(port=0, gate_capacity=256, batch_window=0.001),
        engine=BatchSolver(EngineConfig()),
    )
    try:
        client = ServiceClient(*handle.address)
        for request in pool_requests:  # warm the daemon's engine
            result = client.solve(request)
            assert result == local[request.cache_key], (
                f"wire result diverged from local solve for {request.dims}"
            )

        def one_call(index: int) -> float:
            request = pool_requests[index % len(pool_requests)]
            began = time.perf_counter()
            result = client.solve(request)
            elapsed = time.perf_counter() - began
            assert result == local[request.cache_key]
            return elapsed

        def percentile(sorted_values: list[float], q: float) -> float:
            index = min(len(sorted_values) - 1,
                        int(q * (len(sorted_values) - 1) + 0.5))
            return sorted_values[index]

        levels = {}
        for clients in (1, 8, 64):
            with ThreadPoolExecutor(max_workers=clients) as executor:
                began = time.perf_counter()
                latencies = sorted(
                    executor.map(one_call, range(n_requests))
                )
                elapsed = time.perf_counter() - began
            levels[str(clients)] = {
                "clients": clients,
                "requests": n_requests,
                "throughput_rps": n_requests / elapsed,
                "p50_ms": percentile(latencies, 0.50) * 1e3,
                "p99_ms": percentile(latencies, 0.99) * 1e3,
            }

        flights = handle.service.flights
        attempts = flights.hits + flights.leaders
        coalesce_hit_rate = flights.hits / attempts if attempts else 0.0
        gate = handle.service.gate.snapshot()
        assert gate.rejected == 0, "benchmark gate unexpectedly rejected"
    finally:
        handle.stop()

    return {
        "models": len(pool_requests),
        "levels": levels,
        "coalesce_hits": flights.hits,
        "coalesce_leaders": flights.leaders,
        "coalesce_hit_rate": coalesce_hit_rate,
        "identical": True,
    }


def bench_service_cluster(single_worker_rps: float) -> dict:
    """The 4-worker sharded fleet vs one daemon, plus the loss-system leg.

    Throughput: 256 closed-loop users from one generator process drive
    the workers directly (client-side hash sharding); best of three
    4-second trials, each preceded by a 2-second settle so teardown
    work from the previous trial cannot bleed in.  The floor is 3x the
    single-worker service section's 64-client figure.

    Blocking: a second fleet is squeezed into a real loss system
    (2 admission tokens, 50 ms minimum hold) and offered open-loop
    traffic.  Pure Poisson arrivals must land within 0.13 of the
    per-shard Erlang-B prediction; geometric batches of mean 3 must
    block strictly more — the paper's bursty-traffic effect, measured
    on the serving tier instead of the crossbar.
    """
    import http.client
    import tempfile

    from repro.api import solve
    from repro.loadgen import LoadSpec, expected_fleet_blocking, run_load
    from repro.service import (
        ClusterConfig,
        ServiceConfig,
        start_cluster_in_thread,
    )
    from repro.service.protocol import decode_result

    pool_requests = [
        SolveRequest.square(n, SWEEP_CLASSES) for n in (4, 6, 8, 10)
    ]
    local = {r.cache_key: solve(r) for r in pool_requests}
    workers = 4

    def wire_result(address: tuple[str, int], request) -> tuple[str, object]:
        """(canonical solution bytes, decoded result) from one worker.

        ``from_cache`` is provenance (warmed owner vs cold peer), not
        part of the answer, so it is stripped before comparing bytes.
        """
        connection = http.client.HTTPConnection(*address, timeout=30.0)
        try:
            connection.request(
                "POST", "/solve",
                body=json.dumps({"request": request.to_dict()}).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            envelope = json.loads(response.read().decode())
            assert response.status == 200, envelope
        finally:
            connection.close()
        fragment = dict(envelope["result"])
        fragment.pop("from_cache", None)
        return (
            json.dumps(fragment, sort_keys=True),
            decode_result(envelope["result"]),
        )

    with tempfile.TemporaryDirectory(prefix="bench-fleet-") as cache_dir:
        config = ServiceConfig(
            port=0, gate_capacity=256, batch_window=0.001,
            cluster=ClusterConfig(workers=workers, cache_dir=cache_dir),
        )
        with start_cluster_in_thread(config) as handle:
            from repro.service import ServiceClient

            chart = ServiceClient(*handle.address).cluster_map()
            assert chart is not None and chart["workers"] == workers
            addresses = [
                (entry["host"], entry["port"])
                for entry in chart["shards"]
            ]

            # Byte identity across the whole fleet (also warms every
            # worker's cache for every key in the mix).
            for request in pool_requests:
                fragments = set()
                for address in addresses:
                    payload, decoded = wire_result(address, request)
                    fragments.add(payload)
                    assert decoded == local[request.cache_key], (
                        f"worker {address} diverged from the local solve"
                    )
                assert len(fragments) == 1, (
                    f"workers disagreed on result bytes for {request.dims}"
                )

            spec = LoadSpec(
                generators=1, connections=256, duration=4.0,
                mode="closed", sizes=(4, 6, 8, 10), warmup=2,
            )
            trials = []
            best = None
            for _ in range(3):
                time.sleep(2.0)  # let the previous trial's teardown drain
                report = run_load(spec, *handle.address)
                assert report.errors == 0 and report.completed > 0
                trials.append(report.throughput_rps)
                if best is None or report.throughput_rps > best.throughput_rps:
                    best = report

    speedup = (
        best.throughput_rps / single_worker_rps
        if single_worker_rps > 0 else float("inf")
    )
    assert speedup >= 3.0, (
        f"4-worker fleet at {best.throughput_rps:.0f} req/s is only "
        f"{speedup:.2f}x the single worker ({single_worker_rps:.0f} "
        "req/s); the floor is 3x"
    )

    # -- the loss-system leg: Erlang-B fidelity, then burstiness ------
    servers, hold = 2, 0.05
    loss_config = ServiceConfig(
        port=0, gate_capacity=servers, point_weight=1.0,
        min_hold=hold, batch_window=0.001,
        cluster=ClusterConfig(workers=workers),
    )
    loss_spec = LoadSpec(
        generators=2, connections=256, duration=10.0, mode="open",
        rate=160.0, sizes=tuple(range(3, 15)), warmup=2,
    )
    blocking = {}
    for burst_mean in (1.0, 3.0):
        with start_cluster_in_thread(loss_config) as handle:
            import dataclasses

            report = run_load(
                dataclasses.replace(loss_spec, burst_mean=burst_mean),
                *handle.address,
            )
        assert report.errors == 0
        blocking[burst_mean] = {
            "burst_mean": burst_mean,
            "offered": report.offered,
            "measured": report.blocking_measured,
            "expected_erlang_b": expected_fleet_blocking(
                report, servers=servers, hold_s=hold
            ),
        }

    tolerance = 0.13
    poisson = blocking[1.0]
    delta = abs(poisson["measured"] - poisson["expected_erlang_b"])
    assert delta <= tolerance, (
        f"Poisson fleet blocking {poisson['measured']:.3f} is "
        f"{delta:.3f} from the Erlang-B prediction "
        f"{poisson['expected_erlang_b']:.3f} (tolerance {tolerance})"
    )
    bursty = blocking[3.0]
    assert bursty["measured"] > poisson["measured"], (
        f"bursty blocking {bursty['measured']:.3f} did not exceed the "
        f"Poisson run's {poisson['measured']:.3f} — the paper's effect "
        "should survive the serving tier"
    )

    return {
        "workers": workers,
        "throughput": {
            "connections": spec.connections,
            "trial_rps": trials,
            "best_rps": best.throughput_rps,
            "single_worker_rps": single_worker_rps,
            "speedup": speedup,
            "min_speedup": 3.0,
            "p50_ms": best.latency_ms(0.50),
            "p99_ms": best.latency_ms(0.99),
            "per_shard": {
                str(shard): dict(counts)
                for shard, counts in sorted(best.per_shard.items())
            },
        },
        "blocking": {
            "servers_per_shard": servers,
            "hold_s": hold,
            "tolerance": tolerance,
            "poisson": {**poisson, "delta": delta},
            "bursty": bursty,
            "bursty_exceeds_poisson": True,
        },
        "identical": True,
    }


def bench_cluster_failover(quick: bool) -> dict:
    """Self-healing fleet: recovery time, failover cost, degraded loss.

    **Recovery leg** — on a two-shard fleet, SIGKILL the worker owning
    a warmed key and probe that key continuously: every probe must
    answer 200 (failing over to the peer while the slot respawns), and
    the leg records how long the keyspace spent detoured, how many
    replies failed over, and what fraction of them the peer served
    from the shared disk cache (the cache-locality cost of failover —
    a shared store keeps it near zero).

    **Degraded-blocking leg** — the acceptance check: a 4-worker loss
    fleet (2 tokens, 50 ms hold per shard, brownout off for clean
    math) with one worker held dead (``max_respawns=0``) is offered
    open-loop Poisson traffic through the router.  Failover
    concentrates the stream on the 3 survivors, so measured blocking
    must land within 0.1 of ``B(2, (rate/3) * H)`` — the
    availability-weighted Erlang-B prediction.
    """
    import http.client
    import tempfile

    from repro.loadgen import (
        LoadSpec,
        availability_weighted_blocking,
        run_load,
    )
    from repro.service import (
        BrownoutConfig,
        ClusterConfig,
        ServiceClient,
        ServiceConfig,
        start_cluster_in_thread,
    )
    from repro.service.sharding import HashRing

    request = SolveRequest.square(6, SWEEP_CLASSES)

    def probe(address: tuple[str, int]) -> tuple[int, int | None,
                                                 int | None, bool]:
        connection = http.client.HTTPConnection(*address, timeout=30.0)
        try:
            connection.request(
                "POST", "/solve",
                body=json.dumps({"request": request.to_dict()}).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            envelope = json.loads(response.read().decode())
            shard = response.getheader("X-Shard")
            failover = response.getheader("X-Shard-Failover")
            return (
                response.status,
                int(shard) if shard is not None else None,
                int(failover) if failover is not None else None,
                bool(envelope.get("result", {}).get("from_cache")),
            )
        finally:
            connection.close()

    # -- recovery leg -------------------------------------------------
    with tempfile.TemporaryDirectory(prefix="bench-failover-") as cache:
        config = ServiceConfig(
            port=0, batch_window=0.001,
            cluster=ClusterConfig(
                workers=2, cache_dir=cache, health_interval=0.05,
                respawn_backoff_base=0.1,
            ),
        )
        with start_cluster_in_thread(config) as handle:
            client = ServiceClient(*handle.address)
            chart = client.cluster_map()
            ring = HashRing(chart["workers"], chart["hash_replicas"])
            owner = ring.shard_for(request.cache_key)
            status, shard, _, _ = probe(handle.address)
            assert (status, shard) == (200, owner)

            killed_at = time.monotonic()
            assert handle.kill_shard(owner)
            probes = 0
            failovers = 0
            failover_hits = 0
            recovery_s = None
            deadline = killed_at + 60.0
            while time.monotonic() < deadline:
                status, shard, failover, from_cache = probe(
                    handle.address
                )
                probes += 1
                assert status == 200, (
                    f"probe {probes} got {status} during failover"
                )
                if failover is not None:
                    failovers += 1
                    failover_hits += 1 if from_cache else 0
                elif shard == owner:
                    recovery_s = time.monotonic() - killed_at
                    break
                time.sleep(0.02)
            assert recovery_s is not None, "owner never recovered"
            assert failovers >= 1, "the kill was never observed"

    recovery = {
        "workers": 2,
        "recovery_s": recovery_s,
        "probes": probes,
        "failover_replies": failovers,
        "failover_cache_hit_rate": (
            failover_hits / failovers if failovers else 0.0
        ),
    }

    # -- degraded-blocking leg (the acceptance criterion) -------------
    workers, dead, servers, hold = 4, 1, 2, 0.05
    tolerance = 0.10
    config = ServiceConfig(
        port=0, gate_capacity=servers, point_weight=1.0,
        min_hold=hold, batch_window=0.001,
        brownout=BrownoutConfig(enabled=False),
        cluster=ClusterConfig(
            workers=workers, health_interval=0.05, max_respawns=0,
        ),
    )
    spec = LoadSpec(
        generators=2, connections=256, duration=6.0 if quick else 10.0,
        mode="open", rate=160.0, sizes=tuple(range(3, 15)), warmup=2,
        shard_direct=False,  # through the router: failover must engage
    )
    with start_cluster_in_thread(config) as handle:
        client = ServiceClient(*handle.address)
        chart = client.cluster_map()
        victim = chart["shards"][0]["shard"]
        assert handle.kill_shard(victim)
        deadline = time.monotonic() + 30.0
        while True:  # hold the shard dead before offering load
            chart = client.cluster_map(refresh=True)
            entry = next(
                e for e in chart["shards"] if e["shard"] == victim
            )
            if entry["dead"]:
                break
            assert time.monotonic() < deadline, "death never declared"
            time.sleep(0.05)
        report = run_load(spec, *handle.address)

    assert report.errors == 0, (
        f"{report.errors} transport errors through a failing-over "
        f"router ({report.connect_refused} refused, "
        f"{report.read_errors} read)"
    )
    offered_rate = report.offered / report.duration
    predicted = availability_weighted_blocking(
        workers, dead, servers, offered_rate, hold
    )
    measured = report.blocking_measured
    delta = abs(measured - predicted)
    assert delta <= tolerance, (
        f"fleet blocking with {dead}/{workers} workers dead measured "
        f"{measured:.3f} but the availability-weighted Erlang-B "
        f"prediction is {predicted:.3f} (|delta| {delta:.3f} > "
        f"{tolerance})"
    )

    return {
        "recovery": recovery,
        "degraded_blocking": {
            "workers": workers,
            "dead": dead,
            "servers_per_shard": servers,
            "hold_s": hold,
            "offered": report.offered,
            "offered_rate": offered_rate,
            "measured": measured,
            "predicted_availability_weighted": predicted,
            "delta": delta,
            "tolerance": tolerance,
            "healthy_prediction": availability_weighted_blocking(
                workers, 0, servers, offered_rate, hold
            ),
            "no_failover_prediction": availability_weighted_blocking(
                workers, dead, servers, offered_rate, hold,
                failover=False,
            ),
        },
    }


def bench_service_degraded(n_requests: int) -> dict:
    """The daemon at every brownout stage: what degrading actually buys.

    The ladder is forced stage by stage (normal -> admission-shrink ->
    stale-cache -> fast-503) while a single-threaded
    client replays a mix of warmed models, cold models, and a few
    1 ms-budget requests.  Per stage the section records throughput,
    p50/p99 latency, and the outcome rates — ok / degraded-hit / 503 /
    504 — so a deployer can read off what each shed stage costs and
    what it protects.
    """
    import threading

    from repro.api import solve
    from repro.service import (
        AdmissionRejectedError,
        DeadlineExceededError,
        ServiceClient,
        ServiceConfig,
        start_in_thread,
    )
    from repro.service.brownout import STAGE_NAMES, BrownoutConfig

    warmed = [SolveRequest.square(n, SWEEP_CLASSES) for n in (4, 6, 8)]
    local = {r.cache_key: solve(r) for r in warmed}

    handle = start_in_thread(
        ServiceConfig(
            port=0, gate_capacity=64, batch_window=0.001,
            brownout=BrownoutConfig(enabled=True, interval=60.0),
        ),
        engine=BatchSolver(EngineConfig()),
    )

    def force_stage(stage: int) -> None:
        done = threading.Event()

        def _apply() -> None:
            handle.service.brownout.force_stage(stage)
            done.set()

        handle.loop.call_soon_threadsafe(_apply)
        assert done.wait(10.0), "brownout controller did not respond"

    def percentile(sorted_values: list[float], q: float) -> float:
        index = min(len(sorted_values) - 1,
                    int(q * (len(sorted_values) - 1) + 0.5))
        return sorted_values[index]

    tiny_budget = max(2, n_requests // 8)
    stages = {}
    try:
        client = ServiceClient(*handle.address)
        for request in warmed:  # prime the cache at stage 0
            result = client.solve(request)
            assert result == local[request.cache_key]

        cold_n = 12  # distinct cold model per request, never reused
        for stage, stage_name in enumerate(STAGE_NAMES):
            force_stage(stage)
            counts = {"ok": 0, "degraded": 0, "503": 0, "504": 0}
            latencies: list[float] = []
            began_stage = time.perf_counter()
            for index in range(n_requests):
                if index < tiny_budget:
                    request = SolveRequest.square(cold_n, SWEEP_CLASSES)
                    cold_n += 1
                    budget = 1.0  # ms; blown by design
                else:
                    request = warmed[index % len(warmed)]
                    budget = None
                began = time.perf_counter()
                try:
                    envelope = client.solve_raw(
                        request, deadline_ms=budget
                    )
                except AdmissionRejectedError:
                    counts["503"] += 1
                except DeadlineExceededError:
                    counts["504"] += 1
                else:
                    if envelope.get("degraded"):
                        counts["degraded"] += 1
                    else:
                        counts["ok"] += 1
                latencies.append(time.perf_counter() - began)
            elapsed = time.perf_counter() - began_stage
            latencies.sort()
            stages[stage_name] = {
                "stage": stage,
                "requests": n_requests,
                "throughput_rps": n_requests / elapsed,
                "p50_ms": percentile(latencies, 0.50) * 1e3,
                "p99_ms": percentile(latencies, 0.99) * 1e3,
                "gate_limit": handle.service.gate.limit,
                "rate_ok": counts["ok"] / n_requests,
                "rate_degraded": counts["degraded"] / n_requests,
                "rate_503": counts["503"] / n_requests,
                "rate_504": counts["504"] / n_requests,
            }

        # The ladder's contract, as rates: full service at stage 0 (the
        # only sheds are the by-design 1 ms budgets), cache-only service
        # at stage 2, and a total fast-503 clear at stage 3.
        assert stages["normal"]["rate_ok"] > 0.0
        assert stages["normal"]["rate_degraded"] == 0.0
        assert stages["normal"]["rate_503"] == 0.0
        assert stages["normal"]["rate_504"] > 0.0  # the 1 ms budgets
        assert stages["stale-cache"]["rate_degraded"] > 0.0  # warm hits
        assert stages["stale-cache"]["rate_503"] > 0.0       # cold sheds
        assert stages["fast-503"]["rate_503"] == 1.0
        transitions = handle.service.brownout.transitions
        assert transitions >= len(STAGE_NAMES) - 1
    finally:
        handle.stop()

    return {
        "stages": stages,
        "tiny_budget_requests": tiny_budget,
        "brownout_transitions": transitions,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-sized run: smaller sweep, relaxed speedup floor",
    )
    parser.add_argument(
        "--output", default="BENCH_engine.json",
        help="where to write the JSON report (default: ./BENCH_engine.json)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        sweep = bench_sweep(4, 32, min_speedup=2.0)
    else:
        sweep = bench_sweep(4, 64, min_speedup=5.0)
    robust = bench_robust_availability()
    service = bench_service(128 if args.quick else 512)
    service_cluster = bench_service_cluster(
        service["levels"]["64"]["throughput_rps"]
    )
    service_degraded = bench_service_degraded(32 if args.quick else 96)
    cluster_failover = bench_cluster_failover(args.quick)

    report = {
        "benchmark": "engine",
        "quick": args.quick,
        "sweep": sweep,
        "robust_availability": robust,
        "service": service,
        "service_cluster": service_cluster,
        "service_degraded": service_degraded,
        "cluster_failover": cluster_failover,
    }
    # Sections written by sibling benchmarks (e.g. bench_kernels.py's
    # "kernels") live in the same file; preserve them on rewrite.
    output = Path(args.output)
    if output.exists():
        try:
            previous = json.loads(output.read_text())
        except (OSError, ValueError):
            previous = {}
        for key, value in previous.items():
            report.setdefault(key, value)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(
        f"\nsweep speedup {sweep['speedup']:.1f}x "
        f"(floor {sweep['min_speedup']:g}x); "
        f"second-pass hit-rate {sweep['second_pass']['hit_rate']:.0%}; "
        f"availability hit-rate {robust['hit_rate']:.1%}; "
        f"service {service['levels']['64']['throughput_rps']:.0f} req/s "
        f"@64 clients (p99 {service['levels']['64']['p99_ms']:.1f}ms, "
        f"coalesce {service['coalesce_hit_rate']:.0%}); "
        f"cluster x{service_cluster['workers']} "
        f"{service_cluster['throughput']['best_rps']:.0f} req/s "
        f"({service_cluster['throughput']['speedup']:.1f}x, "
        f"Erlang-B delta "
        f"{service_cluster['blocking']['poisson']['delta']:.3f}); "
        f"brownout fast-503 clears at "
        f"{service_degraded['stages']['fast-503']['throughput_rps']:.0f}"
        f" req/s; "
        f"failover recovery "
        f"{cluster_failover['recovery']['recovery_s']:.2f}s, "
        f"degraded-blocking delta "
        f"{cluster_failover['degraded_blocking']['delta']:.3f} "
        f"-> {args.output}"
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"BENCH FAILURE: {exc}", file=sys.stderr)
        sys.exit(1)
