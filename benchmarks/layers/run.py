"""bench_layers: out-of-process serving benchmark, end to end and per layer.

Run from the repository root::

    python3 benchmarks/layers/run.py --workload hot-solve --seed 1 \\
        --seconds 25 --trace 0
    python3 benchmarks/layers/run.py --seed 1 --repeat 10 --out results.json

Each run starts the daemon in its own process with shipped defaults --
``python -m repro serve --port P`` from the checkout's ``src/`` --
warms it, drives it from one asyncio loop over at most two connections
for ``--seconds`` in short windows, meters the server's CPU and peak
RSS from ``/proc``, stops it, and checks the replies against
in-process solves.  Times and rates are scaled to a reference host
speed timed between windows (:mod:`hostspeed`).  The last line of
standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports
the per-layer metrics instead: half the time on an untraced server (the
reference for the tracing overhead), half on :mod:`traced_server`, plus
the framing, engine and kernel floors and, on ``hot-solve``, the router
hop of a 2-worker fleet.  See README.md for every metric.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from floors import FLOOR_SIZES, engine_floor, httpio_floor, kernel_floors
from hostspeed import REFERENCE_S, loop_seconds, scale
from load import (HOT_KEYS, Recorder, burst_loop, burst_stream,
                  check_replies, closed_loop, hot_lanes, hot_pool,
                  lru_fill_items, measure_windows, percentile, run_items,
                  sweep_stream, window_values)
from spans import layer_metrics, read_trace
from target import (ServerProcess, cpu_seconds, free_port, peak_rss_mb,
                    repro_serve_argv)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

#: Server spawns per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Unmeasured closed-loop seconds after the cache fill.
WARM_SECONDS = 1.0
#: Seconds of load per window: p50, rate and CPU per request are the
#: medians of the windows' scaled values (see README.md).
WINDOW = 0.25


# Each workload stresses layers the others bypass (README.md has the
# full rationale): hot-solve is all fast-path hits (framing, decode
# memo, gate, envelope splice); cold-bursty is BPP bursts that miss
# every cache (coalescer, batch window, Q-grid sharing, engine,
# kernel); sweep-batch is 32-point /batch sweeps (gate weight 32, one
# grid per call, 32 encodes).  No workload runs a fleet: its router
# and two workers beside the generator are four busy processes on two
# vCPUs, which measures the scheduler; the router hop is a per-layer
# metric of hot-solve's traced run instead.
#: Workload name -> client connections.
WORKLOADS = {
    "hot-solve": 2,
    "cold-bursty": 2,
    "sweep-batch": 1,
}

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "throughput_rps": "req/s",
    "cpu_ms_per_req": "ms",
    "rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "client.p99_ms": "ms",
    "httpio.write_p50_us": "us",
    "httpio.floor_p50_ms": "ms",
    "httpio.floor_rps": "req/s",
    "wire.gap_p50_ms": "ms",
    "protocol.decode_per_req": "records/req",
    "protocol.decode_p50_us": "us",
    "protocol.encode_p50_us": "us",
    "gate.hold_p50_ms": "ms",
    "gate.hold_p99_ms": "ms",
    "gate.rejected_ratio": "ratio",
    "brownout.max_stage": "stage",
    "brownout.transitions": "count",
    "coalesce.hit_ratio": "ratio",
    "coalesce.follower_wait_p50_ms": "ms",
    "batcher.queue_wait_p50_ms": "ms",
    "batcher.queue_wait_p99_ms": "ms",
    "batcher.batch_size_mean": "requests",
    "batcher.flushes": "count",
    "engine.fastpath_hit_ratio": "ratio",
    "engine.evaluate_p50_ms": "ms",
    "engine.evaluate_p99_ms": "ms",
    "engine.grid_points_per_solve": "points",
    "engine.pool_fanouts": "count",
    "engine.retries": "count",
    "engine.failed": "count",
    "engine.inproc_p50_ms": "ms",
    "kernel.solve_p50_ms": "ms",
    "kernel.solve_p99_ms": "ms",
    "kernel.solves_per_req": "solves/req",
    "kernel.numpy_share": "ratio",
    "kernel.scaled_fallbacks": "count",
    **{f"kernel.floor_p50_ms.n{n}": "ms" for n in FLOOR_SIZES},
    "server.traced_requests": "count",
    "server.span_p50_ms": "ms",
    "server.unattributed_p50_ms": "ms",
    **{f"self.{layer}_p50_ms": "ms" for layer in (
        "kernel", "engine", "queue", "coalesce", "lookup", "decode",
        "encode", "write")},
    "router.hop_p50_ms": "ms",
    "router.shard_balance": "ratio",
    "router.failovers": "count",
    "trace.overhead_p50_ms": "ms",
}


# ----------------------------------------------------------------------
# One measured phase against one server process
# ----------------------------------------------------------------------


@dataclass
class Phase:
    rec: Recorder
    windows: list
    rss_mb: float = 0.0


async def _warm(name: str, clients, seed: int, rec) -> None:
    if name == "hot-solve":
        pool = hot_pool(seed)
        await run_items(clients, pool, rec)
        await closed_loop(clients, hot_lanes(pool, seed, len(clients)),
                          WARM_SECONDS, rec)
        return
    # Cold workloads: fill the engine's result LRU first, so evictions
    # are part of every measured solve as in a long-running daemon.
    await run_items(clients[:1], lru_fill_items(seed), rec)
    if name == "cold-bursty":
        await burst_loop(clients, burst_stream(seed, "warm"), WARM_SECONDS,
                         rec)
    else:
        await closed_loop(clients, [sweep_stream(seed, "warm")],
                          WARM_SECONDS, rec)


def _traffic(name: str, clients, seed: int):
    """The measured load of ``name`` as ``traffic(seconds, rec)``, each
    call carrying on where the previous one stopped."""
    if name == "cold-bursty":
        bursts = burst_stream(seed)
        return lambda seconds, rec: burst_loop(clients, bursts, seconds, rec)
    lanes = ([sweep_stream(seed)] if name == "sweep-batch"
             else hot_lanes(hot_pool(seed), seed, len(clients)))
    return lambda seconds, rec: closed_loop(clients, lanes, seconds, rec)


async def _direct_leg(server, seed: int, seconds: float):
    """Hot keys straight at their owning workers (ports from /cluster)."""
    from repro.api import SolveRequest
    from repro.loadgen.aioclient import WireClient
    from repro.service.sharding import HashRing

    shard_map = json.loads(server.get("/cluster"))
    ring = HashRing(shard_map["workers"], shard_map["hash_replicas"])
    owned: dict[int, list] = {}
    for item in hot_pool(seed):
        key = SolveRequest.from_dict(item.records[0]).cache_key
        owned.setdefault(ring.preference(key)[0], []).append(item)
    shards = sorted(shard_map["shards"], key=lambda s: s["shard"])
    clients = [WireClient(s["host"], s["port"]) for s in shards]
    rec = Recorder()
    try:
        await closed_loop(
            clients,
            [itertools.cycle(owned[s["shard"]]) for s in shards],
            seconds, rec,
        )
    finally:
        for client in clients:
            await client.close()
    return rec


async def _phase(name: str, server, seed: int, seconds: float,
                   rec: Recorder | None = None) -> Phase:
    """Warm ``server`` with workload ``name``, then measure into ``rec``."""
    from repro.loadgen.aioclient import WireClient

    clients = [WireClient("127.0.0.1", server.port)
               for _ in range(WORKLOADS[name])]
    rec = rec or Recorder()
    try:
        warm = Recorder()
        await _warm(name, clients, seed, warm)
        if warm.failed:
            raise RuntimeError(f"warm-up replies failed: {warm.statuses}")
        pids = server.pids()
        windows = await measure_windows(
            _traffic(name, clients, seed), seconds, min(WINDOW, seconds),
            rec, lambda: sum(cpu_seconds(pids).values()),
        )
        return Phase(rec, windows, rss_mb=peak_rss_mb(server.pids()))
    finally:
        for client in clients:
            await client.close()


def _spawn(work: Path, workers: int = 1, trace_dir: Path | None = None):
    port = free_port()
    argv = repro_serve_argv(workers, port)
    if trace_dir is not None:
        argv = [sys.executable, str(HERE / "traced_server.py"),
                "--trace-out", str(trace_dir), *argv[3:]]
    server = ServerProcess(argv, ROOT, port, work / "server.log")
    server.start()
    return server


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------


@dataclass
class Run:
    workload: str
    seed: int
    traced: bool
    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    server_errors: int = 0
    mismatches: list = field(default_factory=list)
    measured_s: float = 0.0
    wall_s: float = 0.0
    windows: dict = field(default_factory=dict)
    #: Untraced runs: the end-to-end times unscaled, and the host's
    #: median loop time (see hostspeed.py).
    raw: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.mismatches and self.server_errors == 0

    def to_dict(self) -> dict:
        return {
            "workload": self.workload, "seed": self.seed,
            "traced": self.traced, "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed, "mismatches": self.mismatches[:10],
            "measured_s": self.measured_s, "wall_s": self.wall_s,
            "metrics": self.metrics, "raw": self.raw,
            "windows": self.windows,
        }


def _account(run: Run, recs, name: str) -> None:
    """Counts and correctness of measured phases."""
    for rec in recs:
        run.attempted += rec.attempted
        run.failed += rec.failed
        run.server_errors += rec.server_errors
        run.measured_s += rec.duration
        run.mismatches += check_replies(rec.captured)
        if name == "hot-solve" and len(rec.captured_keys) < HOT_KEYS:
            run.mismatches.append("hot keys not all served")


def _scaled_spawn(work: Path) -> tuple[ServerProcess, float, float]:
    """A daemon, its raw set-up time and that time scaled to the
    reference host speed timed just before and after the spawn."""
    loop_before = loop_seconds()
    server = _spawn(work)
    loop_s = (loop_before + loop_seconds()) / 2
    return server, server.setup_s, server.setup_s * scale(loop_s)


def _medians(values: dict[str, list[float]]) -> dict[str, float]:
    return {
        "p50_ms": statistics.median(values["p50"]) * 1e3,
        "throughput_rps": statistics.median(values["rps"]),
        "cpu_ms_per_req": statistics.median(values["cpu_per_req"]) * 1e3,
    }


def untraced_run(name: str, seed: int, seconds: float, work: Path) -> Run:
    began = time.perf_counter()
    run = Run(name, seed, traced=False)
    raw_setups, setups = [], []
    for i in range(SETUPS):
        server, raw, scaled = _scaled_spawn(work)
        raw_setups.append(raw)
        setups.append(scaled)
        if i < SETUPS - 1:
            server.stop()
    try:
        phase = asyncio.run(_phase(name, server, seed, seconds))
    finally:
        server.stop()
    _account(run, [phase.rec], name)
    run.windows = window_values(phase.rec, phase.windows)
    run.metrics = {
        "setup_s": statistics.median(setups),
        **_medians(run.windows),
        "rss_mb": phase.rss_mb,
    }
    run.raw = {
        "setup_s": statistics.median(raw_setups),
        **_medians(window_values(phase.rec, phase.windows, scaled=False)),
        "loop_us": statistics.median(w.loop_s for w in phase.windows) * 1e6,
    }
    run.wall_s = time.perf_counter() - began
    return run


def _router_legs(seed: int, seconds: float, work: Path) -> tuple:
    """hot-solve's keys through a 2-worker fleet's router, then straight
    at their owning workers; returns both recorders and the metrics."""
    fleet = _spawn(work, workers=2)
    try:
        routed = asyncio.run(_phase("hot-solve", fleet, seed, seconds,
                                    Recorder(shards={}))).rec
        direct = asyncio.run(_direct_leg(fleet, seed, seconds))
        shard_map = json.loads(fleet.get("/cluster"))
    finally:
        fleet.stop()
    counts = list(routed.shards.values())
    return routed, direct, {
        "router.hop_p50_ms": (percentile(routed.latencies, 50)
                              - percentile(direct.latencies, 50)) * 1e3,
        "router.shard_balance": (max(counts) / statistics.fmean(counts)
                                 if counts else 0.0),
        "router.failovers": float(sum(s["failovers"]
                                      for s in shard_map["shards"])),
    }


def traced_run(name: str, seed: int, seconds: float, work: Path) -> Run:
    began = time.perf_counter()
    run = Run(name, seed, traced=True)
    leg = seconds / 2

    server = _spawn(work)
    try:
        reference = asyncio.run(_phase(name, server, seed, leg))
    finally:
        server.stop()

    trace_dir = work / f"trace-{name}-{seed}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    server = _spawn(work, trace_dir=trace_dir)
    try:
        traced = asyncio.run(_phase(name, server, seed, leg,
                                    Recorder(wire_log=[])))
        metrics_text = server.get("/metrics").decode()
    finally:
        server.stop()
    recs = [reference.rec, traced.rec]

    rec = traced.rec
    metrics = layer_metrics(read_trace(trace_dir), rec.began, rec.ended,
                            rec.wire_log)
    metrics.update(_brownout(metrics_text))
    metrics["client.p99_ms"] = percentile(reference.rec.latencies, 99) * 1e3
    metrics["trace.overhead_p50_ms"] = (
        percentile(rec.latencies, 50) - percentile(reference.rec.latencies, 50)
    ) * 1e3
    if name == "hot-solve":
        routed, direct, router = _router_legs(seed, leg / 2, work)
        recs += [routed, direct]
        metrics.update(router)
    else:
        metrics.update({"router.hop_p50_ms": 0.0,
                        "router.shard_balance": 0.0,
                        "router.failovers": 0.0})
    _account(run, recs, name)

    floor_s = max(0.5, min(5.0, seconds / 4))
    metrics.update(httpio_floor(seed, floor_s, work, ROOT))
    metrics["engine.inproc_p50_ms"] = engine_floor(name, seed, floor_s)
    metrics.update(kernel_floors(seed))
    run.metrics = {k: metrics[k] for k in PER_LAYER}
    run.wall_s = time.perf_counter() - began
    return run


def _brownout(metrics_text: str) -> dict:
    """Highest stage and transition count from (federated) /metrics."""
    from repro.service.brownout import STAGE_NAMES

    stage, transitions = 0, 0.0
    for line in metrics_text.splitlines():
        if line.startswith("repro_service_brownout_transitions_total{") \
                and 'to="' in line:
            value = float(line.rsplit(" ", 1)[1])
            transitions += value
            target = line.split('to="', 1)[1].split('"', 1)[0]
            if value > 0:
                stage = max(stage, STAGE_NAMES.index(target))
        elif line.startswith("repro_service_brownout_stage"):
            stage = max(stage, int(float(line.rsplit(" ", 1)[1])))
    return {"brownout.max_stage": float(stage),
            "brownout.transitions": transitions}


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def _unit(name: str) -> str:
    base = name.split(".", 1)[1] if name.split(".", 1)[0] in WORKLOADS \
        else name
    return END_TO_END.get(base) or PER_LAYER[base]


def _summary(runs: list[Run], attr: str = "metrics") -> dict:
    """Median, quartiles and spread (IQR / median) of every metric."""
    out = {}
    for metric in getattr(runs[0], attr):
        values = [getattr(r, attr)[metric] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = (
            statistics.quantiles(values, n=4) if len(values) > 1
            else (median, median, median)
        )
        out[metric] = {
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0,
            "values": values,
        }
    return out


def _provenance(args, workloads: list[str]) -> dict:
    commit, dirty = "unknown", None
    if (ROOT / ".git").exists():
        def git(*cmd: str) -> str:
            return subprocess.run(
                ["git", *cmd], cwd=ROOT, capture_output=True, text=True,
                check=False,
            ).stdout.strip()
        commit = git("rev-parse", "HEAD") or "unknown"
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    import numpy

    return {
        "commit": commit, "dirty": dirty,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "seed": args.seed,
        "seconds": args.seconds, "repeat": args.repeat,
        "traced": bool(args.trace), "workloads": workloads,
        "reference_loop_us": REFERENCE_S * 1e6,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="out-of-process serving benchmark (see README.md)"
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all three)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measured seconds per run (default 25)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds seed..seed+N-1")
    parser.add_argument("--out", help="write the full results JSON here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "service").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a "
              "full checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.repeat < 1:
        parser.error("--seconds must be > 0 and --repeat >= 1")
    sys.path.insert(0, str(ROOT / "src"))

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    measure = traced_run if args.trace else untraced_run
    runs: dict[str, list[Run]] = {}
    for name in workloads:
        for i in range(args.repeat):
            run = measure(name, args.seed + i, args.seconds, work)
            runs.setdefault(name, []).append(run)
            for metric, value in run.metrics.items():
                print(f"{name} seed={run.seed} {metric} = {value:.6g} "
                      f"{_unit(metric)}")

    summaries = {name: _summary(rs) for name, rs in runs.items()}
    all_runs = [r for rs in runs.values() for r in rs]
    if args.out:
        report = {
            "provenance": _provenance(args, workloads),
            "units": {**END_TO_END, **PER_LAYER},
            "summary": summaries,
            "raw_summary": {name: _summary(rs, "raw")
                            for name, rs in runs.items() if rs[0].raw},
            "runs": [r.to_dict() for r in all_runs],
        }
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    metrics = {}
    for name, summary in summaries.items():
        for metric, stats in summary.items():
            label = metric if len(workloads) == 1 else f"{name}.{metric}"
            metrics[label] = {"value": stats["median"],
                              "unit": _unit(label)}
    correct = all(r.correct for r in all_runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in all_runs),
        "failed": sum(r.failed for r in all_runs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
