"""Benchmark the production NumPy kernels against the python oracle.

Every solve runs the NumPy kernels of :mod:`repro.core.kernels`; the
pure-python sweeps they replaced are the oracle in
:mod:`repro.verify.reference`.  Three legs, written into the
``"kernels"`` section of the shared ``BENCH_engine.json`` report
(sibling sections are preserved — see ``bench_engine.py``, which
extends the same file), with a ``provenance`` block (quick/full,
commit, interpreter, NumPy version, CPU count):

``single_solve``
    Matched oracle-vs-production single-solve p50 per numeric mode
    (``log``/``scaled``/``float``/``mva``) over the ROADMAP reference
    sweep sizes (``python_p50_ms`` is the oracle, ``numpy_p50_ms`` the
    production kernel), plus the *headline* ratio: the pre-1.5 default
    path (``convolution/log`` on the python sweeps) against the fastest
    production path (``convolution/scaled``), timed in alternating
    pairs; its ``speedup`` is the median of the per-pair ratios.  The
    full run asserts the headline speedup stays >= 10x.

``equivalence``
    The differential-fuzzer campaign from the acceptance criteria:
    >= 2000 seeded sampled configs per numeric mode through
    ``repro.verify.run_differential`` on the (production,
    ``reference/<method>`` oracle) pair, asserting **zero**
    disagreements.  ``--quick`` runs a bounded smoke of the same
    campaign.

``service``
    Cold (cache-missing) ``/solve`` calls over a persistent HTTP
    connection with ``method=convolution-scaled``, p50 per request —
    both the client round trip and the daemon's own ``elapsed_ms``.
    The full run asserts the service-side p50 stays under 1 ms.

``--check-baseline``
    CI regression guard: compare the freshly measured production
    single-solve p50s against the committed ``kernels`` section and
    fail (exit 1) if any cell regressed by more than 2x.  Timing
    cells absent from the baseline are reported but never fail.

Run ``python benchmarks/bench_kernels.py --quick`` for the CI-sized
variant; the committed numbers come from the full run.  End-to-end
serving numbers (what a daemon's clients see) come from
``benchmarks/layers/run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.core import convolution, mva  # noqa: E402
from repro.core.state import SwitchDimensions  # noqa: E402
from repro.core.traffic import TrafficClass  # noqa: E402
from repro.verify import reference  # noqa: E402
from repro.verify.differential import (  # noqa: E402
    REFERENCE_PREFIX,
    run_differential,
)
from repro.verify.generators import ConfigSampler  # noqa: E402

#: The ROADMAP reference sweep mix: one Poisson data class, one bursty
#: video class (same shape as bench_engine.SWEEP_CLASSES).
CLASSES = (
    TrafficClass.poisson(0.002, name="data"),
    TrafficClass(alpha=0.001, beta=0.0005, name="video"),
)

#: The production method of each numeric mode; its oracle runs as
#: ``reference/<method>`` in the differential.
METHODS = {
    "log": "convolution",
    "scaled": "convolution-scaled",
    "float": "convolution-float",
    "mva": "mva",
}


#: Regression-guard threshold: fail CI when a numpy single-solve p50
#: grows past this multiple of the committed baseline.
REGRESSION_FACTOR = 2.0


def _solve(mode: str, n: int, side: str) -> None:
    """One solve on the python oracle or on the production kernels."""
    dims = SwitchDimensions(n, n)
    oracle = side == "python"
    if mode == "mva":
        (reference if oracle else mva).solve_mva(dims, CLASSES)
    else:
        (reference if oracle else convolution).solve_convolution(
            dims, CLASSES, mode=mode
        )


def _p50_ms(fn, repeats: int) -> float:
    """Median latency over ``repeats`` timed calls, in milliseconds."""
    fn()  # warm caches, allocator, import side effects
    samples = []
    for _ in range(repeats):
        began = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - began)
    return statistics.median(samples) * 1e3


def _paired_p50_ms(slow, fast, repeats: int) -> tuple[float, float, float]:
    """``slow`` and ``fast`` timed in alternating pairs: their p50s in
    milliseconds and the median of the per-pair ``slow / fast`` ratios.

    Each pair runs both sides back to back, the order flipping every
    repeat, so a host that changes speed mid-run moves both sides of a
    pair together and the ratio stays put.
    """
    slow()
    fast()
    slow_s, fast_s, ratios = [], [], []
    for i in range(repeats):
        pair = {}
        for fn in ((slow, fast) if i % 2 == 0 else (fast, slow)):
            began = time.perf_counter()
            fn()
            pair[fn] = time.perf_counter() - began
        slow_s.append(pair[slow])
        fast_s.append(pair[fast])
        ratios.append(pair[slow] / pair[fast])
    return (statistics.median(slow_s) * 1e3,
            statistics.median(fast_s) * 1e3,
            statistics.median(ratios))


def bench_single_solve(sizes: tuple[int, ...], repeats: int) -> dict:
    """Matched oracle/production p50 per (mode, n), plus the headline."""
    cells = {}
    for mode in METHODS:
        for n in sizes:
            python_ms = _p50_ms(lambda: _solve(mode, n, "python"), repeats)
            numpy_ms = _p50_ms(lambda: _solve(mode, n, "numpy"), repeats)
            cells[f"{mode}-n{n}"] = {
                "mode": mode,
                "n": n,
                "python_p50_ms": python_ms,
                "numpy_p50_ms": numpy_ms,
                "speedup": python_ms / numpy_ms,
            }
    n = max(sizes)
    old_ms, new_ms, speedup = _paired_p50_ms(
        lambda: _solve("log", n, "python"),
        lambda: _solve("scaled", n, "numpy"),
        repeats,
    )
    return {
        "classes": len(CLASSES),
        "repeats": repeats,
        "cells": cells,
        "headline": {
            "n": n,
            "old_default_p50_ms": old_ms,
            "numpy_scaled_p50_ms": new_ms,
            # The median of per-pair ratios, timed interleaved.
            "speedup": speedup,
        },
    }


def bench_equivalence(cases_per_mode: int, seed: int = 2024) -> dict:
    """The acceptance campaign: zero production-vs-oracle disagreements."""
    modes = {}
    began = time.perf_counter()
    for mode, method in METHODS.items():
        pair = [method, REFERENCE_PREFIX + method]
        sampler = ConfigSampler(seed=seed)
        checked = 0
        disagreements = []
        for _ in range(cases_per_mode):
            config = sampler.sample()
            report = run_differential(config, methods=pair)
            if len(report.values) == 2:
                checked += 1
            disagreements.extend(
                d.describe() for d in report.disagreements
            )
        modes[mode] = {
            "cases": cases_per_mode,
            "compared": checked,
            "disagreements": disagreements,
        }
    total = sum(len(m["disagreements"]) for m in modes.values())
    return {
        "seed": seed,
        "elapsed_s": time.perf_counter() - began,
        "modes": modes,
        "total_disagreements": total,
    }


def bench_service(n_requests: int) -> dict:
    """Cold ``/solve`` p50 over the wire with ``convolution-scaled``.

    Every request gets a distinct traffic mix, so each one misses the
    engine cache and pays for a real kernel solve — the number a
    deployer sees on first contact with a new operating point.  Both
    views are recorded: the client round trip over a persistent
    localhost connection, and the service's own ``elapsed_ms``
    (request decode -> batcher -> engine -> encoded reply), which is
    the daemon's latency metric and excludes client-side socket
    scheduling.
    """
    import http.client

    from repro.api import SolveRequest
    from repro.engine import BatchSolver, EngineConfig
    from repro.service import ServiceConfig, start_in_thread

    method = "convolution-scaled"

    def request_for(i: int) -> SolveRequest:
        classes = (
            TrafficClass.poisson(0.002 + 1e-6 * i, name="data"),
            TrafficClass(alpha=0.001, beta=0.0005, name="video"),
        )
        return SolveRequest.square(16, classes, method=method)

    handle = start_in_thread(
        ServiceConfig(port=0, gate_capacity=256, batch_window=0.0),
        engine=BatchSolver(EngineConfig()),
    )
    try:
        conn = http.client.HTTPConnection(*handle.address)

        def wire_solve(request: SolveRequest) -> tuple[float, dict]:
            body = json.dumps({"request": request.to_dict()})
            began = time.perf_counter()
            conn.request(
                "POST", "/solve", body,
                {"Content-Type": "application/json"},
            )
            envelope = json.loads(conn.getresponse().read())
            return time.perf_counter() - began, envelope

        wire_solve(request_for(-1))  # warm the path
        client, server = [], []
        for i in range(n_requests):
            elapsed, envelope = wire_solve(request_for(i))
            assert not envelope["from_cache"], "cold solve hit cache"
            client.append(elapsed)
            server.append(envelope["elapsed_ms"])
        conn.close()
    finally:
        handle.stop()
    return {
        "n": 16,
        "method": method,
        "requests": n_requests,
        "p50_ms": statistics.median(server),
        "wire_p50_ms": statistics.median(client) * 1e3,
    }


def provenance(quick: bool) -> dict:
    """Where and how the section was measured."""
    import numpy

    def git(*cmd: str) -> str:
        return subprocess.run(
            ["git", *cmd], cwd=ROOT, capture_output=True, text=True,
            check=False,
        ).stdout.strip()

    return {
        "quick": quick,
        "commit": git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def check_baseline(report: dict, baseline_path: Path) -> int:
    """Exit status for the CI guard: 1 if any production p50 regressed > 2x."""
    try:
        committed = json.loads(baseline_path.read_text())["kernels"]
    except (OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"no committed kernels baseline in {baseline_path}: {exc}")
        return 1
    base_cells = committed["single_solve"]["cells"]
    failures = []
    for name, cell in report["single_solve"]["cells"].items():
        base = base_cells.get(name)
        if base is None:
            print(f"{name}: not in baseline (new cell), skipping")
            continue
        ratio = cell["numpy_p50_ms"] / base["numpy_p50_ms"]
        verdict = "FAIL" if ratio > REGRESSION_FACTOR else "ok"
        print(
            f"{name}: {base['numpy_p50_ms']:.3f} ms -> "
            f"{cell['numpy_p50_ms']:.3f} ms ({ratio:.2f}x) {verdict}"
        )
        if ratio > REGRESSION_FACTOR:
            failures.append(name)
    if failures:
        print(f"regressed > {REGRESSION_FACTOR}x: {', '.join(failures)}")
        return 1
    print("kernel benchmark within baseline")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-sized run: fewer sizes, repeats, and fuzz cases",
    )
    parser.add_argument(
        "--check-baseline", action="store_true",
        help="compare against the committed report and exit 1 on a "
        f">{REGRESSION_FACTOR}x production p50 regression (implies --quick "
        "timing scope; does not rewrite the report)",
    )
    parser.add_argument("--output", default="BENCH_engine.json")
    args = parser.parse_args(argv)

    quick = args.quick or args.check_baseline
    sizes = (16, 32) if quick else (16, 32, 64)
    repeats = 7 if quick else 15
    cases = 150 if quick else 2000
    service_requests = 50 if quick else 200

    report = {
        "quick": quick,
        "provenance": provenance(quick),
        "single_solve": None,
    }
    print(f"single-solve p50, sizes {sizes}, {repeats} repeats ...")
    report["single_solve"] = bench_single_solve(sizes, repeats)
    headline = report["single_solve"]["headline"]
    print(
        f"  headline (log/oracle -> scaled/production, n={headline['n']}): "
        f"{headline['old_default_p50_ms']:.2f} ms -> "
        f"{headline['numpy_scaled_p50_ms']:.2f} ms "
        f"({headline['speedup']:.1f}x)"
    )

    if args.check_baseline:
        return check_baseline(report, Path(args.output))

    print(f"differential equivalence, {cases} cases x 4 modes ...")
    report["equivalence"] = bench_equivalence(cases)
    total = report["equivalence"]["total_disagreements"]
    print(f"  {total} disagreements")
    assert total == 0, report["equivalence"]

    print(f"service cold-solve leg, {service_requests} requests ...")
    report["service"] = bench_service(service_requests)
    print(
        f"  service p50 {report['service']['p50_ms']:.3f} ms "
        f"(wire {report['service']['wire_p50_ms']:.3f} ms)"
    )

    if not quick:
        assert headline["speedup"] >= 10.0, headline
        assert report["service"]["p50_ms"] < 1.0, report["service"]

    output = Path(args.output)
    merged = {}
    if output.exists():
        merged = json.loads(output.read_text())
    merged["kernels"] = report
    output.write_text(json.dumps(merged, indent=2) + "\n")
    print(f"wrote kernels section of {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
