"""Smoke test of the layer benchmark: ``pytest benchmarks/layers``.

Runs every workload for 2 s untraced and 2 s traced (about a minute
and a half in all) and checks what the benchmark promises: each metric
BENCHMARK.json declares is emitted with its unit and a finite value,
replies are correct, the span files parse and nest, and importing the
benchmark's modules has no side effects.  Not part of tier-1: the
repository's ``testpaths`` is ``tests/``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ("hot-solve", "cold-bursty", "sweep-batch")
SEED = 7
#: Cross-thread and cross-process stamps share CLOCK_MONOTONIC, but a
#: span's two stamps are taken just outside the call it wraps.
SLACK = 1e-4

pytestmark = [pytest.mark.slow, pytest.mark.service]


def _bench(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request) -> tuple[str, dict, dict]:
    return request.param, _run(request.param, 0), _run(request.param, 1)


def test_every_declared_metric_is_emitted(runs) -> None:
    workload, untraced, traced = runs
    for trace, result in ((0, untraced), (1, traced)):
        assert result["correct"], workload
        assert result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in _bench(trace)}
        assert set(result["metrics"]) == set(declared)
        for name, unit in declared.items():
            metric = result["metrics"][name]
            assert metric["unit"] == unit, name
            assert math.isfinite(metric["value"]), name
    for name in (m["name"] for m in _bench(0)):
        assert untraced["metrics"][name]["value"] > 0, name
    # The split explains the server span completely.
    layer = {k: v["value"] for k, v in traced["metrics"].items()}
    explained = layer["server.unattributed_p50_ms"] + sum(
        v for k, v in layer.items() if k.startswith("self.")
    )
    assert explained == pytest.approx(layer["server.span_p50_ms"], rel=1e-9)
    assert layer["server.span_p50_ms"] > 0


def test_trace_parses_and_children_nest(runs) -> None:
    workload = runs[0]
    files = sorted((HERE / ".work" / f"trace-{workload}-{SEED}").glob(
        "*.jsonl"
    ))
    assert files, "traced run wrote no span files"
    for path in files:
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        assert spans[-1]["name"] == "process"
        by_id = {s["id"]: s for s in spans[:-1]}
        requests = [s for s in spans if s["name"] == "request"]
        assert requests
        for span in spans[:-1]:
            assert span["start"] <= span["end"] + SLACK, span
            if span["parent"] is None:
                continue
            parent = by_id[span["parent"]]
            assert parent["start"] - SLACK <= span["start"], span
            assert span["end"] <= parent["end"] + SLACK, span
        for engine in (s for s in spans if s["name"] == "engine"):
            keys = set(engine["keys"])
            assert any(
                keys & set(r["keys"])
                and r["start"] - SLACK <= engine["start"]
                and engine["end"] <= r["end"] + SLACK
                for r in requests
            ), engine["id"]


def test_imports_have_no_side_effects() -> None:
    probe = (
        "import os, sys, threading\n"
        "before = sorted(os.listdir('.'))\n"
        "env = dict(os.environ)\n"
        "import floors, hostspeed, load, null_server, run, spans, "
        "target, traced_server\n"
        "assert sorted(os.listdir('.')) == before\n"
        "assert dict(os.environ) == env\n"
        "assert threading.active_count() == 1\n"
        "assert not any(m == 'repro' or m.startswith('repro.') "
        "for m in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-B", "-c", probe], cwd=HERE,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    collect = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p",
         "no:cacheprovider", str(HERE)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert collect.returncode == 0, collect.stdout[-2000:]


def test_fails_cleanly_without_the_program() -> None:
    """With only BENCHMARK.json and the benchmark, there is nothing to
    serve: the command must refuse, fast and without a result line."""
    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "benchmarks" / "layers",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "-B", "benchmarks/layers/run.py", "--workload",
         "hot-solve", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
