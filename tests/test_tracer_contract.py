"""The names ``benchmarks/layers/traced_server.py`` wraps still exist.

The layer benchmark's tracer wraps the daemon's public calls by name
(``read_request``/``write_response`` and the codec functions bound in
``repro.service.server``, the gate, the single-flight map, the
micro-batcher and the engine).  A rename there would leave the wrapper
holding a name nothing calls, and traced runs would quietly report
zero.  This test loads the tracer, installs it in a fresh interpreter,
serves one ``/solve`` and one ``/batch`` and checks the spans each
request yields.  It imports the benchmark file and changes nothing in
it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.service

TRACER = (
    Path(__file__).resolve().parent.parent
    / "benchmarks" / "layers" / "traced_server.py"
)

_SCRIPT = """
import importlib.util, pathlib, sys

spec = importlib.util.spec_from_file_location("traced_server", {tracer!r})
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
tracer.install()

from repro.api import SolveRequest
from repro.core.traffic import TrafficClass
from repro.service import ServiceClient, start_in_thread

def mix(n, rate):
    return SolveRequest.square(n, [TrafficClass.poisson(rate, name="t")])

with start_in_thread() as handle:
    client = ServiceClient(*handle.address)
    client.solve(mix(5, 0.0173))
    client.solve_many([mix(n, 0.0241) for n in (3, 4)])
tracer.dump(pathlib.Path({out!r}))
"""


def test_traced_daemon_yields_every_layer_span(tmp_path):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_ENGINE_CACHE_DIR", None)
    code = textwrap.dedent(
        _SCRIPT.format(tracer=str(TRACER), out=str(tmp_path))
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    (dump,) = tmp_path.glob("daemon-*.jsonl")
    spans = [json.loads(line) for line in dump.read_text().splitlines()]

    requests = {
        span["path"]: span for span in spans if span["name"] == "request"
    }
    assert sorted(requests) == ["/batch", "/solve"]
    for path, span in requests.items():
        assert span["status"] == 200, span
        assert span["xid"], span
        assert span["keys"], (path, span)

    solve = requests["/solve"]
    children = {
        span["name"] for span in spans
        if span.get("parent") == solve["id"]
    }
    assert {"lookup", "coalesce.lead", "queue", "decode", "encode",
            "write", "gate.hold"} <= children, children
    assert any(
        set(solve["keys"]) & set(span["keys"])
        for span in spans if span["name"] == "engine"
    ), spans
