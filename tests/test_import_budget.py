"""A serving process imports only the serving stack.

``import repro`` and the daemon's entry points (``repro.cli`` plus
``repro.service.server``) must not load scipy or the analysis-only
packages, and a one-worker daemon must not load the client or the fleet
supervisor.  Answering requests must not import them either: a deferred
import that moved onto the request path would trade cold-start time for
first-request latency.  Every check runs in a fresh interpreter, since
this test process has long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro
import repro.service

#: Modules (and their submodules) a serving process must never load.
IMPORT_BUDGET = (
    "scipy",
    "repro.sim",
    "repro.ctmc",
    "repro.multistage",
    "repro.workloads",
    "repro.verify",
    "repro.extensions",
    "repro.loadgen",
    "repro.experiments",
    "repro.reporting",
    "repro.service.client",
    "repro.service.cluster",
)

_REPORT = """
import json as _json, sys as _sys
_budget = {budget!r}
print(_json.dumps(sorted(
    m for m in _sys.modules
    if any(m == b or m.startswith(b + ".") for b in _budget)
)))
"""


def _over_budget(script: str) -> list[str]:
    """Run ``script`` in a fresh interpreter; the budget modules it loaded."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = textwrap.dedent(script) + _REPORT.format(budget=IMPORT_BUDGET)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _roots(modules: list[str]) -> list[str]:
    """Collapse a module list to its budget entries, for the message."""
    return sorted(
        {b for b in IMPORT_BUDGET for m in modules
         if m == b or m.startswith(b + ".")}
    )


@pytest.mark.parametrize(
    "statement",
    ["import repro", "import repro.cli, repro.service.server"],
)
def test_cold_import_stays_in_budget(statement):
    loaded = _over_budget(statement)
    assert not loaded, (
        f"{statement!r} loaded {_roots(loaded)} "
        f"({len(loaded)} modules: {loaded[:20]})"
    )


_SERVE_EVERY_METHOD = """
import http.client, json
from repro.service import ServiceConfig, start_in_thread

classes = [
    {"alpha": 0.05, "beta": 0.0, "mu": 1.0, "a": 1},
    {"alpha": 0.02, "beta": 0.1, "mu": 1.0, "a": 2},
]
methods = ["convolution", "convolution-scaled", "convolution-float",
           "mva", "exact", "series", "robust", "brute-force"]

def post(port, path, payload):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("POST", path, json.dumps(payload).encode(),
                     {"Content-Type": "application/json"})
        reply = conn.getresponse()
        body = reply.read()
        assert reply.status == 200, (path, payload, reply.status, body)
    finally:
        conn.close()

with start_in_thread(ServiceConfig(port=0)) as handle:
    port = handle.address[1]
    for method in methods:
        post(port, "/solve", {"request": {
            "n1": 4, "n2": 5, "method": method, "classes": classes}})
    post(port, "/batch", {"requests": [
        {"n1": n, "n2": n, "classes": classes} for n in (3, 4, 6, 8)]})
"""


@pytest.mark.service
def test_request_path_imports_nothing_new():
    loaded = _over_budget(_SERVE_EVERY_METHOD)
    assert not loaded, (
        f"serving one request per method loaded {_roots(loaded)} "
        f"({len(loaded)} modules: {loaded[:20]})"
    )


@pytest.mark.parametrize("package", [repro, repro.service])
def test_lazy_names_resolve(package):
    for name in package.__all__:
        assert getattr(package, name) is not None, name
    with pytest.raises(AttributeError, match="no attribute"):
        getattr(package, "no_such_export")


def test_dir_lists_unresolved_lazy_names():
    loaded = _over_budget("""
        import repro, repro.service
        for package in (repro, repro.service):
            missing = set(package.__all__) - set(dir(package))
            assert not missing, (package.__name__, sorted(missing))
    """)
    assert not loaded, f"dir() imported {_roots(loaded)}"


def test_star_import_resolves_lazy_names():
    from repro.service import client, cluster

    namespace: dict = {}
    exec("from repro.service import *", namespace)
    assert set(repro.service.__all__) <= set(namespace)
    assert namespace["ServiceClient"] is client.ServiceClient
    assert namespace["serve_cluster"] is cluster.serve_cluster
