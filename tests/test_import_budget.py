"""A serving process imports only the serving stack.

``import repro`` and the daemon's entry points (``repro.cli`` plus
``repro.service.server``) must not load scipy or the analysis-only
packages, and a one-worker daemon must not load the client, the fleet
supervisor, a process pool or the package-metadata reader.  Answering requests must not import them either: a deferred
import that moved onto the request path would trade cold-start time for
first-request latency.  The daemon also starts without the solvers and
analyses its default method does not use, and then serves a
default-method ``/solve`` and ``/batch`` without importing anything.
Every check runs in a fresh interpreter, since this test process has
long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro
import repro.core
import repro.engine
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
    "multiprocessing",
    "concurrent.futures.process",
    "importlib.metadata",
)

#: Modules a serving process must not load at startup.  Their own
#: methods may load them on the request path (``/solve`` with
#: ``"method": "mva"`` imports ``repro.core.mva``), so they are not in
#: :data:`IMPORT_BUDGET`; a default-method request never does.
STARTUP_ONLY = (
    "repro.robust",
    "repro.engine.chaos",
    "repro.validation",
    "repro.core.asymptotic",
    "repro.core.exact",
    "repro.core.generating",
    "repro.core.moments",
    "repro.core.mva",
    "repro.core.revenue",
    "repro.core.sensitivity",
    "repro.core.series_solver",
)

#: The most ``repro`` modules the daemon's entry points may load.
STARTUP_REPRO_MODULES = 33

_REPORT = """
import json as _json, sys as _sys
_budget = {budget!r}
print(_json.dumps(sorted(
    m for m in _sys.modules
    if any(m == b or m.startswith(b + ".") for b in _budget)
)))
"""


def _run(code: str) -> object:
    """Run ``code`` in a fresh interpreter; the JSON of its last line."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _over_budget(script: str, budget: tuple[str, ...] = IMPORT_BUDGET
                 ) -> list[str]:
    """Run ``script`` in a fresh interpreter; the ``budget`` modules it
    loaded."""
    return _run(textwrap.dedent(script) + _REPORT.format(budget=budget))


def _roots(modules: list[str], budget: tuple[str, ...] = IMPORT_BUDGET
           ) -> list[str]:
    """Collapse a module list to its budget entries, for the message."""
    return sorted(
        {b for b in budget for m in modules
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


def test_daemon_startup_loads_only_the_serving_stack():
    statement = "import repro.cli, repro.service.server"
    loaded = _over_budget(statement, ("repro",))
    startup_only = _roots(loaded, STARTUP_ONLY)
    assert not startup_only, f"{statement!r} loaded {startup_only}"
    assert len(loaded) <= STARTUP_REPRO_MODULES, (
        f"{statement!r} loaded {len(loaded)} repro modules "
        f"(budget {STARTUP_REPRO_MODULES}): {loaded}"
    )


#: A client for a daemon started in the same interpreter.
_CLIENT = """
import http.client, json, sys
from repro.service import ServiceConfig, start_in_thread

classes = [
    {"alpha": 0.05, "beta": 0.0, "mu": 1.0, "a": 1},
    {"alpha": 0.02, "beta": 0.1, "mu": 1.0, "a": 2},
]

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
"""

_SERVE_EVERY_METHOD = _CLIENT + """
methods = ["convolution", "convolution-scaled", "convolution-float",
           "mva", "exact", "series", "robust", "brute-force"]

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


_SERVE_DEFAULT_METHOD = "import repro.cli\n" + _CLIENT + """
with start_in_thread(ServiceConfig(port=0)) as handle:
    port = handle.address[1]
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    conn.request("GET", "/healthz")  # the client's own first imports
    conn.getresponse().read()
    conn.close()
    started = set(sys.modules)
    post(port, "/solve", {"request": {"n1": 4, "n2": 5, "classes": classes}})
    post(port, "/batch", {"requests": [
        {"n1": n, "n2": n, "classes": classes} for n in (3, 4, 6, 8)]})
    print(json.dumps(sorted(set(sys.modules) - started)))
"""


@pytest.mark.service
def test_serving_default_requests_imports_nothing_new():
    """Startup imports the whole default solve path: no request pays
    for a first import, and nothing is loaded that startup skipped."""
    new = _run(_SERVE_DEFAULT_METHOD)
    assert not new, f"serving /solve and /batch imported {new}"


@pytest.mark.parametrize(
    "package", [repro, repro.core, repro.engine, repro.service]
)
def test_lazy_names_resolve(package):
    for name in package.__all__:
        assert getattr(package, name) is not None, name
    with pytest.raises(AttributeError, match="no attribute"):
        getattr(package, "no_such_export")


def test_dir_lists_unresolved_lazy_names():
    loaded = _over_budget("""
        import repro, repro.core, repro.engine, repro.service
        for package in (repro, repro.core, repro.engine, repro.service):
            missing = set(package.__all__) - set(dir(package))
            assert not missing, (package.__name__, sorted(missing))
    """, IMPORT_BUDGET + STARTUP_ONLY)
    assert not loaded, (
        f"dir() imported {_roots(loaded, IMPORT_BUDGET + STARTUP_ONLY)}"
    )


def test_star_import_resolves_lazy_names():
    from repro.service import client, cluster

    namespace: dict = {}
    exec("from repro.service import *", namespace)
    assert set(repro.service.__all__) <= set(namespace)
    assert namespace["ServiceClient"] is client.ServiceClient
    assert namespace["serve_cluster"] is cluster.serve_cluster
