"""Who owns an engine.

Whoever owns a process's lifetime owns its engine: a daemon built
without one builds its own ``BatchSolver``, and so does each ``solve``
or ``batch`` CLI command.  Only the library convenience layer
(``solve``/``solve_many`` without ``engine=``, the full-solution
delegates) shares ``get_default_engine()``, which is built once and
never swapped.  A daemon's cache counters, last-batch metrics and
breaker state are therefore facts about that daemon alone.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.api import SolveRequest, solve_many
from repro.cli import main
from repro.core.traffic import TrafficClass
from repro.engine import get_default_engine
from repro.service import ServiceClient, start_in_thread


@pytest.fixture(autouse=True)
def no_disk_cache(monkeypatch):
    """Engines built from the environment keep memory-only caches, so
    nothing but an engine's own memory can answer from cache."""
    monkeypatch.delenv("REPRO_ENGINE_CACHE_DIR", raising=False)


def mix_request(n: int, rate: float = 0.0137) -> SolveRequest:
    return SolveRequest.square(
        n, [TrafficClass.poisson(rate, name="owned")]
    )


@pytest.mark.service
def test_engineless_daemons_do_not_share_a_cache():
    request = mix_request(7)
    with start_in_thread() as first:
        replies = [
            ServiceClient(*first.address).solve_raw(request)
            for _ in range(2)
        ]
    assert [r["from_cache"] for r in replies] == [False, True]
    with start_in_thread() as second:
        reply = ServiceClient(*second.address).solve_raw(request)
    assert reply["from_cache"] is False


@pytest.mark.service
def test_in_process_solves_leave_a_daemons_metrics_alone():
    with start_in_thread() as handle:
        client = ServiceClient(*handle.address)
        client.solve(mix_request(5))

        def scrape() -> tuple[float, float]:
            return (
                client.metric_value("repro_engine_stat", stat="lookups"),
                client.metric_value(
                    "repro_engine_last_batch", field="requests"
                ),
            )

        before = scrape()
        solve_many([mix_request(n, rate=0.0211) for n in (3, 4, 6)])
        assert before[1] == 1.0
        assert scrape() == before


def test_cli_batch_leaves_the_default_engine_alone(capsys):
    engine = get_default_engine()
    before = engine.stats.snapshot()
    assert main([
        "batch", "--poisson", "0.0173", "--sizes", "3,4,5",
        "--metrics-json", "-",
    ]) == 0
    assert engine.stats.snapshot() == before
    assert get_default_engine() is engine
    assert '"requests": 3' in capsys.readouterr().out


def test_concurrent_first_calls_build_one_default_engine():
    """Eight threads released together on a fresh interpreter all get
    the same object, even when building the engine is slow."""
    script = textwrap.dedent(
        """
        import threading, time
        from repro.engine import batch

        real_init = batch.BatchSolver.__init__

        def slow_init(self, *args, **kwargs):
            time.sleep(0.05)
            real_init(self, *args, **kwargs)

        batch.BatchSolver.__init__ = slow_init
        barrier = threading.Barrier(8, timeout=30)
        engines = []

        def first_call():
            barrier.wait()
            engines.append(batch.get_default_engine())

        threads = [threading.Thread(target=first_call) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        print(len(engines), len({id(e) for e in engines}))
        """
    )
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", script], env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["8", "1"]
