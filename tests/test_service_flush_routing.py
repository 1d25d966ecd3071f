"""Where a micro-batch flush runs: on the event loop or the worker.

The daemon's engine runner declares a batch *short* when the engine
has no disk tier, every request uses a grid method and the estimated
kernel work (:meth:`~repro.engine.BatchSolver.kernel_work`) fits under
:data:`~repro.service.server.SHORT_FLUSH_WORK`.  A short flush runs in
the batcher's flush task on the loop thread and never starts the
worker thread; everything else, and every runner that declares
nothing, keeps the worker path.  The worker path is kept so that a
long solve leaves the loop answering: the liveness test holds that.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

pytestmark = pytest.mark.service

from repro.api import SolveRequest
from repro.core.state import SwitchDimensions
from repro.core.traffic import TrafficClass
from repro.engine import BatchSolver, EngineConfig
from repro.engine.batch import (
    WORK_PER_COLUMN,
    WORK_PER_MEMBER,
    WORK_PER_SOLVE,
)
from repro.methods import SolveMethod
from repro.service import (
    MicroBatcher,
    ServiceClient,
    ServiceConfig,
    SolveService,
    start_in_thread,
)
from repro.service.batcher import RequestExpiredError
from repro.service.protocol import decode_request
from repro.service.server import SHORT_FLUSH_WORK

#: The benchmark's class mix: Poisson data plus Pascal video (a = 2).
MIX = [
    {"name": "data", "alpha": 0.011},
    {"name": "video", "alpha": 0.004, "beta": 0.3, "a": 2},
]


def wire_request(
    n: int, classes: list[dict] = MIX, n2: int | None = None, **extra
) -> SolveRequest:
    """A request decoded on its own, as a ``/solve`` body is: requests
    of one mix hold equal but distinct class tuples."""
    return decode_request({"n1": n, "n2": n if n2 is None else n2,
                           "classes": classes, **extra})


def solve_work(n1: int, n2: int, passes: int) -> int:
    """The estimate of one solve of ``passes`` whole-sweep passes."""
    return WORK_PER_SOLVE + passes * (n2 + 1) * (n1 + 1 + WORK_PER_COLUMN)


def sweep_mix() -> list[SolveRequest]:
    """The ``sweep-batch`` sweep: n = 4..66 step 2 on one class tuple."""
    first = wire_request(4)
    return [first.with_dims(n) for n in range(4, 67, 2)]


def three_class(n: int) -> SolveRequest:
    return wire_request(n, MIX + [{"name": "wide", "alpha": 0.001,
                                   "beta": 0.1, "a": 3}])


def mix_variant(k: int) -> list[dict]:
    return [{"name": "data", "alpha": 0.01 + 0.001 * k},
            {"name": "video", "alpha": 0.003, "beta": 0.2, "a": 2}]


def run_flushes(
    engine: BatchSolver, batches: list[list[SolveRequest]]
) -> tuple[list[bool], SolveService]:
    """Flush each batch through the daemon's engine runner, one after
    another; returns per flush whether the engine ran on the loop
    thread, and the service."""
    on_loop: list[bool] = []
    evaluate_many = engine.evaluate_many

    async def scenario() -> SolveService:
        loop_thread = threading.get_ident()

        def recording(requests, *args, **kwargs):
            on_loop.append(threading.get_ident() == loop_thread)
            return evaluate_many(requests, *args, **kwargs)

        engine.evaluate_many = recording
        service = SolveService(ServiceConfig(port=0), engine=engine)
        batcher = service.batcher
        loop = asyncio.get_running_loop()
        for batch in batches:
            future = loop.create_future()
            batcher.submit_many(batch, future)
            results = await asyncio.wait_for(future, timeout=60.0)
            assert len(results) == len(batch)
            assert not any(getattr(r, "failed", False) for r in results)
        await batcher.close()
        return service

    service = asyncio.run(scenario())
    return on_loop, service


def fresh_engine(**config) -> BatchSolver:
    return BatchSolver(EngineConfig(**config))


# ----------------------------------------------------------------------
# The estimate
# ----------------------------------------------------------------------


def test_kernel_work_counts_one_group_per_mix():
    engine = fresh_engine()
    assert engine.kernel_work(sweep_mix()) == (
        32 * WORK_PER_MEMBER + solve_work(66, 66, 2)
    ) <= SHORT_FLUSH_WORK
    # Equal mixes decoded apart share one grid group.
    burst = [wire_request(n) for n in (64, 16, 64, 48)]
    assert engine.kernel_work(burst) == (
        4 * WORK_PER_MEMBER + solve_work(64, 64, 2)
    ) <= SHORT_FLUSH_WORK
    assert engine.kernel_work([three_class(900)]) == (
        WORK_PER_MEMBER + solve_work(900, 900, 3)
    )
    mixes = [wire_request(64, mix_variant(k)) for k in range(3)]
    assert engine.kernel_work(mixes) == (
        3 * (WORK_PER_MEMBER + solve_work(64, 64, 2))
    ) > SHORT_FLUSH_WORK


def test_kernel_work_counts_cells_and_fixed_costs():
    engine = fresh_engine()
    # A tall switch sweeps few columns of long vectors: the rows count.
    tall = wire_request(20000, n2=60)
    assert engine.kernel_work([tall]) == (
        WORK_PER_MEMBER + solve_work(20000, 60, 2)
    ) > SHORT_FLUSH_WORK
    # Many tiny distinct mixes are as many solves, each with its cost.
    tiny = [wire_request(1, mix_variant(k)) for k in range(64)]
    assert engine.kernel_work(tiny) == (
        64 * (WORK_PER_MEMBER + solve_work(1, 1, 2))
    ) > SHORT_FLUSH_WORK


def test_kernel_work_counts_a_falling_back_group_per_member():
    # Non-integer source count 2.5: admissible up to min(n1, n2) = 3,
    # so the group's max dims 5 x 5 fail and each member is solved alone.
    classes = (TrafficClass.poisson(0.01),
               TrafficClass(0.25, -0.1, name="smooth"))
    members = [SolveRequest(SwitchDimensions(3, 5), classes),
               SolveRequest(SwitchDimensions(5, 3), classes)]
    engine = fresh_engine()
    # One sweep class; three fold passes, twice.
    assert engine.kernel_work(members) == (
        2 * WORK_PER_MEMBER + solve_work(3, 5, 7) + solve_work(5, 3, 7)
    )
    results = engine.evaluate_many(members)
    assert not any(getattr(r, "failed", False) for r in results)
    assert engine.last_metrics.grid_groups == 0


def test_kernel_work_counts_fold_passes_of_smooth_classes():
    engine = fresh_engine()
    smooth = TrafficClass.bernoulli(3, 0.125, name="smooth")
    request = SolveRequest.square(
        8, (TrafficClass.poisson(0.01), smooth)
    )
    # One sweep class; three fold passes (the source count), made for
    # log Q and again for the smooth class's concurrency grid.
    assert engine.kernel_work([request]) == (
        WORK_PER_MEMBER + solve_work(8, 8, 1 + 3 * 2)
    )


def test_kernel_work_declines_disk_and_non_grid_batches(tmp_path):
    assert fresh_engine().kernel_work(
        [wire_request(8, method="exact")]
    ) is None
    assert fresh_engine(disk_cache=tmp_path).kernel_work(
        [wire_request(8)]
    ) is None


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "batch",
    [
        pytest.param(sweep_mix, id="sweep-batch-mix"),
        pytest.param(
            lambda: [wire_request(n) for n in (64, 16, 64, 48)],
            id="cold-bursty-burst",
        ),
    ],
)
def test_short_batches_run_on_the_loop_and_start_no_thread(batch):
    on_loop, service = run_flushes(fresh_engine(), [batch()])
    batcher = service.batcher
    assert on_loop == [True]
    assert batcher.loop_flushes == batcher.flush_count == 1
    assert service.instruments.loop_flushes.value() == 1
    assert batcher._executor is None


@pytest.mark.parametrize(
    "batch",
    [
        pytest.param(lambda: [three_class(900)], id="n900-three-class"),
        pytest.param(
            lambda: [wire_request(6, method=SolveMethod.EXACT.value)],
            id="exact",
        ),
        pytest.param(
            lambda: [wire_request(64, mix_variant(k)) for k in range(3)],
            id="multi-mix-over-bound",
        ),
        pytest.param(
            lambda: [wire_request(20000, n2=60)], id="tall-asymmetric"
        ),
        pytest.param(
            lambda: [wire_request(1, mix_variant(k)) for k in range(64)],
            id="many-tiny-mixes",
        ),
    ],
)
def test_long_or_non_grid_batches_go_to_the_worker(batch):
    on_loop, service = run_flushes(fresh_engine(), [batch()])
    batcher = service.batcher
    assert on_loop == [False]
    assert batcher.loop_flushes == 0 and batcher.flush_count == 1
    assert service.instruments.loop_flushes.value() == 0


def test_an_engine_with_a_disk_tier_always_uses_the_worker(tmp_path):
    on_loop, service = run_flushes(
        fresh_engine(disk_cache=tmp_path), [sweep_mix()]
    )
    assert on_loop == [False]
    assert service.batcher.loop_flushes == 0


def test_the_worker_starts_with_the_first_long_flush_only():
    on_loop, service = run_flushes(
        fresh_engine(),
        [sweep_mix(), [three_class(900)], [wire_request(32)]],
    )
    batcher = service.batcher
    assert on_loop == [True, False, True]
    assert (batcher.loop_flushes, batcher.flush_count) == (2, 3)
    assert service.instruments.loop_flushes.value() == 2


def test_a_plain_callable_runner_always_uses_the_worker():
    threads: list[int] = []

    def runner(requests):
        threads.append(threading.get_ident())
        return [None] * len(requests)

    async def scenario() -> tuple[int, MicroBatcher]:
        batcher = MicroBatcher(runner)
        future = asyncio.get_running_loop().create_future()
        batcher.submit(wire_request(4), future)
        await asyncio.wait_for(future, timeout=5.0)
        await batcher.close()
        return threading.get_ident(), batcher

    loop_thread, batcher = asyncio.run(scenario())
    assert threads and loop_thread not in threads
    assert batcher.loop_flushes == 0


class _DyingShortRunner:
    """Declares every batch short and dies on its first ``deaths``
    runs."""

    def __init__(self, deaths: int) -> None:
        self.deaths = deaths
        self.threads: list[int] = []
        self.sizes: list[int] = []

    def short(self, requests) -> bool:
        return True

    def __call__(self, requests):
        self.threads.append(threading.get_ident())
        self.sizes.append(len(requests))
        if len(self.threads) <= self.deaths:
            raise OSError(f"runner died (run {len(self.threads)})")
        return ["ok"] * len(requests)


@pytest.mark.parametrize("deaths", [1, 2])
def test_a_runner_dying_on_the_loop_is_rerun_once_then_relayed(deaths):
    """The rerun leaves out a member expired at the first start, and
    counts it expired once."""
    runner = _DyingShortRunner(deaths)

    async def scenario():
        batcher = MicroBatcher(runner)
        loop = asyncio.get_running_loop()
        late, future = loop.create_future(), loop.create_future()
        batcher.submit(wire_request(6), late,
                       deadline=time.monotonic() - 1.0)
        batcher.submit(wire_request(4), future)
        try:
            outcome = await asyncio.wait_for(future, timeout=5.0)
        except OSError as exc:
            outcome = exc
        with pytest.raises(RequestExpiredError):
            await late
        await batcher.close()
        return threading.get_ident(), batcher, outcome

    loop_thread, batcher, outcome = asyncio.run(scenario())
    assert runner.threads == [loop_thread, loop_thread]
    assert runner.sizes == [1, 1]
    assert batcher.expired_requests == 1
    assert batcher._executor is None and batcher.worker_respawns == 0
    if deaths == 1:
        assert outcome == "ok" and batcher.loop_flushes == 1
    else:
        assert isinstance(outcome, OSError)
        assert "run 2" in str(outcome)
        assert batcher.flush_count == 0


# ----------------------------------------------------------------------
# Liveness of the worker path
# ----------------------------------------------------------------------


def test_a_long_flush_on_the_worker_leaves_the_loop_answering():
    """While an n = 900 flush computes on the worker, ``/healthz`` and a
    cache-hit ``/solve`` on a second connection are answered first."""
    hot = wire_request(8)
    with start_in_thread(
        ServiceConfig(port=0), engine=fresh_engine()
    ) as handle:
        batcher = handle.service.batcher
        side = ServiceClient(*handle.address)
        side.solve(hot)  # warm the cache: later hits never flush
        assert batcher.loop_flushes == 1
        finished: dict[str, float] = {}

        def long_solve() -> None:
            ServiceClient(*handle.address).solve(three_class(900))
            finished["long"] = time.monotonic()

        thread = threading.Thread(target=long_solve)
        thread.start()
        try:
            deadline = time.monotonic() + 30.0
            while batcher.worker_lag == 0.0:
                assert time.monotonic() < deadline, "flush never began"
                time.sleep(0.0005)
            health = side.health()
            result = side.solve(hot)
            finished["side"] = time.monotonic()
        finally:
            thread.join(60.0)
        assert "long" in finished
        assert finished["side"] < finished["long"]
        assert health["batcher"]["loop_flushes"] == 1
        assert result.from_cache
        assert batcher.flush_count == 2 and batcher.loop_flushes == 1
