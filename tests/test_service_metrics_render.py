"""Property tests: the Prometheus page round-trips every value exactly.

The metrics module renders floats with ``repr()`` — the shortest exact
round-trip — so a scraper parsing ``/metrics`` recovers the stored
numbers to the last bit.  These tests drive arbitrary floats through
counters, gauges and histogram sums, re-parse the rendered page, and
require ``float(<token>) == <stored value>`` bit-for-bit, plus the
explicit ``+Inf``/``-Inf``/``NaN`` spellings the exposition format
mandates for non-finite values.
"""

from __future__ import annotations

import math
import re

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given
from hypothesis import strategies as st

from repro.service.metrics import (
    Gauge,
    Histogram,
    MetricsRegistry,
    _format_value,
)

_SAMPLE_RE = re.compile(r"^(?P<name>[a-zA-Z_:][\w:]*)(?P<labels>\{.*\})? (?P<value>\S+)$")

finite_floats = st.floats(allow_nan=False, allow_infinity=False)


def parse_samples(page: str) -> dict[str, str]:
    """``{sample name + labels: value token}`` for every non-comment line."""
    samples = {}
    for line in page.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        assert match, f"unparseable exposition line: {line!r}"
        key = match.group("name") + (match.group("labels") or "")
        samples[key] = match.group("value")
    return samples


@given(value=finite_floats)
def test_counter_value_round_trips(value):
    registry = MetricsRegistry()
    counter = registry.counter("events_total", "test counter")
    counter.inc(value, path="/solve")
    token = parse_samples(registry.render())['events_total{path="/solve"}']
    assert float(token) == counter.value(path="/solve")
    # repr is the shortest *exact* rendering: parsing must be lossless
    # even for values like 0.1 + 0.2 that decimal rounding would mangle.
    assert float(token).hex() == float(counter.value(path="/solve")).hex()


@given(value=finite_floats)
def test_gauge_value_round_trips(value):
    registry = MetricsRegistry()
    gauge = registry.gauge("queue_depth", "test gauge")
    gauge.set(value)
    token = parse_samples(registry.render())["queue_depth"]
    assert float(token).hex() == float(value).hex()


@given(values=st.lists(st.floats(min_value=-1e12, max_value=1e12), min_size=1, max_size=20))
def test_histogram_sum_round_trips(values):
    registry = MetricsRegistry()
    hist = registry.histogram("latency_seconds", "test histogram", buckets=(0.1, 1.0))
    for v in values:
        hist.observe(v)
    samples = parse_samples(registry.render())
    total = 0.0
    for v in values:
        total += v
    assert float(samples["latency_seconds_sum"]).hex() == total.hex()
    assert int(samples["latency_seconds_count"]) == len(values)
    assert int(samples['latency_seconds_bucket{le="+Inf"}']) == len(values)


@given(value=finite_floats)
def test_format_value_is_repr_for_finite_floats(value):
    assert _format_value(value) == repr(value)
    assert float(_format_value(value)).hex() == value.hex()


def test_format_value_nonfinite_spellings():
    # The exposition format requires these exact spellings; Python's
    # repr ("inf"/"nan") would be rejected by a Prometheus scraper.
    assert _format_value(math.inf) == "+Inf"
    assert _format_value(-math.inf) == "-Inf"
    assert _format_value(math.nan) == "NaN"
    # ... and Python itself parses them right back.
    assert float("+Inf") == math.inf
    assert float("-Inf") == -math.inf
    assert math.isnan(float("NaN"))


def test_nonfinite_gauge_renders_parseable_page():
    registry = MetricsRegistry()
    gauge = registry.gauge("weird", "non-finite values")
    gauge.set(math.inf, case="pos")
    gauge.set(-math.inf, case="neg")
    gauge.set(math.nan, case="nan")
    samples = parse_samples(registry.render())
    assert float(samples['weird{case="pos"}']) == math.inf
    assert float(samples['weird{case="neg"}']) == -math.inf
    assert math.isnan(float(samples['weird{case="nan"}']))


@given(value=st.integers(min_value=-(10**15), max_value=10**15))
def test_integer_values_render_without_exponent(value):
    gauge = Gauge("g", "int gauge")
    gauge.set(value)
    (line,) = gauge.sample_lines()
    token = line.split()[-1]
    assert token == str(value)
    assert int(token) == value


def test_histogram_quantile_estimate_brackets_observations():
    hist = Histogram("h", "latency", buckets=(0.01, 0.1, 1.0))
    for v in (0.005, 0.05, 0.5, 2.0):
        hist.observe(v)
    assert hist.quantile(0.25) == 0.01
    assert hist.quantile(0.75) == 1.0
    assert hist.quantile(1.0) == math.inf


def test_batch_queue_wait_histogram_renders_per_served_request():
    """``repro_service_batch_queue_wait_seconds`` observes every request
    a flush serves, from ``submit`` to its runner starting."""
    import asyncio

    from repro.api import SolveRequest
    from repro.core.traffic import TrafficClass
    from repro.engine import BatchSolver, EngineConfig
    from repro.service import ServiceConfig, SolveService

    async def scenario() -> str:
        service = SolveService(
            ServiceConfig(port=0), engine=BatchSolver(EngineConfig())
        )
        service.batcher._runner = lambda requests: [None] * len(requests)
        loop = asyncio.get_running_loop()
        futures = [loop.create_future() for _ in range(3)]
        for n, future in enumerate(futures):
            service.batcher.submit(
                SolveRequest.square(4 + n, [TrafficClass.poisson(0.01)]),
                future,
            )
        await asyncio.wait_for(asyncio.gather(*futures), timeout=5.0)
        await service.batcher.close()
        return service.registry.render()

    page = asyncio.run(scenario())
    name = "repro_service_batch_queue_wait_seconds"
    assert f"# TYPE {name} histogram" in page
    samples = parse_samples(page)
    assert int(samples[f"{name}_count"]) == 3
    assert int(samples[f'{name}_bucket{{le="+Inf"}}']) == 3
    assert 0.0 <= float(samples[f"{name}_sum"]) < 5.0


def test_kernel_scaled_fallbacks_gauge_reads_counter_at_render():
    """``repro_kernel_scaled_fallbacks`` exports the scaled kernel's
    fallback counter, read at scrape time rather than at start-up."""
    from repro.core.kernels import scaled_fallback_count, sweep_scaled
    from repro.core.state import SwitchDimensions
    from repro.core.traffic import TrafficClass
    from repro.engine import BatchSolver, EngineConfig
    from repro.service.gate import AdmissionGate
    from repro.service.server import _Instruments

    registry = MetricsRegistry()
    _Instruments(registry, AdmissionGate(4), BatchSolver(EngineConfig()))
    name = "repro_kernel_scaled_fallbacks"
    before = parse_samples(registry.render())[name]
    assert int(before) == scaled_fallback_count()
    # Past the 1/n1! float64 cliff the scaled kernel falls back.
    sweep_scaled(SwitchDimensions(185, 2), (TrafficClass.poisson(0.05),))
    after = parse_samples(registry.render())[name]
    assert int(after) == int(before) + 1 == scaled_fallback_count()
