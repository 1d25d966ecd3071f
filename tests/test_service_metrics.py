"""The metrics registry's series keys.

Each update turns its keyword labels into a sorted series key through
one memoized helper.  These tests pin the exposition page of a fixed
sequence of observations byte for byte (the page the registry rendered
before the helper was memoized), and check that label order, value
types and unhashable values still map to the series they always did.
"""

from __future__ import annotations

from repro.service.metrics import MetricsRegistry


def observe_fixed_sequence(registry: MetricsRegistry) -> None:
    """A fixed mix of counter, histogram and gauge updates."""
    """A fixed mix of counter, histogram and gauge updates."""
    requests = registry.counter(
        "demo_requests_total", "Requests by endpoint and status."
    )
    hits = registry.counter("demo_hits_total", "Unlabelled counter.")
    latency = registry.histogram(
        "demo_request_seconds", "Latency by endpoint.", (0.001, 0.5, 1.0)
    )
    sizes = registry.histogram("demo_batch_size", "Sizes.", (1.0, 32.0))
    tokens = registry.gauge("demo_tokens", "Tokens by state.")
    info = registry.gauge("demo_info", "Build info.")
    for i in range(7):
        requests.inc(endpoint="POST /solve", status="200")
        latency.observe(0.0003 * (i + 1), endpoint="POST /solve")
        hits.inc()
    requests.inc(status="503", endpoint="POST /solve")
    requests.inc(endpoint="GET /metrics", status=200)
    requests.inc(2.5, status="200", endpoint="POST /batch")
    latency.observe(0.75, endpoint="POST /batch")
    latency.observe(12.0, endpoint="POST /batch")
    for size in (1.0, 32.0, 300.0):
        sizes.observe(size)
    tokens.set(lambda: 3, state="in_use")
    tokens.set(8, state="capacity")
    tokens.set(0.1 + 0.2, state="ratio")
    info.set(1, version="2.2.0", build='a"b\\c')


EXPECTED_PAGE = """\
# HELP demo_requests_total Requests by endpoint and status.
# TYPE demo_requests_total counter
demo_requests_total{endpoint="GET /metrics",status="200"} 1
demo_requests_total{endpoint="POST /batch",status="200"} 2.5
demo_requests_total{endpoint="POST /solve",status="200"} 7
demo_requests_total{endpoint="POST /solve",status="503"} 1
# HELP demo_hits_total Unlabelled counter.
# TYPE demo_hits_total counter
demo_hits_total 7
# HELP demo_request_seconds Latency by endpoint.
# TYPE demo_request_seconds histogram
demo_request_seconds_bucket{endpoint="POST /batch",le="0.001"} 0
demo_request_seconds_bucket{endpoint="POST /batch",le="0.5"} 0
demo_request_seconds_bucket{endpoint="POST /batch",le="1.0"} 1
demo_request_seconds_bucket{endpoint="POST /batch",le="+Inf"} 2
demo_request_seconds_sum{endpoint="POST /batch"} 12.75
demo_request_seconds_count{endpoint="POST /batch"} 2
demo_request_seconds_bucket{endpoint="POST /solve",le="0.001"} 3
demo_request_seconds_bucket{endpoint="POST /solve",le="0.5"} 7
demo_request_seconds_bucket{endpoint="POST /solve",le="1.0"} 7
demo_request_seconds_bucket{endpoint="POST /solve",le="+Inf"} 7
demo_request_seconds_sum{endpoint="POST /solve"} 0.0084
demo_request_seconds_count{endpoint="POST /solve"} 7
# HELP demo_batch_size Sizes.
# TYPE demo_batch_size histogram
demo_batch_size_bucket{le="1.0"} 1
demo_batch_size_bucket{le="32.0"} 2
demo_batch_size_bucket{le="+Inf"} 3
demo_batch_size_sum 333.0
demo_batch_size_count 3
# HELP demo_tokens Tokens by state.
# TYPE demo_tokens gauge
demo_tokens{state="capacity"} 8
demo_tokens{state="in_use"} 3
demo_tokens{state="ratio"} 0.30000000000000004
# HELP demo_info Build info.
# TYPE demo_info gauge
demo_info{build="a\\"b\\\\c",version="2.2.0"} 1
"""


def test_exposition_of_a_fixed_sequence_is_unchanged():
    registry = MetricsRegistry()
    observe_fixed_sequence(registry)
    assert registry.render() == EXPECTED_PAGE
    # Rendering reads only: a second page is the same bytes.
    assert registry.render() == EXPECTED_PAGE


def test_label_order_lands_on_one_series():
    registry = MetricsRegistry()
    counter = registry.counter("demo_total", "Two labels.")
    histogram = registry.histogram("demo_seconds", "Two labels.", (1.0,))
    for _ in range(3):
        counter.inc(a="x", b="y")
        counter.inc(b="y", a="x")
        histogram.observe(0.5, a="x", b="y")
        histogram.observe(2.0, b="y", a="x")
    assert counter.value(a="x", b="y") == counter.value(b="y", a="x") == 6
    assert histogram.count(b="y", a="x") == 6
    assert registry.render().count('demo_total{a="x",b="y"} 6') == 1


def test_equal_label_values_of_other_types_stay_separate_series():
    counter = MetricsRegistry().counter("demo_total", "Typed labels.")
    counter.inc(flag="1")
    counter.inc(flag=1)
    counter.inc(flag=1.0)
    counter.inc(flag=True)
    counter.inc(flag=[1])  # unhashable: rendered with str() as before
    assert [counter.value(flag=v) for v in ("1", "1.0", "True", "[1]")] \
        == [2, 1, 1, 1]
