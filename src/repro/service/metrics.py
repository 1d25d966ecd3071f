"""A hand-rolled Prometheus text-format metrics registry (stdlib only).

Implements the subset of the exposition format (version 0.0.4) the
daemon needs: counters, gauges and cumulative histograms, with flat
label support.  Values are rendered with ``repr()`` — shortest exact
round-trip — so a scraper (or a test) parsing the page recovers the
counters *exactly*; the admission blocking ratio on ``/metrics`` is
required by the tests to match the observed 503 count to the last bit.

Metrics are only mutated from the service event loop, so plain Python
numbers are sufficient; ``render()`` may be called from any thread (it
only reads).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterable, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
    "BATCH_SIZE_BUCKETS",
    "QUEUE_WAIT_BUCKETS",
]

#: Request-latency buckets (seconds): sub-millisecond cache hits up to
#: multi-second cold sweeps.
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Micro-batch size buckets (requests per flush).
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

#: Micro-batch queue-wait buckets (seconds): a next-turn flush waits
#: tens of microseconds, one queued behind a computing flush waits
#: about a solve.
QUEUE_WAIT_BUCKETS = (
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 1.0,
)


#: Label-key memo entries per metric before it is cleared and refilled.
_KEY_MEMO_CAP = 1024


def _format_value(value: float | int) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):  # pragma: no cover - never emitted on purpose
        return "NaN"
    return repr(value)


def _format_labels(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape(value)}"' for name, value in labels
    )
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


class _Metric:
    kind = "untyped"

    def __init__(self, name: str, help_text: str) -> None:
        self.name = name
        self.help_text = help_text
        #: ``tuple(labels.items())`` -> series key, for all-string
        #: label values (the daemon's hot updates pass the same few).
        self._keys: dict[tuple, tuple[tuple[str, str], ...]] = {}

    def _series_key(self, labels: dict) -> tuple[tuple[str, str], ...]:
        """``labels`` as a sorted ``(name, str(value))`` series key.

        Memoized on the call's label items, so a repeat update sorts
        nothing; ``inc(a=..., b=...)`` and ``inc(b=..., a=...)`` are
        two memo entries for one series.  Only all-string values are
        memoized: ``1``, ``1.0`` and ``True`` compare equal but render
        differently.
        """
        if not labels:
            return ()
        items = tuple(labels.items())
        try:
            key = self._keys.get(items)
        except TypeError:  # an unhashable label value
            key = None
        if key is None:
            key = tuple(sorted((k, str(v)) for k, v in items))
            if all(type(v) is str for _, v in items):
                if len(self._keys) >= _KEY_MEMO_CAP:
                    self._keys.clear()
                self._keys[items] = key
        return key

    def header(self) -> list[str]:
        return [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]

    def sample_lines(self) -> list[str]:  # pragma: no cover - abstract
        raise NotImplementedError

    def render(self) -> list[str]:
        return self.header() + self.sample_lines()


class Counter(_Metric):
    """Monotone counter, optionally labelled."""

    kind = "counter"

    def __init__(self, name: str, help_text: str) -> None:
        super().__init__(name, help_text)
        self._values: dict[tuple[tuple[str, str], ...], float] = {}

    def inc(self, amount: float = 1, **labels: str) -> None:
        key = self._series_key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: str) -> float:
        key = self._series_key(labels)
        return self._values.get(key, 0)

    def total(self) -> float:
        return sum(self._values.values())

    def sample_lines(self) -> list[str]:
        if not self._values:
            return [f"{self.name} 0"]
        return [
            f"{self.name}{_format_labels(labels)} {_format_value(value)}"
            for labels, value in sorted(self._values.items())
        ]


class Gauge(_Metric):
    """Point-in-time value; supports callables for scrape-time reads."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str) -> None:
        super().__init__(name, help_text)
        self._values: dict[tuple[tuple[str, str], ...], object] = {}

    def set(self, value, **labels: str) -> None:
        """Set a number, or a zero-argument callable read at render."""
        key = self._series_key(labels)
        self._values[key] = value

    def sample_lines(self) -> list[str]:
        if not self._values:
            return [f"{self.name} 0"]
        lines = []
        for labels, value in sorted(self._values.items()):
            if callable(value):
                value = value()
            lines.append(
                f"{self.name}{_format_labels(labels)} {_format_value(value)}"
            )
        return lines


class Histogram(_Metric):
    """Cumulative histogram with ``_bucket``/``_sum``/``_count`` series."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help_text)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        self._series: dict[
            tuple[tuple[str, str], ...], tuple[list[int], list[float]]
        ] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = self._series_key(labels)
        counts, acc = self._series.setdefault(
            key, ([0] * (len(self.buckets) + 1), [0.0, 0.0])
        )
        counts[bisect_left(self.buckets, value)] += 1
        acc[0] += value
        acc[1] += 1

    def count(self, **labels: str) -> int:
        key = self._series_key(labels)
        entry = self._series.get(key)
        return int(entry[1][1]) if entry else 0

    def quantile(self, q: float, **labels: str) -> float:
        """Bucket-upper-bound estimate of the ``q`` quantile."""
        key = self._series_key(labels)
        entry = self._series.get(key)
        if entry is None or entry[1][1] == 0:
            return 0.0
        counts = entry[0]
        target = q * entry[1][1]
        running = 0
        for i, bucket_count in enumerate(counts):
            running += bucket_count
            if running >= target:
                if i < len(self.buckets):
                    return self.buckets[i]
                return math.inf
        return math.inf  # pragma: no cover - unreachable

    def sample_lines(self) -> list[str]:
        lines = []
        for labels, (counts, (total, n)) in sorted(self._series.items()):
            running = 0
            for bound, bucket_count in zip(self.buckets, counts):
                running += bucket_count
                bucket_labels = labels + (("le", _format_value(bound)),)
                lines.append(
                    f"{self.name}_bucket{_format_labels(bucket_labels)} "
                    f"{running}"
                )
            running += counts[-1]
            inf_labels = labels + (("le", "+Inf"),)
            lines.append(
                f"{self.name}_bucket{_format_labels(inf_labels)} {running}"
            )
            lines.append(
                f"{self.name}_sum{_format_labels(labels)} "
                f"{_format_value(total)}"
            )
            lines.append(
                f"{self.name}_count{_format_labels(labels)} {int(n)}"
            )
        return lines


class MetricsRegistry:
    """An ordered collection of metrics rendered as one text page."""

    CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

    def __init__(self) -> None:
        self._metrics: list[_Metric] = []

    def counter(self, name: str, help_text: str) -> Counter:
        return self._register(Counter(name, help_text))

    def gauge(self, name: str, help_text: str) -> Gauge:
        return self._register(Gauge(name, help_text))

    def histogram(
        self,
        name: str,
        help_text: str,
        buckets: Iterable[float] = LATENCY_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram(name, help_text, tuple(buckets)))

    def _register(self, metric):
        if any(m.name == metric.name for m in self._metrics):
            raise ValueError(f"duplicate metric name {metric.name!r}")
        self._metrics.append(metric)
        return metric

    def render(self) -> str:
        lines: list[str] = []
        for metric in self._metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"
