"""Declarative parameter sweeps with CSV output.

Research workflows around this model are sweeps: blocking vs size,
revenue vs burstiness, utilization vs load.  This module runs them from
a declarative specification and writes tidy CSV (one row per sweep
point, one column per measure), so downstream plotting/analysis never
touches the solver API.

Example
-------
>>> from repro.core.traffic import TrafficClass
>>> from repro.experiments.sweeper import SweepSpec, run_sweep
>>> spec = SweepSpec(
...     name="blocking-vs-size",
...     sizes=[4, 8],
...     classes_for=lambda n: [
...         TrafficClass.from_aggregate(0.0024, 0.0, n2=n, name="p")
...     ],
...     measures=("blocking", "utilization"),
... )
>>> rows = run_sweep(spec)
>>> rows[0]["n"], sorted(rows[0])[:2]
(4, ['blocking[p]', 'n'])
"""

from __future__ import annotations

import csv
import io
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path

from ..api import SolveRequest, SolveResult, solve_many
from ..core.traffic import TrafficClass
from ..exceptions import ConfigurationError

__all__ = ["SweepSpec", "run_sweep", "write_csv"]

#: Measures read off each point's :class:`~repro.api.SolveResult`:
#: per class, and of the whole switch.
_PER_CLASS = {
    "blocking": lambda res, r: res.blocking[r],
    "non_blocking": lambda res, r: res.non_blocking[r],
    "concurrency": lambda res, r: res.concurrency[r],
    "call_congestion": lambda res, r: res.call_congestion[r],
    "throughput": lambda res, r: res.throughput[r],
}
_GLOBAL = {
    "revenue": lambda res: res.revenue,
    "utilization": lambda res: res.utilization,
    "mean_occupancy": lambda res: res.mean_occupancy,
    "total_throughput": lambda res: res.total_throughput,
}


@dataclass
class SweepSpec:
    """A size sweep: which switches, which traffic, which measures.

    The sweep runs through the batched engine
    (:func:`repro.api.solve_many`), which deduplicates repeated points
    and serves constant-mix sweeps from one shared Q-grid.
    """

    name: str
    sizes: Sequence[int]
    classes_for: Callable[[int], Sequence[TrafficClass]]
    measures: Sequence[str] = ("blocking", "concurrency", "revenue")

    def validate(self) -> None:
        if not self.sizes:
            raise ConfigurationError("sweep needs at least one size")
        for measure in self.measures:
            if measure not in _PER_CLASS and measure not in _GLOBAL:
                raise ConfigurationError(
                    f"unknown measure {measure!r}; expected one of "
                    f"{sorted(_PER_CLASS) + sorted(_GLOBAL)}"
                )


def _result_row(
    spec: SweepSpec, n: int, result: SolveResult
) -> dict:
    row: dict = {"n": n}
    for measure in spec.measures:
        if measure in _GLOBAL:
            row[measure] = _GLOBAL[measure](result)
        else:
            for r, cls in enumerate(result.classes):
                label = cls.name or f"class{r}"
                row[f"{measure}[{label}]"] = _PER_CLASS[measure](
                    result, r
                )
    return row


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Execute a sweep; one flat dict per size.

    Every point is batched through :func:`repro.api.solve_many`:
    cached points are free, and sweeps
    whose traffic mix does not depend on ``n`` are served from a single
    Algorithm 1 grid solved at the largest size.
    """
    spec.validate()
    requests = [
        SolveRequest.square(n, tuple(spec.classes_for(n)))
        for n in spec.sizes
    ]
    results = solve_many(requests)
    rows: list[dict] = []
    for n, result in zip(spec.sizes, results):
        if getattr(result, "failed", False):
            # A terminally failed point (engine FailedResult): keep the
            # sweep alive, record the error; write_csv unions columns,
            # so measure cells stay blank for this row.
            rows.append(
                {
                    "n": n,
                    "error": f"{result.error_type}: {result.error_message}",
                }
            )
            continue
        rows.append(_result_row(spec, n, result))
    return rows


def write_csv(rows: Sequence[dict], path: str | Path | None = None) -> str:
    """Serialize sweep rows as CSV; optionally write to ``path``.

    Columns are the union of keys across rows (sizes with fewer classes
    leave blanks), ordered by first appearance.
    """
    if not rows:
        raise ConfigurationError("no rows to serialize")
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    text = buffer.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text
