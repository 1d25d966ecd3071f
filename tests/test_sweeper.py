"""Tests for the declarative sweep runner."""

from __future__ import annotations

import csv
import io

import pytest

from repro.core.mva import solve_mva
from repro.core.traffic import TrafficClass
from repro.exceptions import ConfigurationError
from repro.experiments import SweepSpec, run_sweep, write_csv


def _classes(n: int):
    return [
        TrafficClass.from_aggregate(0.0024, 0.0, n2=n, name="p"),
        TrafficClass.from_aggregate(0.0012, 0.0006, n2=n, name="pk"),
    ]


class TestRunSweep:
    def test_rows_and_columns(self):
        spec = SweepSpec(
            name="s", sizes=[2, 4], classes_for=_classes,
            measures=("blocking", "revenue"),
        )
        rows = run_sweep(spec)
        assert [row["n"] for row in rows] == [2, 4]
        assert "blocking[p]" in rows[0]
        assert "blocking[pk]" in rows[0]
        assert "revenue" in rows[0]

    def test_values_match_direct_solve(self):
        from repro.core.convolution import solve_convolution
        from repro.core.state import SwitchDimensions

        spec = SweepSpec(
            name="s", sizes=[4], classes_for=_classes,
            measures=("blocking", "concurrency", "utilization"),
        )
        row = run_sweep(spec)[0]
        direct = solve_convolution(SwitchDimensions.square(4), _classes(4))
        assert row["blocking[p]"] == pytest.approx(direct.blocking(0))
        assert row["concurrency[pk]"] == pytest.approx(
            direct.concurrency(1)
        )
        assert row["utilization"] == pytest.approx(direct.utilization())

    def test_custom_solver(self):
        spec = SweepSpec(
            name="s", sizes=[3], classes_for=_classes,
            measures=("blocking",), solver=solve_mva,
        )
        with pytest.warns(DeprecationWarning, match="SweepSpec.solver"):
            rows = run_sweep(spec)
        assert rows[0]["blocking[p]"] > 0.0

    def test_unknown_measure_rejected(self):
        spec = SweepSpec(
            name="s", sizes=[2], classes_for=_classes,
            measures=("latency",),
        )
        with pytest.raises(ConfigurationError):
            run_sweep(spec)

    def test_empty_sizes_rejected(self):
        spec = SweepSpec(name="s", sizes=[], classes_for=_classes)
        with pytest.raises(ConfigurationError):
            run_sweep(spec)


class TestWriteCsv:
    def test_csv_roundtrip(self, tmp_path):
        spec = SweepSpec(
            name="s", sizes=[2, 4], classes_for=_classes,
            measures=("blocking", "revenue"),
        )
        rows = run_sweep(spec)
        path = tmp_path / "sweep.csv"
        text = write_csv(rows, path)
        assert path.read_text() == text
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == 2
        assert float(parsed[1]["revenue"]) == pytest.approx(
            rows[1]["revenue"]
        )

    def test_empty_rows_rejected(self):
        with pytest.raises(ConfigurationError):
            write_csv([])

    def test_docstring_example(self):
        import doctest

        import repro.experiments.sweeper as module

        results = doctest.testmod(module)
        assert results.failed == 0


class TestFailedPoints:
    def test_failed_point_becomes_error_row(self):
        from repro.engine import (
            BatchSolver,
            ChaosFault,
            EngineConfig,
            FaultPlan,
            set_default_engine,
        )
        from repro.engine.chaos import ALL_ATTEMPTS

        # Size-dependent mixes prevent Q-grid grouping, so each point
        # is its own supervised task; task 1 (n=4) fails permanently.
        chaos = FaultPlan(
            faults=(
                ChaosFault(
                    "transient-error", task=1, attempt=ALL_ATTEMPTS
                ),
            )
        )
        previous = set_default_engine(
            BatchSolver(EngineConfig(chaos=chaos, max_retries=0))
        )
        try:
            spec = SweepSpec(
                name="s", sizes=[3, 4], classes_for=_classes,
                measures=("blocking",),
            )
            rows = run_sweep(spec)
        finally:
            set_default_engine(previous)
        assert rows[0]["n"] == 3
        assert "blocking[p]" in rows[0]
        assert rows[1] == {
            "n": 4,
            "error": rows[1]["error"],
        }
        assert rows[1]["error"].startswith("OSError")
        # The union-of-columns CSV writer leaves the measures blank.
        text = write_csv(rows)
        reader = list(csv.DictReader(io.StringIO(text)))
        assert reader[1]["blocking[p]"] == ""
        assert "OSError" in reader[1]["error"]
