"""Tests for the declarative sweep runner."""

from __future__ import annotations

import csv
import io

import pytest

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
        def classes_for(n: int):
            if n == 3:
                return _classes(n)
            # A real solver failure at the second point: a non-integer
            # Bernoulli source count (15.5) whose arrival rate goes
            # negative inside the n = 400 state space.
            return [
                TrafficClass(0.31, 0.2, name="p"),
                TrafficClass(0.155, -0.01, a=2, name="pk"),
            ]

        spec = SweepSpec(
            name="s", sizes=[3, 400], classes_for=classes_for,
            measures=("blocking",),
        )
        rows = run_sweep(spec)
        assert rows[0]["n"] == 3
        assert "blocking[p]" in rows[0]
        assert rows[1] == {
            "n": 400,
            "error": rows[1]["error"],
        }
        assert rows[1]["error"].startswith("InvalidParameterError")
        # The union-of-columns CSV writer leaves the measures blank.
        text = write_csv(rows)
        reader = list(csv.DictReader(io.StringIO(text)))
        assert reader[1]["blocking[p]"] == ""
        assert "InvalidParameterError" in reader[1]["error"]
