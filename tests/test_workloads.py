"""Tests for the paper's scenario definitions and sweep helpers.

These encode the *qualitative reproduction criteria*: the orderings,
monotonicities and magnitude relations the paper's Section 7 reports.
Exact-value anchors live in ``test_paper_values.py``.
"""

from __future__ import annotations

import math

import pytest

from repro.core.state import SwitchDimensions
from repro.core.traffic import TrafficClass
from repro.exceptions import ConfigurationError
from repro.workloads import (
    TABLE1_PAPER,
    figure1,
    figure2,
    figure3,
    figure4,
    find_load_for_blocking,
    find_size_for_blocking,
    sweep_parameter,
    sweep_sizes,
    table1_rows,
    table2_rows,
)

SIZES = (1, 2, 4, 8, 16, 32)  # fast subset for unit tests


class TestFigure1:
    """Smooth traffic: Poisson upper-bounds Bernoulli curves."""

    @pytest.fixture(scope="class")
    def fig(self):
        return figure1(sizes=SIZES)

    def test_poisson_is_upper_bound(self, fig):
        poisson = fig.curve("poisson").values
        for curve in fig.curves[1:]:
            for p, b in zip(poisson, curve.values):
                assert b <= p + 1e-15

    def test_blocking_decreases_with_smoothness(self, fig):
        """More negative beta~ (smoother) -> lower blocking, pointwise."""
        for i in range(len(fig.curves) - 1):
            upper = fig.curves[i].values
            lower = fig.curves[i + 1].values
            for u, v in zip(upper[2:], lower[2:]):
                assert v <= u + 1e-15

    def test_effect_is_small(self, fig):
        """The paper: smooth traffic only perturbs blocking by ~0.1%."""
        poisson = fig.curve("poisson").values[-1]
        smoothest = fig.curves[-1].values[-1]
        assert abs(poisson - smoothest) / poisson < 0.005

    def test_operating_point_near_half_percent(self, fig):
        """alpha~ = .0024 was chosen for ~99.5% non-blocking."""
        for value in fig.curve("poisson").values:
            assert 0.001 < value < 0.01


class TestFigure2:
    """Peaky traffic: dramatic blocking increase with beta~."""

    @pytest.fixture(scope="class")
    def fig(self):
        return figure2(sizes=SIZES)

    def test_blocking_increases_with_peakedness(self, fig):
        for i in range(len(fig.curves) - 1):
            lower = fig.curves[i].values
            upper = fig.curves[i + 1].values
            for u, v in zip(lower[2:], upper[2:]):
                assert v >= u - 1e-15

    def test_dramatic_impact_at_large_n(self):
        """At N = 128 the most peaky curve far exceeds Poisson —
        the paper's headline contrast between Figures 1 and 2."""
        fig = figure2(sizes=(128,))
        poisson = fig.curve("poisson").values[0]
        peaky = fig.curves[-1].values[0]
        smooth_spread = 0.005 * poisson  # Figure 1's effect size
        assert (peaky - poisson) > 10 * smooth_spread

    def test_poisson_curve_matches_figure1(self):
        f1 = figure1(sizes=SIZES).curve("poisson").values
        f2 = figure2(sizes=SIZES).curve("poisson").values
        assert f1 == pytest.approx(f2)


class TestFigure3:
    @pytest.fixture(scope="class")
    def fig(self):
        return figure3(sizes=SIZES)

    def test_adding_poisson_class_shifts_operating_point_up(self, fig):
        """R1+R2 carries twice the load of R2 alone: higher blocking."""
        for beta in ("0.0012", "0.0024"):
            alone = fig.curve(f"R2 only, beta~={beta}").values
            mixed = fig.curve(f"R1+R2, beta~={beta}").values
            for a, m in zip(alone[1:], mixed[1:]):
                assert m > a

    def test_burstiness_effect_similar_at_both_operating_points(self, fig):
        """The paper: beta~ causes the same relative change in blocking
        regardless of the operating point (checked to ~30%)."""
        idx = len(SIZES) - 1
        alone_low = fig.curve("R2 only, beta~=0.0012").values[idx]
        alone_high = fig.curve("R2 only, beta~=0.0024").values[idx]
        mixed_low = fig.curve("R1+R2, beta~=0.0012").values[idx]
        mixed_high = fig.curve("R1+R2, beta~=0.0024").values[idx]
        rel_alone = (alone_high - alone_low) / alone_low
        rel_mixed = (mixed_high - mixed_low) / mixed_low
        assert rel_mixed == pytest.approx(rel_alone, rel=0.5)


class TestFigure4:
    @pytest.fixture(scope="class")
    def fig(self):
        return figure4()

    def test_wide_class_blocks_much_more(self, fig):
        narrow = fig.curves[0].values
        wide = fig.curves[1].values
        for n_val, w_val in zip(narrow, wide):
            assert w_val > 5 * n_val

    def test_both_decrease_with_size(self, fig):
        for curve in fig.curves:
            values = curve.values
            assert all(a > b for a, b in zip(values, values[1:]))


class TestTable1:
    def test_formula_matches_printed_values(self):
        for n, printed1, formula1, printed2, formula2 in table1_rows():
            assert formula1 == pytest.approx(printed1, rel=5e-3)
            assert formula2 == pytest.approx(printed2, rel=5e-3)

    def test_covers_figure4_sizes(self):
        assert sorted(TABLE1_PAPER) == [4, 8, 16, 32, 64]


class TestTable2:
    @pytest.fixture(scope="class")
    def rows(self):
        return table2_rows(0, sizes=(1, 2, 8, 32))

    def test_gradient_rho_positive_and_scales_with_n_squared(self, rows):
        by_n = {r["N"]: r for r in rows}
        assert by_n[32]["dW_drho1"] > 0
        ratio = by_n[32]["dW_drho1"] / by_n[8]["dW_drho1"]
        assert ratio == pytest.approx(16.0, rel=0.05)

    def test_burstiness_gradient_negative_beyond_small_n(self, rows):
        by_n = {r["N"]: r for r in rows}
        assert by_n[8]["dW_dburstiness2"] < 0
        assert by_n[32]["dW_dburstiness2"] < by_n[8]["dW_dburstiness2"]

    def test_revenue_grows_linearly_with_n(self, rows):
        by_n = {r["N"]: r for r in rows}
        assert by_n[32]["revenue"] == pytest.approx(
            4 * by_n[8]["revenue"], rel=0.01
        )

    def test_paper_values_attached(self, rows):
        for row in rows:
            assert row["paper_blocking"] is not None

    def test_increasing_rho2_raises_blocking_more_than_beta2(self):
        """Paper: raising alpha~2 hurts more than the same raise in
        beta~2 (third vs second parameter set)."""
        n = 32
        base = table2_rows(0, sizes=(n,))[0]["blocking"]
        more_beta = table2_rows(1, sizes=(n,))[0]["blocking"]
        more_rho = table2_rows(2, sizes=(n,))[0]["blocking"]
        assert more_rho - base > more_beta - base > 0


class TestSweepHelpers:
    def test_sweep_sizes(self):
        result = sweep_sizes(
            (2, 4),
            lambda n: [TrafficClass.from_aggregate(0.01, 0.0, n2=n)],
            lambda sol: sol.blocking(0),
        )
        assert len(result) == 2
        assert result[0][0] == 2

    def test_sweep_parameter(self):
        result = sweep_parameter(
            (0.1, 0.2),
            lambda rho: (
                SwitchDimensions(4, 4), [TrafficClass.poisson(rho)]
            ),
            lambda sol: sol.blocking(0),
        )
        assert result[1][1] > result[0][1]

    def test_find_size_for_blocking(self):
        # Spread a fixed total offered load over the whole fabric:
        # per-port utilization then falls like 1/n and blocking with it.
        def fixed_total(n):
            return [TrafficClass.poisson(0.2 / n**2)]

        n = find_size_for_blocking(fixed_total, 0.01, n_max=128)
        dims = SwitchDimensions.square(n)
        from repro.core.convolution import solve_convolution

        assert solve_convolution(dims, fixed_total(n)).blocking(0) <= 0.01
        if n > 1:
            smaller = SwitchDimensions.square(n - 1)
            assert (
                solve_convolution(smaller, fixed_total(n - 1)).blocking(0)
                > 0.01
            )

    def test_find_load_for_blocking(self):
        from repro.core.convolution import solve_convolution

        dims = SwitchDimensions.square(6)

        def classes_for(rho):
            return [TrafficClass.poisson(rho)]

        rho = find_load_for_blocking(dims, classes_for, 0.05)
        assert solve_convolution(dims, classes_for(rho)).blocking(
            0
        ) == pytest.approx(0.05, abs=1e-6)

    def test_find_load_target_already_exceeded(self):
        dims = SwitchDimensions.square(4)

        def classes_for(rho):
            # constant heavy background regardless of the knob
            return [TrafficClass.poisson(2.0 + rho)]

        with pytest.raises(ConfigurationError):
            find_load_for_blocking(dims, classes_for, 0.001)

    def test_find_load_unbounded_capacity(self):
        dims = SwitchDimensions.square(4)

        def classes_for(rho):
            return [TrafficClass.poisson(rho)]

        # absurdly loose target: the cap load_max is returned
        value = find_load_for_blocking(
            dims, classes_for, 0.999999, load_max=10.0
        )
        assert value == 10.0

    def test_find_size_rejects_bad_target(self):
        with pytest.raises(ConfigurationError):
            find_size_for_blocking(
                lambda n: [TrafficClass.poisson(0.1)], 1.5
            )

    def test_find_size_unreachable_target(self):
        with pytest.raises(ConfigurationError):
            find_size_for_blocking(
                lambda n: [TrafficClass.poisson(10.0)], 1e-9, n_max=4
            )


def _reference_find_size(classes_for, target, r=0, n_min=1, n_max=64):
    """The pre-engine algorithm: bisection with one full solve per probe."""
    from repro.core.convolution import solve_convolution

    def blocking(n):
        dims = SwitchDimensions.square(n)
        return solve_convolution(dims, classes_for(n)).blocking(r)

    assert blocking(n_max) <= target
    lo, hi = n_min, n_max
    while lo < hi:
        mid = (lo + hi) // 2
        if blocking(mid) <= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


class TestFindSizeEngineEquivalence:
    """The shared-Q-grid ``find_size_for_blocking`` must return exactly
    what per-probe re-solving (the original implementation) returned."""

    def test_table1_configuration_answer_unchanged(self):
        # The paper's Table 1 traffic: the constant aggregate load
        # tau_2 = .0048 re-spread as rho~ = tau / C(n, 2) at every
        # candidate size (a size-dependent mix, the per-probe path) —
        # the same construction as figure4's a=2 series.
        from repro.core.convolution import solve_convolution
        from repro.workloads.scenarios import TABLE1_TAUS

        def classes_for(n):
            rho_tilde = TABLE1_TAUS[1] / math.comb(n, 2)
            return [
                TrafficClass.from_aggregate(
                    rho_tilde, 0.0, n2=n, a=2, name="tau2"
                )
            ]

        # A target strictly between the blocking at n=8 and n=32 so the
        # bisection has real work on the Table 1 size range.
        def blocking_at(n):
            return solve_convolution(
                SwitchDimensions.square(n), classes_for(n)
            ).blocking(0)

        b8, b32 = blocking_at(8), blocking_at(32)
        assert b32 < b8, "Table 1 blocking must fall with size"
        target = math.sqrt(b8 * b32)

        found = find_size_for_blocking(classes_for, target, n_max=64)
        expected = _reference_find_size(classes_for, target, n_max=64)
        assert found == expected
        assert 8 < found <= 32

    def test_constant_mix_served_from_one_grid(self):
        # A size-independent mix takes the shared-grid fast path: the
        # feasibility check solves the n_max Q-grid once, and every
        # bisection probe is an O(1) ratio read off it — the engine
        # records exactly one solve for the whole search.
        from repro.core.convolution import solve_convolution
        from repro.engine import get_default_engine

        classes = [TrafficClass.poisson(0.001, name="data")]

        def classes_for(n):
            return classes

        # Per-pair load is constant, so blocking *rises* with size;
        # any target at or above the n_max blocking is feasible and the
        # bisection walks down to n_min.
        target = (
            solve_convolution(SwitchDimensions.square(32), classes)
            .blocking(0)
            * 1.000001
        )

        engine = get_default_engine()
        engine.clear()
        solves_before = engine.stats.solves
        found = find_size_for_blocking(classes_for, target, n_max=32)
        expected = _reference_find_size(classes_for, target, n_max=32)
        assert found == expected
        assert engine.stats.solves - solves_before == 1, (
            "constant-mix bisection must be served by a single Q-grid solve"
        )
