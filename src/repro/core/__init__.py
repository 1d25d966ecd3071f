"""Core analytical model: product form, fast algorithms, measures.

This package implements the paper's primary contribution:

* :mod:`~repro.core.traffic` — BPP traffic classes;
* :mod:`~repro.core.state` — dimensions and the state space;
* :mod:`~repro.core.productform` — brute-force product-form reference;
* :mod:`~repro.core.convolution` — Algorithm 1 (+ §6 dynamic scaling);
* :mod:`~repro.core.mva` — Algorithm 2 (mean value analysis);
* :mod:`~repro.core.exact` — exact rational arithmetic oracle;
* :mod:`~repro.core.generating` — the generating function (eq. 5);
* :mod:`~repro.core.measures` — the shared measure interface;
* :mod:`~repro.core.revenue` — Section 4's revenue analysis;
* :mod:`~repro.core.model` — the :class:`CrossbarModel` facade.

The default solve path (Algorithm 1 and its kernels, the measures, the
facade, the product-form reference) is imported with the package; the
other solvers and analyses resolve their names on first access.
"""

from .. import _lazy
from .convolution import log_q_grid, solve_convolution
from .measures import PerformanceSolution
from .model import CrossbarModel
from .productform import StateDistribution, solve_brute_force
from .state import SwitchDimensions, iter_states, state_space_size
from .traffic import (
    TrafficClass,
    bpp_mean,
    bpp_peakedness,
    bpp_variance,
    classify_bpp,
    fit_bpp_from_moments,
)

#: Analysis names outside the default solve path, resolved on first
#: access (PEP 562) so a serving process never loads their modules.
_LAZY_EXPORTS = {
    "AsymptoticSolution": ".asymptotic",
    "solve_asymptotic": ".asymptotic",
    "exact_q_table": ".exact",
    "solve_exact": ".exact",
    "evaluate_z": ".generating",
    "normalization_series": ".generating",
    "q_from_series": ".generating",
    "carried_peakedness": ".moments",
    "concurrency_covariance": ".moments",
    "concurrency_variance": ".moments",
    "factorial_moment": ".moments",
    "occupancy_pmf": ".moments",
    "occupancy_variance": ".moments",
    "time_congestion": ".moments",
    "solve_mva": ".mva",
    "DiagonalSolution": ".series_solver",
    "solve_series": ".series_solver",
    "blocking_elasticity_matrix": ".sensitivity",
    "blocking_gradient": ".sensitivity",
    "gradient_burstiness": ".revenue",
    "gradient_rho": ".revenue",
    "gradient_rho_closed_form": ".revenue",
    "marginal_value": ".revenue",
    "port_marginal_revenue": ".revenue",
    "revenue_report": ".revenue",
    "shadow_cost": ".revenue",
}

__getattr__, __dir__ = _lazy.lazy_exports(
    __name__, _LAZY_EXPORTS, globals()
)

__all__ = [
    "AsymptoticSolution",
    "CrossbarModel",
    "PerformanceSolution",
    "StateDistribution",
    "SwitchDimensions",
    "TrafficClass",
    "carried_peakedness",
    "concurrency_covariance",
    "concurrency_variance",
    "factorial_moment",
    "occupancy_pmf",
    "occupancy_variance",
    "DiagonalSolution",
    "solve_asymptotic",
    "solve_series",
    "blocking_elasticity_matrix",
    "blocking_gradient",
    "time_congestion",
    "bpp_mean",
    "bpp_peakedness",
    "bpp_variance",
    "classify_bpp",
    "evaluate_z",
    "exact_q_table",
    "fit_bpp_from_moments",
    "gradient_burstiness",
    "gradient_rho",
    "gradient_rho_closed_form",
    "iter_states",
    "log_q_grid",
    "marginal_value",
    "port_marginal_revenue",
    "normalization_series",
    "q_from_series",
    "revenue_report",
    "shadow_cost",
    "solve_brute_force",
    "solve_convolution",
    "solve_exact",
    "solve_mva",
    "state_space_size",
]
