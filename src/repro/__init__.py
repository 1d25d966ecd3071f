"""Asynchronous multi-rate crossbar performance analysis with bursty traffic.

A production-quality reproduction of

    P. Stirpe and E. Pinsky, "Performance Analysis of an Asynchronous
    Multi-rate Crossbar with Bursty Traffic", SIGCOMM 1992.

The library models an ``N1 x N2`` unbuffered, asynchronous,
circuit-switched crossbar (the building block of free-space optical
interconnects) carrying multiple classes of multi-rate traffic with
Bernoulli-Poisson-Pascal (BPP) bursty arrival statistics, and computes
exact blocking probabilities, concurrencies, throughputs and
revenue-oriented sensitivities.

Quick start
-----------
>>> from repro import CrossbarModel, TrafficClass
>>> model = CrossbarModel.square(
...     32,
...     [
...         TrafficClass.poisson(0.001, name="data"),
...         TrafficClass.from_moments(0.4, peakedness=3.0, name="video"),
...     ],
... )
>>> solution = model.solve()
>>> 0.0 <= solution.blocking(0) <= 1.0
True

Package map
-----------
* :mod:`repro.api` -- the unified typed entry point
  (``SolveRequest -> solve/solve_many -> SolveResult``);
* :mod:`repro.engine` -- the batched, memoizing evaluation engine
  behind every solve;
* :mod:`repro.core` -- the analytical model (paper Sections 2-6);
* :mod:`repro.ctmc` -- independent CTMC solver (no product form);
* :mod:`repro.sim` -- discrete-event simulator (paper's future work);
* :mod:`repro.multistage` -- multistage-network extension (Section 8);
* :mod:`repro.robust` -- fault models, degraded-mode analysis and the
  resilient solver facade (``solve_robust``);
* :mod:`repro.service` -- the JSON/HTTP solve-serving daemon and the
  sharded multi-worker cluster supervisor (``ServiceConfig`` is the
  typed way to configure either);
* :mod:`repro.loadgen` -- the declarative cluster load harness
  (``LoadSpec -> run_load -> LoadReport``);
* :mod:`repro.workloads` -- the paper's figure/table scenarios;
* :mod:`repro.reporting` -- text tables and series for the benchmarks.

Serving and load-generation names (``ServiceConfig``, ``ServiceClient``,
``serve_cluster``, ``LoadSpec``, ...), the robust facade
(``solve_robust``, ``FaultModel``, ...) and the analyses outside the
default solve path (``solve_mva``, ``solve_exact``, ``revenue_report``,
the moments, ...) are promoted to this namespace but imported lazily
(PEP 562), and nothing imported eagerly reaches scipy or the
analysis-only packages (``ctmc``, ``sim``, ``multistage``,
``workloads``, ``reporting``, ``verify``, ``extensions``): they load when
first used.  So ``import repro`` costs numpy plus the default solve
path, and a serving process -- ``crossbar-repro serve``, or a fleet
worker being respawned while its shard is out of service -- holds only
the modules it serves with and starts in a fraction of the time scipy
alone takes to import.  ``tests/test_import_budget.py`` holds that line.
"""

from . import _lazy
from .api import SolveRequest, SolveResult, solve, solve_many
from .core import (
    CrossbarModel,
    PerformanceSolution,
    StateDistribution,
    SwitchDimensions,
    TrafficClass,
    solve_brute_force,
    solve_convolution,
)
from .exceptions import (
    ComputationError,
    ConfigurationError,
    ConvergenceError,
    CrossbarError,
    InvalidParameterError,
    OverflowInRecursionError,
    SimulationError,
)
from .methods import SolveMethod

#: Names promoted to the package namespace but resolved on first access
#: (PEP 562): the serving and load-harness names, the analyses outside
#: the default solve path and the robust facade.  A serving process
#: imports none of their modules.
_LAZY_EXPORTS = {
    "AsymptoticSolution": ".core",
    "carried_peakedness": ".core",
    "concurrency_covariance": ".core",
    "concurrency_variance": ".core",
    "factorial_moment": ".core",
    "gradient_burstiness": ".core",
    "gradient_rho": ".core",
    "gradient_rho_closed_form": ".core",
    "marginal_value": ".core",
    "occupancy_pmf": ".core",
    "occupancy_variance": ".core",
    "revenue_report": ".core",
    "shadow_cost": ".core",
    "solve_asymptotic": ".core",
    "solve_exact": ".core",
    "solve_mva": ".core",
    "time_congestion": ".core",
    "FailureMask": ".robust",
    "FaultModel": ".robust",
    "NoHealthySolutionError": ".robust",
    "PortFailureProcess": ".robust",
    "RobustSolution": ".robust",
    "SolverDiagnostics": ".robust",
    "availability_weighted_measures": ".robust",
    "solve_degraded": ".robust",
    "solve_robust": ".robust",
    "ClusterConfig": ".service",
    "ClusterSupervisor": ".service",
    "LoadReport": ".loadgen",
    "LoadSpec": ".loadgen",
    "RetryPolicy": ".service",
    "ServiceClient": ".service",
    "ServiceConfig": ".service",
    "expected_fleet_blocking": ".loadgen",
    "run_load": ".loadgen",
    "serve": ".service",
    "serve_cluster": ".service",
    "start_cluster_in_thread": ".service",
    "start_in_thread": ".service",
}

__getattr__, __dir__ = _lazy.lazy_exports(
    __name__, _LAZY_EXPORTS, globals()
)


__version__ = "5.0.0"

__all__ = [
    "AsymptoticSolution",
    "ClusterConfig",
    "ClusterSupervisor",
    "CrossbarModel",
    "ComputationError",
    "LoadReport",
    "LoadSpec",
    "RetryPolicy",
    "ServiceClient",
    "ServiceConfig",
    "expected_fleet_blocking",
    "run_load",
    "serve",
    "serve_cluster",
    "start_cluster_in_thread",
    "start_in_thread",
    "carried_peakedness",
    "concurrency_covariance",
    "concurrency_variance",
    "factorial_moment",
    "occupancy_pmf",
    "occupancy_variance",
    "solve_asymptotic",
    "time_congestion",
    "ConfigurationError",
    "ConvergenceError",
    "CrossbarError",
    "FailureMask",
    "FaultModel",
    "InvalidParameterError",
    "NoHealthySolutionError",
    "OverflowInRecursionError",
    "PerformanceSolution",
    "PortFailureProcess",
    "RobustSolution",
    "SimulationError",
    "SolveMethod",
    "SolveRequest",
    "SolveResult",
    "solve",
    "solve_many",
    "SolverDiagnostics",
    "availability_weighted_measures",
    "solve_degraded",
    "solve_robust",
    "StateDistribution",
    "SwitchDimensions",
    "TrafficClass",
    "gradient_burstiness",
    "gradient_rho",
    "gradient_rho_closed_form",
    "marginal_value",
    "revenue_report",
    "shadow_cost",
    "solve_brute_force",
    "solve_convolution",
    "solve_exact",
    "solve_mva",
    "__version__",
]
