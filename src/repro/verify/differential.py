"""Cross-solver differential comparison with ULP-aware tolerances.

One configuration, every applicable solver, all pairs compared.  The
solver set mirrors :mod:`repro.validation` (Algorithm 1 in three
numeric modes, Algorithm 2, the diagonal series solver, exact
rationals, brute force and the raw CTMC), plus the pure-python oracle
of each NumPy kernel (:mod:`repro.verify.reference`, entries named
``reference/<method>``), but differs in two ways that matter for
fuzzing:

* solvers are invoked **directly** through late-bound module lookups,
  never through the batched engine — a cached result would mask a
  freshly injected bug, and a test monkeypatching e.g.
  ``repro.core.mva.solve_mva`` must see its replacement actually run;
* disagreement is judged per *pair* under per-method tolerance
  metadata (:attr:`repro.methods.SolveMethod.rel_tolerance`) plus an
  ULP floor, so a tightening of one solver never silently loosens the
  comparison of two others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..exceptions import ComputationError
from ..methods import SolveMethod
from .generators import ModelConfig

__all__ = [
    "MEASURES",
    "Disagreement",
    "DifferentialReport",
    "applicable_methods",
    "pair_tolerance",
    "run_differential",
]

#: The scalar per-class measures every solver must agree on.
MEASURES = ("blocking", "concurrency", "acceptance")

#: Methods outside the :class:`SolveMethod` enum that still join the
#: differential (the CTMC is a solution *route*, not a solve API
#: method), with their trusted relative accuracy.
_EXTRA_TOLERANCES = {"ctmc": 1e-6}

#: Enumeration methods are skipped above this state-space size and
#: exact rationals above this capacity (same limits as validation).
from ..validation import ENUMERATION_LIMIT, EXACT_CAPACITY_LIMIT  # noqa: E402

#: Absolute comparison floor: measures this small are treated as equal
#: regardless of relative error (they are pure round-off territory).
ABS_FLOOR = 1e-12

#: The CTMC's arrival rates carry ``P(N1-used, a) P(N2-used, a)``
#: multiplicities, so a class with bandwidth ``a`` near the capacity
#: puts ``(a!)^2``-scale entries next to unit teardown rates in the
#: generator; past ~1e9 of dynamic range the sparse LU loses the small
#: stationary components entirely (empirically: a <= 8 on a 12x12
#: agrees to 1e-12, a = 12 is off by 30%).  The chain is skipped above
#: this spread — the model is fine, float64 is not.
CTMC_RATE_SPREAD_LIMIT = 1e9


def _measures_of(solution, n_classes: int) -> dict[str, tuple[float, ...]]:
    """Normalize any solved-model object to the shared measure dict."""
    if hasattr(solution, "blocking_probability"):  # StateDistribution
        blocking = [solution.blocking_probability(r) for r in range(n_classes)]
    else:
        blocking = [solution.blocking(r) for r in range(n_classes)]
    return {
        "blocking": tuple(float(b) for b in blocking),
        "concurrency": tuple(
            float(solution.concurrency(r)) for r in range(n_classes)
        ),
        "acceptance": tuple(
            float(solution.call_acceptance(r)) for r in range(n_classes)
        ),
    }


# ----------------------------------------------------------------------
# Solver dispatch (late-bound so monkeypatches take effect)
# ----------------------------------------------------------------------


def _run_convolution(mode: str):
    def call(config: ModelConfig):
        from ..core import convolution

        return convolution.solve_convolution(
            config.dims, config.classes, mode=mode
        )

    return call


def _run_mva(config: ModelConfig):
    from ..core import mva

    return mva.solve_mva(config.dims, config.classes)


def _run_reference_convolution(mode: str):
    def call(config: ModelConfig):
        from . import reference

        return reference.solve_convolution(
            config.dims, config.classes, mode=mode
        )

    return call


def _run_reference_mva(config: ModelConfig):
    from . import reference

    return reference.solve_mva(config.dims, config.classes)


def _run_series(config: ModelConfig):
    from ..core import series_solver

    return series_solver.solve_series(config.dims, config.classes)


def _run_exact(config: ModelConfig):
    from ..core import exact

    return exact.solve_exact(config.dims, config.classes)


def _run_brute_force(config: ModelConfig):
    from ..core import productform

    return productform.solve_brute_force(config.dims, config.classes)


def _run_ctmc(config: ModelConfig):
    from ..ctmc import solve as ctmc_solve

    return ctmc_solve.solve_ctmc(config.dims, config.classes)


#: Prefix of the pure-python oracle entries (:mod:`repro.verify.reference`):
#: ``reference/<method>`` runs ``<method>`` on the scalar sweeps and is
#: trusted to that method's tolerance, so every production kernel is
#: compared with its oracle on every configuration.
REFERENCE_PREFIX = "reference/"

_SOLVERS = {
    SolveMethod.CONVOLUTION.value: _run_convolution("log"),
    SolveMethod.CONVOLUTION_SCALED.value: _run_convolution("scaled"),
    SolveMethod.CONVOLUTION_FLOAT.value: _run_convolution("float"),
    SolveMethod.MVA.value: _run_mva,
    "reference/convolution": _run_reference_convolution("log"),
    "reference/convolution-scaled": _run_reference_convolution("scaled"),
    "reference/convolution-float": _run_reference_convolution("float"),
    "reference/mva": _run_reference_mva,
    SolveMethod.SERIES.value: _run_series,
    SolveMethod.EXACT.value: _run_exact,
    SolveMethod.BRUTE_FORCE.value: _run_brute_force,
    "ctmc": _run_ctmc,
}


def method_tolerance(method: str) -> float:
    """Trusted relative accuracy of one method name."""
    if method in _EXTRA_TOLERANCES:
        return _EXTRA_TOLERANCES[method]
    return SolveMethod.coerce(
        method.removeprefix(REFERENCE_PREFIX)
    ).rel_tolerance


def pair_tolerance(method_a: str, method_b: str) -> float:
    """Comparison tolerance for one solver pair: the looser of the two."""
    return max(method_tolerance(method_a), method_tolerance(method_b))


def applicable_methods(config: ModelConfig) -> list[str]:
    """The solver names worth attempting on this configuration.

    Enumeration-based methods are excluded above the state-space limit
    and exact rationals above the capacity limit; everything else is
    attempted and may still be skipped at run time (e.g. Algorithm 2's
    smooth-stability guard, the unscaled mode's overflow)."""
    from ..core.state import permutation, state_space_size

    methods = [
        SolveMethod.CONVOLUTION.value,
        SolveMethod.CONVOLUTION_SCALED.value,
        SolveMethod.CONVOLUTION_FLOAT.value,
        SolveMethod.MVA.value,
        "reference/convolution",
        "reference/convolution-scaled",
        "reference/convolution-float",
        "reference/mva",
        SolveMethod.SERIES.value,
    ]
    if config.capacity <= EXACT_CAPACITY_LIMIT:
        methods.append(SolveMethod.EXACT.value)
    if state_space_size(config.dims, config.classes) <= ENUMERATION_LIMIT:
        methods.append(SolveMethod.BRUTE_FORCE.value)
        rate_spread = max(
            permutation(config.dims.n1, cls.a)
            * permutation(config.dims.n2, cls.a)
            for cls in config.classes
        )
        if rate_spread <= CTMC_RATE_SPREAD_LIMIT:
            methods.append("ctmc")
    return methods


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Disagreement:
    """One measure on which two solvers disagree beyond tolerance."""

    method_a: str
    method_b: str
    measure: str
    class_index: int
    value_a: float
    value_b: float
    tolerance: float

    @property
    def rel_error(self) -> float:
        scale = max(abs(self.value_a), abs(self.value_b), ABS_FLOOR)
        return abs(self.value_a - self.value_b) / scale

    def describe(self) -> str:
        return (
            f"{self.method_a} vs {self.method_b}: {self.measure}"
            f"[{self.class_index}] = {self.value_a!r} vs "
            f"{self.value_b!r} (rel {self.rel_error:.3g} > tol "
            f"{self.tolerance:.3g})"
        )

    def to_dict(self) -> dict:
        return {
            "pair": [self.method_a, self.method_b],
            "measure": self.measure,
            "class_index": self.class_index,
            "values": [self.value_a, self.value_b],
            "rel_error": self.rel_error,
            "tolerance": self.tolerance,
        }


@dataclass
class DifferentialReport:
    """Everything one differential run produced."""

    config: ModelConfig
    values: dict[str, dict[str, tuple[float, ...]]] = field(
        default_factory=dict
    )
    skipped: list[tuple[str, str]] = field(default_factory=list)
    disagreements: list[Disagreement] = field(default_factory=list)

    @property
    def methods(self) -> tuple[str, ...]:
        return tuple(self.values)

    @property
    def consistent(self) -> bool:
        """At least two methods ran and all pairs agreed."""
        return len(self.values) >= 2 and not self.disagreements

    def render(self) -> str:
        lines = [
            f"differential on {self.config.describe()}: "
            f"{len(self.values)} methods, "
            f"{len(self.disagreements)} disagreements"
        ]
        for d in self.disagreements:
            lines.append("  " + d.describe())
        for method, reason in self.skipped:
            lines.append(f"  {method}: skipped ({reason})")
        return "\n".join(lines)


#: Probability measures computed as ``1 - <something near 1>``: their
#: absolute error is relative to the *complement*, so a tiny blocking
#: probability carries the complement's round-off amplified by 1/B.
#: Scaling by the larger of value and complement compares what the
#: solvers actually resolve.
_COMPLEMENT_MEASURES = frozenset({"blocking"})


def _values_disagree(
    x: float, y: float, tol: float, complement: bool = False
) -> bool:
    if x == y:
        return False
    if math.isnan(x) or math.isnan(y):
        return True
    scale = max(abs(x), abs(y))
    if complement:
        scale = max(scale, abs(1.0 - x), abs(1.0 - y))
    if max(abs(x), abs(y)) <= ABS_FLOOR:
        return False
    # ULP floor: even "exact" methods round once per float operation
    # when extracting measures; 16 ulps of the larger magnitude is far
    # below any real defect's footprint.
    floor = 16.0 * math.ulp(scale)
    return abs(x - y) > tol * scale + floor


def run_differential(
    config: ModelConfig, methods: list[str] | None = None
) -> DifferentialReport:
    """Run every applicable solver pair on ``config`` and compare.

    Solver failures of the *expected* kind (stability guards, unscaled
    overflow) become skips; anything else propagates — an unexpected
    crash is a finding, not noise.
    """
    report = DifferentialReport(config=config)
    n = len(config.classes)
    for method in methods or applicable_methods(config):
        try:
            solution = _SOLVERS[method](config)
        except ComputationError as exc:
            report.skipped.append((method, str(exc)[:80]))
            continue
        report.values[method] = _measures_of(solution, n)

    names = list(report.values)
    for i, method_a in enumerate(names):
        for method_b in names[i + 1 :]:
            tol = pair_tolerance(method_a, method_b)
            for measure in MEASURES:
                va = report.values[method_a][measure]
                vb = report.values[method_b][measure]
                complement = measure in _COMPLEMENT_MEASURES
                for r, (x, y) in enumerate(zip(va, vb)):
                    if _values_disagree(x, y, tol, complement=complement):
                        report.disagreements.append(
                            Disagreement(
                                method_a, method_b, measure, r, x, y, tol
                            )
                        )
    return report
