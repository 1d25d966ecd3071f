"""Self-validation: cross-check every applicable solver on one config.

A user adopting a performance model wants evidence it is computed
correctly *on their configuration*, not just on the library's test
matrix.  :func:`cross_validate` runs every solution method that is
feasible for the given model — Algorithm 1 in all three numeric modes,
Algorithm 2 (when its smooth-stability guard allows), the diagonal
series solver, exact rationals and brute-force enumeration and the raw
CTMC (when the state space is small enough) — and reports the worst
pairwise disagreement per measure.

Exposed on the CLI as ``crossbar-repro validate ...``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .core.convolution import solve_convolution
from .core.exact import solve_exact
from .core.model import CrossbarModel
from .core.mva import solve_mva
from .core.productform import solve_brute_force
from .core.series_solver import solve_series
from .core.state import SwitchDimensions, state_space_size
from .core.traffic import TrafficClass
from .exceptions import ComputationError
from .methods import SolveMethod

#: The library implementations as imported; ``cross_validate`` routes a
#: method through the batched engine only while the module-level name
#: still points at one of these (tests monkeypatch the names to inject
#: failures, and the patched function must then actually be called).
_PRISTINE_SOLVERS = {
    "solve_convolution": solve_convolution,
    "solve_mva": solve_mva,
    "solve_series": solve_series,
    "solve_exact": solve_exact,
}

__all__ = ["ValidationReport", "cross_validate"]

#: Enumeration-based methods are skipped above this state-space size.
ENUMERATION_LIMIT = 20_000
#: Exact rational arithmetic is skipped above this capacity.
EXACT_CAPACITY_LIMIT = 48


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a cross-validation run."""

    dims: SwitchDimensions
    methods: tuple[str, ...]
    skipped: tuple[tuple[str, str], ...]  # (method, reason)
    worst_blocking_deviation: float
    worst_concurrency_deviation: float
    values: dict  # method -> {"blocking": [...], "concurrency": [...]}

    @property
    def consistent(self) -> bool:
        """True when all methods agree to ~1e-8 relative.

        Vacuous agreement does not count: a run in which *every*
        method was skipped is inconsistent — there is nothing to
        validate against, and reporting success would hide the problem.
        """
        if not self.methods:
            return False
        return (
            self.worst_blocking_deviation < 1e-8
            and self.worst_concurrency_deviation < 1e-8
        )

    def render(self) -> str:
        lines = [
            f"cross-validation on {self.dims} "
            f"({len(self.methods)} methods):"
        ]
        for method in self.methods:
            entry = self.values[method]
            lines.append(
                f"  {method:>18}: blocking="
                + ", ".join(f"{b:.10g}" for b in entry["blocking"])
            )
            lines.append(
                f"  {'':>18}  concurrency="
                + ", ".join(f"{e:.10g}" for e in entry["concurrency"])
            )
        for method, reason in self.skipped:
            lines.append(f"  {method:>18}: skipped ({reason})")
        lines.append(
            f"worst relative deviation: blocking "
            f"{self.worst_blocking_deviation:.3g}, concurrency "
            f"{self.worst_concurrency_deviation:.3g} -> "
            + ("CONSISTENT" if self.consistent else "INCONSISTENT")
        )
        return "\n".join(lines)


def _relative_spread(columns: list[list[float]]) -> float:
    worst = 0.0
    for values in zip(*columns):
        low, high = min(values), max(values)
        scale = max(abs(high), 1e-12)
        worst = max(worst, (high - low) / scale)
    return worst


def cross_validate(
    dims: SwitchDimensions, classes: Sequence[TrafficClass]
) -> ValidationReport:
    """Run every feasible solver and compare their measures."""
    classes = tuple(classes)
    model = CrossbarModel(dims, classes)
    n_states = model.state_space_size

    values: dict = {}
    skipped: list[tuple[str, str]] = []

    def record(name: str, blocking: list[float], conc: list[float]) -> None:
        values[name] = {"blocking": blocking, "concurrency": conc}

    def run(name: str, method: SolveMethod, attr: str, call) -> None:
        # Solved through the batched engine: when the surrounding
        # session already evaluated this model (a sweep point, a robust
        # chain attempt) the validation re-run is a cache hit.  A
        # monkeypatched module-level solver bypasses the engine so the
        # replacement really runs (and its failures are attributed).
        fn = globals()[attr]
        try:
            if fn is _PRISTINE_SOLVERS[attr]:
                from .api import SolveRequest
                from .engine import get_default_engine

                solution = get_default_engine().solution_for(
                    SolveRequest(dims, classes, method)
                )
            else:
                solution = call(fn)
        except ComputationError as exc:
            skipped.append((name, str(exc)[:60]))
            return
        record(
            name,
            [solution.blocking(r) for r in range(len(classes))],
            [solution.concurrency(r) for r in range(len(classes))],
        )

    run("convolution/log", SolveMethod.CONVOLUTION,
        "solve_convolution", lambda fn: fn(dims, classes, mode="log"))
    run("convolution/scaled", SolveMethod.CONVOLUTION_SCALED,
        "solve_convolution", lambda fn: fn(dims, classes, mode="scaled"))
    run("convolution/float", SolveMethod.CONVOLUTION_FLOAT,
        "solve_convolution", lambda fn: fn(dims, classes, mode="float"))
    run("mva", SolveMethod.MVA, "solve_mva", lambda fn: fn(dims, classes))
    run("series", SolveMethod.SERIES,
        "solve_series", lambda fn: fn(dims, classes))

    if dims.capacity <= EXACT_CAPACITY_LIMIT:
        run("exact", SolveMethod.EXACT,
            "solve_exact", lambda fn: fn(dims, classes))
    else:
        skipped.append(("exact", f"capacity > {EXACT_CAPACITY_LIMIT}"))

    if n_states <= ENUMERATION_LIMIT:
        dist = solve_brute_force(dims, classes)
        record(
            "brute-force",
            [dist.blocking_probability(r) for r in range(len(classes))],
            [dist.concurrency(r) for r in range(len(classes))],
        )
        # The CTMC leg is the one that needs scipy: import it here so
        # ``import repro`` (which reaches this module via repro.robust)
        # stays free of scipy.
        from .ctmc import solve_ctmc

        chain = solve_ctmc(dims, classes)
        record(
            "ctmc",
            [
                chain.blocking_probability(r)
                for r in range(len(classes))
            ],
            [chain.concurrency(r) for r in range(len(classes))],
        )
    else:
        skipped.append(
            ("brute-force", f"{n_states} states > {ENUMERATION_LIMIT}")
        )
        skipped.append(("ctmc", f"{n_states} states > {ENUMERATION_LIMIT}"))

    blocking_columns = [v["blocking"] for v in values.values()]
    conc_columns = [v["concurrency"] for v in values.values()]
    return ValidationReport(
        dims=dims,
        methods=tuple(values),
        skipped=tuple(skipped),
        worst_blocking_deviation=_relative_spread(blocking_columns),
        worst_concurrency_deviation=_relative_spread(conc_columns),
        values=values,
    )
