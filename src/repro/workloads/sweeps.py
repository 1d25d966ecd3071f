"""Generic parameter-sweep helpers used by examples and benchmarks.

All helpers route their solves through the library's default engine
(:func:`repro.engine.get_default_engine`), so their memo spans calls
but never reaches a daemon's engine.  Two structural savings follow:

* repeated probes of the same model (bisection revisiting a size, a
  load appearing in two sweeps) are cache hits;
* sweeps whose traffic mix does not depend on the size share **one**
  Algorithm 1 Q-grid solved at the largest size — every smaller point
  is a ratio read, bit-for-bit identical to solving it directly.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

from ..api import SolveRequest
from ..core.measures import PerformanceSolution
from ..core.state import SwitchDimensions
from ..core.traffic import TrafficClass
from ..exceptions import ConfigurationError, CrossbarError
from ..methods import SolveMethod

__all__ = [
    "sweep_sizes",
    "sweep_parameter",
    "find_size_for_blocking",
    "find_load_for_blocking",
]


def _engine():
    from ..engine import get_default_engine

    return get_default_engine()


def _solution(
    dims: SwitchDimensions, classes: Sequence[TrafficClass]
) -> PerformanceSolution:
    return _engine().solution_for(
        SolveRequest(dims, tuple(classes), SolveMethod.CONVOLUTION)
    )


def sweep_sizes(
    sizes: Iterable[int],
    classes_for: Callable[[int], Sequence[TrafficClass]],
    measure: Callable[[PerformanceSolution], float],
) -> list[tuple[int, float]]:
    """Evaluate ``measure`` on square switches of the given sizes.

    ``classes_for(n)`` builds the (size-dependent) traffic mix — the
    natural hook for the paper's constant-tilde-parameter sweeps.  When
    the mix turns out *not* to depend on the size, the whole sweep is
    served from one Q-grid solved at the largest size.
    """
    sizes = list(sizes)
    mixes = [tuple(classes_for(n)) for n in sizes]
    constant = len(sizes) > 1 and all(mix == mixes[0] for mix in mixes)
    if constant:
        try:
            base = _solution(
                SwitchDimensions.square(max(sizes)), mixes[0]
            )
        except CrossbarError:
            constant = False  # e.g. admissibility fails at the top size
    out = []
    for n, mix in zip(sizes, mixes):
        dims = SwitchDimensions.square(n)
        if constant:
            from ..engine import sliced_solution

            solution = sliced_solution(base, dims)
        else:
            solution = _solution(dims, mix)
        out.append((n, measure(solution)))
    return out


def sweep_parameter(
    values: Iterable[float],
    model_for: Callable[[float], tuple[SwitchDimensions, Sequence[TrafficClass]]],
    measure: Callable[[PerformanceSolution], float],
) -> list[tuple[float, float]]:
    """Evaluate ``measure`` while sweeping an arbitrary scalar parameter."""
    out = []
    for value in values:
        dims, classes = model_for(value)
        solution = _solution(dims, classes)
        out.append((value, measure(solution)))
    return out


def find_size_for_blocking(
    classes_for: Callable[[int], Sequence[TrafficClass]],
    target_blocking: float,
    r: int = 0,
    n_min: int = 1,
    n_max: int = 4096,
) -> int:
    """Smallest square switch whose class-``r`` blocking <= target.

    Binary search assuming blocking decreases with size for the given
    (size-dependent) traffic builder — the standard dimensioning
    question for switch designers.  Raises when even ``n_max`` cannot
    meet the target.

    The feasibility check already solves the full ``n_max`` Q-grid;
    when ``classes_for`` does not actually depend on the size, every
    bisection probe is answered from that grid (an O(1) ratio read)
    instead of re-running Algorithm 1 per probe.  Size-dependent mixes
    (the paper's constant-tilde sweeps) fall back to engine-cached
    per-probe solves.
    """
    if not 0.0 < target_blocking < 1.0:
        raise ConfigurationError(
            f"target_blocking must be in (0, 1), got {target_blocking}"
        )

    top_classes = tuple(classes_for(n_max))
    top = _solution(SwitchDimensions.square(n_max), top_classes)

    def blocking(n: int) -> float:
        dims = SwitchDimensions.square(n)
        if n == n_max:
            return top.blocking(r)
        classes = tuple(classes_for(n))
        if classes == top_classes:
            return top.blocking(r, at=dims)
        return _solution(dims, classes).blocking(r)

    if blocking(n_max) > target_blocking:
        raise ConfigurationError(
            f"even N={n_max} exceeds the blocking target "
            f"{target_blocking:g}"
        )
    lo, hi = n_min, n_max
    while lo < hi:
        mid = (lo + hi) // 2
        if blocking(mid) <= target_blocking:
            hi = mid
        else:
            lo = mid + 1
    return lo


def find_load_for_blocking(
    dims: SwitchDimensions,
    classes_for_load: Callable[[float], Sequence[TrafficClass]],
    target_blocking: float,
    r: int = 0,
    load_max: float = 1e6,
    tol: float = 1e-10,
) -> float:
    """Largest load parameter keeping class-``r`` blocking <= target.

    The dimensioning dual of :func:`find_size_for_blocking`: given the
    fabric, how much traffic can it carry at the blocking objective?
    ``classes_for_load(x)`` builds the traffic mix at load parameter
    ``x`` (any scalar parameterization — per-pair rho, aggregate rho~,
    ...); blocking must be non-decreasing in ``x``.
    """
    if not 0.0 < target_blocking < 1.0:
        raise ConfigurationError(
            f"target_blocking must be in (0, 1), got {target_blocking}"
        )

    def blocking(load: float) -> float:
        return _solution(dims, classes_for_load(load)).blocking(r)

    if blocking(0.0) > target_blocking:
        raise ConfigurationError(
            "blocking exceeds the target even at zero load"
        )
    if blocking(load_max) <= target_blocking:
        return load_max
    lo, hi = 0.0, load_max
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if blocking(mid) <= target_blocking:
            lo = mid
        else:
            hi = mid
    return lo
