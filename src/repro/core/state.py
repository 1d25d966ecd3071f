"""Switch dimensions and the state space ``Gamma(N)`` of the crossbar.

The system state is the vector ``k = (k_1, ..., k_R)`` of concurrent
connections per class.  With bandwidth requirements
``A = (a_1, ..., a_R)`` the state space is

    ``Gamma(N) = { k : 0 <= k . A <= min(N1, N2) }``

(paper, Section 2): a connection of class ``r`` occupies ``a_r`` inputs
and ``a_r`` outputs, and inputs/outputs cannot be shared, so the total
number of occupied pairs ``k . A`` is bounded by the smaller dimension.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from ..exceptions import ConfigurationError
from .traffic import TrafficClass

__all__ = [
    "SwitchDimensions",
    "iter_states",
    "state_space_size",
    "occupancy",
    "max_connections",
]


@dataclass(frozen=True, order=True, slots=True)
class SwitchDimensions:
    """Dimensions ``(N1, N2)`` of the crossbar: ``N1`` inputs, ``N2`` outputs."""

    n1: int
    n2: int

    def __post_init__(self) -> None:
        if self.n1 < 0 or self.n2 < 0:
            raise ConfigurationError(
                f"switch dimensions must be non-negative, got {self.n1}x{self.n2}"
            )

    @classmethod
    def square(cls, n: int) -> "SwitchDimensions":
        """An ``n x n`` switch (the paper's ``N1 = N2 = N`` examples)."""
        return cls(n, n)

    @property
    def capacity(self) -> int:
        """``min(N1, N2)`` — the maximum number of occupied pairs."""
        return min(self.n1, self.n2)

    @property
    def crosspoints(self) -> int:
        """``N1 * N2`` — number of crosspoints in the fabric."""
        return self.n1 * self.n2

    def shrink(self, amount: int) -> "SwitchDimensions":
        """The reduced switch ``N - amount * I`` used by ``B_r`` and ``E_r``.

        Dimensions are floored at zero, matching the convention that
        ``G`` of a "negative" switch is zero (handled by callers).
        """
        return SwitchDimensions(max(0, self.n1 - amount), max(0, self.n2 - amount))

    def contains(self, other: "SwitchDimensions") -> bool:
        """True when ``other`` fits inside this switch coordinate-wise."""
        return other.n1 <= self.n1 and other.n2 <= self.n2

    def free_pairs(self, used: int) -> tuple[int, int]:
        """Free inputs and outputs when ``used`` pairs are occupied."""
        if used < 0 or used > self.capacity:
            raise ConfigurationError(
                f"occupancy {used} outside [0, {self.capacity}]"
            )
        return self.n1 - used, self.n2 - used

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.n1}x{self.n2}"


def occupancy(state: Sequence[int], classes: Sequence[TrafficClass]) -> int:
    """Total occupied pairs ``k . A`` of a state vector."""
    if len(state) != len(classes):
        raise ConfigurationError(
            f"state has {len(state)} entries but there are "
            f"{len(classes)} classes"
        )
    return sum(k * c.a for k, c in zip(state, classes))


def max_connections(dims: SwitchDimensions, cls: TrafficClass) -> int:
    """Largest ``k_r`` reachable for one class alone: ``capacity // a_r``."""
    return dims.capacity // cls.a


def iter_states(
    dims: SwitchDimensions, classes: Sequence[TrafficClass]
) -> Iterator[tuple[int, ...]]:
    """Enumerate ``Gamma(N)`` in lexicographic order.

    Yields every vector ``k`` with ``0 <= k . A <= min(N1, N2)``.  The
    enumeration is depth-first over classes so memory use is ``O(R)``.
    """
    cap = dims.capacity
    weights = [c.a for c in classes]
    r = len(weights)
    state = [0] * r

    def recurse(idx: int, remaining: int) -> Iterator[tuple[int, ...]]:
        if idx == r:
            yield tuple(state)
            return
        w = weights[idx]
        for k in range(remaining // w + 1):
            state[idx] = k
            yield from recurse(idx + 1, remaining - k * w)
        state[idx] = 0

    yield from recurse(0, cap)


def state_space_size(
    dims: SwitchDimensions, classes: Sequence[TrafficClass]
) -> int:
    """Number of states in ``Gamma(N)`` (computed without enumeration).

    Uses the classic coin-change dynamic program: the number of
    ``k >= 0`` with ``k . A = m`` summed over ``m = 0..capacity``.
    """
    cap = dims.capacity
    counts = [0] * (cap + 1)
    counts[0] = 1
    for cls in classes:
        w = cls.a
        for m in range(w, cap + 1):
            counts[m] += counts[m - w]
    return sum(counts)


def occupancy_counts(
    dims: SwitchDimensions, classes: Sequence[TrafficClass]
) -> list[int]:
    """Number of states with each total occupancy ``m = 0..capacity``."""
    cap = dims.capacity
    counts = [0] * (cap + 1)
    counts[0] = 1
    for cls in classes:
        w = cls.a
        for m in range(w, cap + 1):
            counts[m] += counts[m - w]
    return counts


def log_permutation(n: int, a: int) -> float:
    """``log P(n, a) = log( n! / (n-a)! )``; ``-inf`` if ``a > n``."""
    if a > n:
        return -math.inf
    return math.lgamma(n + 1) - math.lgamma(n - a + 1)


def permutation(n: int, a: int) -> int:
    """Falling factorial ``P(n, a) = n (n-1) ... (n-a+1)`` (paper eq. 11).

    Zero when ``a > n`` — the number of ways to pick an ordered tuple of
    ``a`` distinct items from ``n`` — which is exactly the boundary
    convention the recursions rely on.
    """
    if a < 0:
        raise ConfigurationError(f"a must be >= 0, got {a}")
    if a > n:
        return 0
    return math.perm(n, a)
