"""Traffic classes and Bernoulli-Poisson-Pascal (BPP) arrival statistics.

The paper models ``R`` classes of connection requests.  A class ``r``
requires ``a_r`` inputs and ``a_r`` outputs per connection and generates
requests for a *particular* set of inputs and outputs according to a
linear state-dependent (BPP) arrival process

    ``lambda_r(k_r) = alpha_r + beta_r * k_r``

where ``k_r`` is the number of class-``r`` connections currently in
progress.  Holding times have mean ``1/mu_r`` (the model is insensitive
to the holding-time distribution beyond its mean).

Depending on ``beta_r`` the number of busy servers the class would
occupy on an infinite-server group is distributed as

* **Bernoulli** (smooth, ``Z < 1``)  for ``beta_r < 0`` with
  ``-alpha_r/beta_r`` a positive integer (the "number of sources"),
* **Poisson**   (regular, ``Z = 1``) for ``beta_r = 0``,
* **Pascal**    (peaky, ``Z > 1``)   for ``beta_r > 0``,

which is why the unified family is called Bernoulli-Poisson-Pascal.

Two parameterizations appear in the paper and both are supported here:

* *per-pair* parameters ``alpha_r``, ``beta_r`` — the rate for one
  particular (input-set, output-set) combination; this is what enters
  the product-form solution; and
* *aggregate* ("tilde") parameters ``alpha~_r = C(N2, a_r) alpha_r``,
  ``beta~_r = C(N2, a_r) beta_r`` — the rate for a particular input set
  and *any* output set, which is how the paper's figures and tables are
  labelled.

Use :meth:`TrafficClass.from_aggregate` to build a class from the
paper's tilde parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from ..exceptions import InvalidParameterError

__all__ = [
    "TrafficClass",
    "bpp_mean",
    "bpp_variance",
    "bpp_peakedness",
    "classify_bpp",
    "fit_bpp_from_moments",
    "SMOOTH",
    "REGULAR",
    "PEAKY",
]

#: Traffic-kind labels (values of :func:`classify_bpp` and
#: :attr:`TrafficClass.kind`).
SMOOTH = "bernoulli"
REGULAR = "poisson"
PEAKY = "pascal"


def bpp_mean(alpha: float, beta: float, mu: float = 1.0) -> float:
    """Mean number of busy servers on an infinite server group.

    For the linear birth rate ``alpha + beta*k`` and per-connection
    death rate ``mu`` the stationary occupancy has mean
    ``M = alpha / (mu - beta)`` (the paper's ``M = alpha/(1-beta)``
    with ``mu = 1``).
    """
    if beta >= mu:
        raise InvalidParameterError(
            f"BPP mean undefined: beta ({beta}) must be < mu ({mu}) "
            "for the infinite-server occupancy to be finite"
        )
    return alpha / (mu - beta)


def bpp_variance(alpha: float, beta: float, mu: float = 1.0) -> float:
    """Variance of the infinite-server occupancy, ``V = alpha*mu/(mu-beta)^2``."""
    if beta >= mu:
        raise InvalidParameterError(
            f"BPP variance undefined: beta ({beta}) must be < mu ({mu})"
        )
    return alpha * mu / (mu - beta) ** 2


def bpp_peakedness(beta: float, mu: float = 1.0) -> float:
    """Peakedness (Z-factor) ``Z = V/M = mu/(mu - beta)``.

    ``Z > 1`` is peaky (Pascal), ``Z = 1`` regular (Poisson) and
    ``Z < 1`` smooth (Bernoulli).
    """
    if beta >= mu:
        raise InvalidParameterError(
            f"peakedness undefined: beta ({beta}) must be < mu ({mu})"
        )
    return mu / (mu - beta)


def classify_bpp(alpha: float, beta: float) -> str:
    """Classify BPP parameters as smooth/regular/peaky.

    Returns one of :data:`SMOOTH` (``beta < 0``), :data:`REGULAR`
    (``beta == 0``) or :data:`PEAKY` (``beta > 0``).
    """
    if alpha < 0:
        raise InvalidParameterError(f"alpha must be >= 0, got {alpha}")
    if beta < 0:
        return SMOOTH
    if beta == 0:
        return REGULAR
    return PEAKY


def fit_bpp_from_moments(
    mean: float, peakedness: float, mu: float = 1.0
) -> tuple[float, float]:
    """Return ``(alpha, beta)`` matching a target mean and Z-factor.

    Inverts ``M = alpha/(mu-beta)`` and ``Z = mu/(mu-beta)``:
    ``beta = mu (1 - 1/Z)`` and ``alpha = M mu / Z``.  A smooth target
    (``Z < 1``) yields ``beta < 0``; a peaky one (``Z > 1``) yields
    ``0 < beta < mu``.
    """
    if mean < 0:
        raise InvalidParameterError(f"mean must be >= 0, got {mean}")
    if peakedness <= 0:
        raise InvalidParameterError(
            f"peakedness must be > 0, got {peakedness}"
        )
    if mu <= 0:
        raise InvalidParameterError(f"mu must be > 0, got {mu}")
    beta = mu * (1.0 - 1.0 / peakedness)
    alpha = mean * mu / peakedness
    return alpha, beta


@dataclass(frozen=True, slots=True)
class TrafficClass:
    """One class of connection requests offered to the crossbar.

    Parameters
    ----------
    alpha:
        State-independent part of the per-pair arrival rate
        ``lambda(k) = alpha + beta*k`` (requests per unit time for one
        particular set of ``a`` inputs and ``a`` outputs).
    beta:
        State-dependent part of the per-pair arrival rate.  Negative
        for smooth (Bernoulli), zero for Poisson, positive for peaky
        (Pascal) traffic.
    mu:
        Service (connection-teardown) rate; mean holding time ``1/mu``.
    a:
        Bandwidth requirement: number of input/output pairs one
        connection of this class occupies (the paper's ``a_r``).
    weight:
        Revenue ``w_r`` earned per connection in progress (Section 4 of
        the paper).  Defaults to ``mu`` so that with all-default
        weights the total revenue equals the system throughput.
    name:
        Optional label used in reports.
    """

    alpha: float
    beta: float = 0.0
    mu: float = 1.0
    a: int = 1
    weight: float | None = None
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise InvalidParameterError(
                f"alpha must be >= 0, got {self.alpha}"
            )
        if self.mu <= 0:
            raise InvalidParameterError(f"mu must be > 0, got {self.mu}")
        if self.a < 1:
            raise InvalidParameterError(
                f"bandwidth requirement a must be >= 1, got {self.a}"
            )
        if self.beta >= self.mu:
            raise InvalidParameterError(
                f"beta ({self.beta}) must be < mu ({self.mu}): the Pascal "
                "normalization diverges at beta = mu"
            )
        if self.weight is None:
            object.__setattr__(self, "weight", self.mu)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def poisson(
        cls,
        rho: float,
        mu: float = 1.0,
        a: int = 1,
        weight: float | None = None,
        name: str = "",
    ) -> "TrafficClass":
        """Poisson class with offered per-pair load ``rho = alpha/mu``."""
        return cls(alpha=rho * mu, beta=0.0, mu=mu, a=a, weight=weight, name=name)

    @classmethod
    def from_aggregate(
        cls,
        alpha_tilde: float,
        beta_tilde: float,
        n2: int,
        mu: float = 1.0,
        a: int = 1,
        weight: float | None = None,
        name: str = "",
    ) -> "TrafficClass":
        """Build from the paper's aggregate ("tilde") parameters.

        The paper specifies traffic by the rate for a particular set of
        inputs and *any* set of outputs; the per-pair rate divides by
        the number of output sets: ``alpha = alpha~ / C(n2, a)``.
        """
        if n2 < a:
            raise InvalidParameterError(
                f"cannot scale aggregate parameters: n2={n2} < a={a}"
            )
        sets = math.comb(n2, a)
        return cls(
            alpha=alpha_tilde / sets,
            beta=beta_tilde / sets,
            mu=mu,
            a=a,
            weight=weight,
            name=name,
        )

    @classmethod
    def from_service_slowdown(
        cls,
        v: float,
        delta: float,
        mu: float = 1.0,
        a: int = 1,
        weight: float | None = None,
        name: str = "",
    ) -> "TrafficClass":
        """Build from the paper's state-dependent-service interpretation.

        Section 2 notes the model is equivalent to unit-rate Poisson
        arrivals with the state-dependent service rate
        ``mu(k) = k mu / (v + delta k)``: ``delta > 1`` models slow-down
        under congestion, ``0 < delta < 1`` improved efficiency, and
        ``delta = 0`` recovers the plain infinite-server node.  The
        equivalent BPP arrival parameters are ``alpha = v + delta`` and
        ``beta = delta``.
        """
        if v < 0:
            raise InvalidParameterError(f"v must be >= 0, got {v}")
        return cls(
            alpha=v + delta, beta=delta, mu=mu, a=a, weight=weight,
            name=name,
        )

    @classmethod
    def from_moments(
        cls,
        mean: float,
        peakedness: float,
        mu: float = 1.0,
        a: int = 1,
        weight: float | None = None,
        name: str = "",
    ) -> "TrafficClass":
        """Build from an infinite-server mean and Z-factor."""
        alpha, beta = fit_bpp_from_moments(mean, peakedness, mu)
        return cls(alpha=alpha, beta=beta, mu=mu, a=a, weight=weight, name=name)

    @classmethod
    def bernoulli(
        cls,
        sources: int,
        per_source_rate: float,
        mu: float = 1.0,
        a: int = 1,
        weight: float | None = None,
        name: str = "",
    ) -> "TrafficClass":
        """Finite-source (Engset-like) smooth class.

        ``sources`` idle sources each generate requests at
        ``per_source_rate``; an active source generates none, so
        ``lambda(k) = per_source_rate * (sources - k)`` which is BPP
        with ``alpha = sources * per_source_rate`` and
        ``beta = -per_source_rate``.
        """
        if sources < 1:
            raise InvalidParameterError(
                f"sources must be >= 1, got {sources}"
            )
        if per_source_rate <= 0:
            raise InvalidParameterError(
                f"per_source_rate must be > 0, got {per_source_rate}"
            )
        return cls(
            alpha=sources * per_source_rate,
            beta=-per_source_rate,
            mu=mu,
            a=a,
            weight=weight,
            name=name,
        )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    @property
    def rho(self) -> float:
        """Offered per-pair load of the smooth part, ``rho = alpha/mu``."""
        return self.alpha / self.mu

    @property
    def b(self) -> float:
        """Normalized burstiness ``b = beta/mu`` (the recursion constant)."""
        return self.beta / self.mu

    @property
    def peakedness(self) -> float:
        """Z-factor of the class, ``Z = mu/(mu - beta)``."""
        return bpp_peakedness(self.beta, self.mu)

    @property
    def kind(self) -> str:
        """One of ``"bernoulli"``, ``"poisson"``, ``"pascal"``."""
        return classify_bpp(self.alpha, self.beta)

    @property
    def is_poisson(self) -> bool:
        """True when ``beta == 0`` (the paper's class group ``R1``)."""
        return self.beta == 0.0

    @property
    def is_bursty(self) -> bool:
        """True when ``beta != 0`` (the paper's class group ``R2``)."""
        return self.beta != 0.0

    @property
    def sources(self) -> float | None:
        """For Bernoulli traffic, the implied number of sources ``-alpha/beta``.

        ``None`` for Poisson/Pascal traffic.  The paper requires this to
        be a (negative of a) negative integer for a proper Bernoulli
        interpretation; :meth:`validate_for` enforces the weaker
        condition that the arrival rate stays non-negative on all
        reachable states.
        """
        if self.beta >= 0:
            return None
        return -self.alpha / self.beta

    def rate(self, k: int) -> float:
        """Per-pair arrival rate ``lambda(k) = alpha + beta*k`` in state k.

        Clamped at zero for Bernoulli classes whose source pool is
        exhausted (``k > sources``): a negative rate is meaningless.
        """
        return max(0.0, self.alpha + self.beta * k)

    def aggregate_alpha(self, n2: int) -> float:
        """The paper's ``alpha~`` for a switch with ``n2`` outputs."""
        return self.alpha * math.comb(n2, self.a)

    def aggregate_beta(self, n2: int) -> float:
        """The paper's ``beta~`` for a switch with ``n2`` outputs."""
        return self.beta * math.comb(n2, self.a)

    def with_weight(self, weight: float) -> "TrafficClass":
        """Copy of this class with a different revenue weight."""
        return replace(self, weight=weight)

    def validate_for(self, n1: int, n2: int) -> None:
        """Check admissibility on an ``n1 x n2`` switch.

        Raises :class:`InvalidParameterError` when the class cannot be
        carried at all (``a > min(n1, n2)``) or when a Bernoulli class
        would produce a negative arrival rate on a reachable state
        (the paper's condition ``alpha + beta*n >= 0`` for
        ``n <= max(n1, n2)``; we only require it on *reachable* states,
        ``n <= min(n1, n2) // a``).
        """
        cap = min(n1, n2)
        if self.a > cap:
            raise InvalidParameterError(
                f"class {self.name or '?'} needs a={self.a} pairs but the "
                f"switch supports at most min(n1, n2)={cap}"
            )
        if self.beta < 0:
            sources = -self.alpha / self.beta
            if abs(sources - round(sources)) <= 1e-9 * max(1.0, sources):
                # Integer source count: the arrival rate hits exactly
                # zero at k = sources and the product-form weights (and
                # the negative-binomial series in the recursions)
                # terminate there — valid for any switch size.
                return
            k_max = cap // self.a
            # Tolerate infinitesimally negative rates (they arise from
            # finite-difference perturbations of integer-source classes
            # and contribute O(tol) weight to one boundary state).
            if self.alpha + self.beta * (k_max - 1) < -1e-6 * self.alpha:
                raise InvalidParameterError(
                    f"Bernoulli class {self.name or '?'}: non-integer "
                    f"source count {sources:.6g} and the arrival rate "
                    f"alpha + beta*k goes negative within the reachable "
                    f"state space (k up to {k_max})"
                )

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.name or 'class'}: {self.kind}, a={self.a}, "
            f"alpha={self.alpha:.6g}, beta={self.beta:.6g}, mu={self.mu:.6g}, "
            f"Z={self.peakedness:.4g}, weight={self.weight:.6g}"
        )
