"""Differential and metamorphic verification of the solver stack.

The library computes the paper's product-form measures at least seven
independent ways (brute force over eq. 2-3, exact rationals, Algorithm 1
in three numeric modes, Algorithm 2, the diagonal series solver, a raw
CTMC solve).  This package turns that redundancy into an automated
correctness harness:

* :mod:`repro.verify.invariants` — a registry of *metamorphic
  invariants*: paper identities (eq. 4 normalization ratios, the
  eq. 8-10 recurrence, the eq. 12-13 ratio identities), orderings
  (Poisson upper-bounds smooth, Pascal dominates Poisson), exact
  symmetries (holding-time insensitivity, class permutation) and
  guarded monotonicities, each encoded as an executable check.
* :mod:`repro.verify.differential` — run every applicable solver on one
  configuration and compare all pairs under per-method, ULP-aware
  tolerances.
* :mod:`repro.verify.generators` — a seeded sampler of BPP
  configurations, biased toward the numeric corners (extreme ``beta_r``,
  skewed ``N1 != N2``, large ``a_r``, threshold-straddling sizes).
* :mod:`repro.verify.shrink` — greedy minimization of a failing
  configuration to a small reproducer.
* :mod:`repro.verify.corpus` — the golden-snapshot corpus manager
  (provenance headers, drift diffing) behind ``tests/golden/`` and
  ``tools/refresh_golden.py``.
* :mod:`repro.verify.reference` — the pure-python Algorithm 1 sweeps
  and the scalar Algorithm 2 loop, the oracle the production NumPy
  kernels (:mod:`repro.core.kernels`) are compared with.
* :mod:`repro.verify.runner` — the budgeted orchestrator behind
  ``crossbar-repro verify``: named paper configurations first, then the
  fuzzer, with failing configs shrunk and dumped as JSON repro files.

See ``docs/testing.md`` for the full map from paper claims to checks.
"""

from .corpus import GoldenCorpus, GoldenDrift, figure_record
from .differential import (
    Disagreement,
    DifferentialReport,
    applicable_methods,
    pair_tolerance,
    run_differential,
)
from .generators import ConfigSampler, ModelConfig
from .invariants import (
    INVARIANTS,
    Invariant,
    Violation,
    check_invariants,
    invariant_names,
)
from .runner import VerifyOptions, VerifyReport, parse_budget, run_verify
from .shrink import shrink_config

__all__ = [
    "ConfigSampler",
    "DifferentialReport",
    "Disagreement",
    "GoldenCorpus",
    "GoldenDrift",
    "figure_record",
    "INVARIANTS",
    "Invariant",
    "ModelConfig",
    "VerifyOptions",
    "VerifyReport",
    "Violation",
    "applicable_methods",
    "check_invariants",
    "invariant_names",
    "pair_tolerance",
    "parse_budget",
    "run_differential",
    "run_verify",
    "shrink_config",
]
