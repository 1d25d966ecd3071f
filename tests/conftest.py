"""Shared fixtures, hypothesis profiles and helpers for the test suite.

Hypothesis settings live HERE, not in per-file ``@settings`` decorators
(which historically drifted between 15 and 50 examples per test with no
rationale).  Three profiles:

* ``ci`` (default) — 25 examples, derandomized so CI failures are
  reproducible without a seed hunt, no deadline (solver calls can
  legitimately take hundreds of ms on a loaded runner);
* ``dev`` — 10 examples for a fast local loop;
* ``nightly`` — 200 examples for scheduled deep runs.

Select with ``HYPOTHESIS_PROFILE=dev pytest ...``.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.core.state import SwitchDimensions
from repro.core.traffic import TrafficClass

settings.register_profile(
    "ci", max_examples=25, derandomize=True, deadline=None
)
settings.register_profile("dev", max_examples=10, deadline=None)
settings.register_profile("nightly", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture
def small_dims() -> SwitchDimensions:
    """A switch small enough for brute force but non-square."""
    return SwitchDimensions(5, 7)


@pytest.fixture
def mixed_classes() -> list[TrafficClass]:
    """One class of each BPP kind, including a multi-rate one."""
    return [
        TrafficClass.poisson(0.2, name="poisson"),
        TrafficClass(alpha=0.1, beta=0.3, mu=1.5, a=2, name="pascal"),
        TrafficClass.bernoulli(4, 0.05, name="bernoulli"),
    ]


@pytest.fixture
def poisson_only() -> list[TrafficClass]:
    """Two Poisson classes with different rates and weights."""
    return [
        TrafficClass.poisson(0.15, weight=2.0, name="voice"),
        TrafficClass.poisson(0.05, a=2, weight=0.5, name="video"),
    ]


def assert_close(a: float, b: float, rel: float = 1e-10, abs_tol: float = 1e-12):
    """Relative/absolute closeness with a readable failure message."""
    scale = max(abs(a), abs(b), abs_tol)
    assert abs(a - b) <= max(rel * scale, abs_tol), f"{a} != {b} (diff {a - b})"
