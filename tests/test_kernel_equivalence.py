"""Differential equivalence locks: production NumPy kernels vs oracle.

Every production solve runs the whole-column NumPy kernels in
:mod:`repro.core.kernels`.  The pure-python sweeps they replaced live
on in :mod:`repro.verify.reference` as the oracle.  The contract,
enforced here:

* ``log`` and ``float`` modes are **byte identical** to the oracle
  sweeps (dtype, shape and ``tobytes()`` of the full grids, so the
  sign of a zero counts; matching exception behavior at the float-mode
  overflow boundary), the log sweep also on the edge shapes of its
  column loop, in at most 26 NumPy calls per column on the benchmark
  mix;
* ``scaled`` is tolerance-equivalent on the fast path and falls back
  to the NumPy log sweep — bit for bit — when a column's dynamic range
  leaves float64 (the ``1/n1!`` cliff past ``n1 ~ 178``);
* the vectorized MVA agrees with the scalar oracle to its registered
  1e-8 differential tolerance;
* the eq. 9 auxiliary recursion ``V(n, r) = Q(n - a_r I) + b_r
  V(n - a_r I, r)`` holds pointwise for every bursty class
  (hypothesis property, profiles from ``tests/conftest.py``, and the
  seeded edge shapes);
* the ``repro.verify`` fuzzer finds **zero** production-vs-oracle
  disagreements over seeded sampled configs per numeric mode, and a
  deliberately broken kernel is caught *and shrunk* to a minimal JSON
  reproducer;
* the golden corpus (including ``kernel_edges.json``) stays green when
  rebuilt on the production solvers and on the oracle;
* every request runs the NumPy kernels with no configuration, and the
  service wire path serves ``/solve`` envelopes byte-identical to the
  oracle's (the ``log`` kernel's bitwise guarantee, observed end to
  end on Table 1 configurations).

Parametrized tests name the two sides ``numpy`` (production) and
``python`` (oracle).  The seeded fuzz case count scales with
``KERNEL_EQUIV_CASES`` (default 100 per mode here; the CI
``kernel-equivalence`` job raises it, and ``benchmarks/bench_kernels.py``
runs the full >= 2000-case campaign).
"""

from __future__ import annotations

import json
import math
import os
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import convolution, kernels
from repro.core.convolution import log_q_grid, solve_convolution
from repro.core.kernels import (
    scaled_fallback_count,
    sweep_float,
    sweep_log,
    sweep_scaled,
)
from repro.core.mva import solve_mva
from repro.core.state import SwitchDimensions
from repro.core.traffic import TrafficClass
from repro.exceptions import ConfigurationError, OverflowInRecursionError
from repro.methods import SolveMethod
from repro.verify import reference
from repro.verify.differential import REFERENCE_PREFIX, run_differential
from repro.verify.generators import ConfigSampler

#: Seeded case count per numeric mode for the fuzz smoke (the full
#: acceptance campaign lives in benchmarks/bench_kernels.py).
FUZZ_CASES = int(os.environ.get("KERNEL_EQUIV_CASES", "100"))

#: The production method of each numeric mode; its oracle joins the
#: differential as ``reference/<method>``.
KERNEL_METHODS = {
    "log": SolveMethod.CONVOLUTION,
    "scaled": SolveMethod.CONVOLUTION_SCALED,
    "float": SolveMethod.CONVOLUTION_FLOAT,
    "mva": SolveMethod.MVA,
}

#: The two sides of every comparison, by the name the test ids use.
SOLVERS = {"python": reference, "numpy": convolution}


def sampled_configs(seed: int, count: int):
    sampler = ConfigSampler(seed=seed)
    return [sampler.sample() for _ in range(count)]


def sweep_classes_of(config):
    return [c for c in config.classes if c.beta >= 0]


def assert_bytes_equal(ref, new, context=""):
    """Byte equality of two grids: ``np.array_equal`` would take
    ``-0.0 == +0.0`` (and is blind to dtype)."""
    assert ref.dtype == new.dtype, context
    assert ref.shape == new.shape, context
    if ref.tobytes() != new.tobytes():
        differ = np.argwhere(ref.view(np.uint64) != new.view(np.uint64))
        cells = [
            (tuple(int(i) for i in idx), float(ref[tuple(idx)]),
             float(new[tuple(idx)]))
            for idx in differ[:5]
        ]
        raise AssertionError(f"{context}: bytes differ at {cells}")


def assert_eq9(lq, lv, classes):
    """``V(n, r) = Q(n - a_r I) + b_r V(n - a_r I, r)`` pointwise (eq. 9)
    for every bursty class, with ``V == 0`` whenever any coordinate of
    ``n - a_r I`` is negative, against direct scalar float evaluation."""
    assert set(lv) == {r for r, c in enumerate(classes) if c.is_bursty}
    Q = np.where(np.isfinite(lq), np.exp(lq), 0.0)
    n1, n2 = lq.shape[0] - 1, lq.shape[1] - 1
    for r, log_v in lv.items():
        cls = classes[r]
        a = cls.a
        V = np.where(np.isfinite(log_v), np.exp(log_v), 0.0)
        for m1 in range(n1 + 1):
            for m2 in range(n2 + 1):
                inside = m1 >= a and m2 >= a
                q_shift = float(Q[m1 - a, m2 - a]) if inside else 0.0
                v_shift = float(V[m1 - a, m2 - a]) if inside else 0.0
                want = q_shift + cls.b * v_shift
                got = float(V[m1, m2])
                assert got == pytest.approx(want, rel=1e-9, abs=0.0), (
                    f"eq. 9 violated for class {r} at ({m1}, {m2}): "
                    f"{got!r} != {want!r}"
                )


# ----------------------------------------------------------------------
# Differential fuzz: zero production-vs-oracle mismatches per mode
# ----------------------------------------------------------------------


@pytest.mark.parametrize("mode", sorted(KERNEL_METHODS))
def test_fuzz_zero_disagreements_per_mode(mode):
    """The registered pair tolerance holds over seeded sampled configs."""
    method = KERNEL_METHODS[mode].value
    methods = [REFERENCE_PREFIX + method, method]
    disagreements = []
    for config in sampled_configs(seed=2024, count=FUZZ_CASES):
        report = run_differential(config, methods=methods)
        disagreements.extend(report.disagreements)
    assert not disagreements, "\n".join(
        d.describe() for d in disagreements[:10]
    )


# ----------------------------------------------------------------------
# Bitwise identity: log and float sweeps
# ----------------------------------------------------------------------


def test_sweep_log_bitwise_equal_to_reference():
    checked = 0
    for config in sampled_configs(seed=11, count=60):
        sweep = sweep_classes_of(config)
        if not sweep:
            continue
        ref = reference.sweep_log(config.dims, sweep)
        new = sweep_log(config.dims, sweep)
        assert_bytes_equal(ref, new, config.describe())
        checked += 1
    assert checked >= 40


def test_sweep_log_keeps_the_sign_of_log_q_0_1():
    """``log Q(0, 1)`` is ``-lgamma(1) - log(1) == -0.0``: no class of
    bandwidth >= 1 reaches row 0, so the reference copies the
    accumulator there and the kernel must leave it untouched."""
    dims = SwitchDimensions(3, 3)
    classes = [TrafficClass.poisson(0.1)]
    ref = reference.sweep_log(dims, classes)
    new = sweep_log(dims, classes)
    assert math.copysign(1.0, float(ref[0, 1])) == -1.0
    assert float(new[0, 1]).hex() == "-0x0.0p+0"
    assert_bytes_equal(ref, new, "3x3, one Poisson class")


def _bursty(rng, a, alpha=None):
    mu = rng.uniform(0.5, 2.0)
    return TrafficClass(
        alpha=rng.uniform(0.001, 0.5) if alpha is None else alpha,
        beta=rng.uniform(0.01, 0.9) * mu,
        mu=mu,
        a=a,
    )


def _edge_wide_class(rng):
    n1 = rng.randint(0, 6)
    dims = SwitchDimensions(n1, rng.randint(0, 10))
    return dims, [
        _bursty(rng, a=n1 + 1 + rng.randint(0, 2)),
        TrafficClass.poisson(rng.uniform(0.01, 0.4)),
    ]


def _edge_zero_rate_bursty(rng):
    dims = SwitchDimensions(rng.randint(1, 10), rng.randint(1, 10))
    return dims, [
        _bursty(rng, a=rng.randint(1, 3), alpha=0.0),
        TrafficClass.poisson(rng.uniform(0.01, 0.4)),
    ]


def _edge_two_bursty_widths(rng):
    dims = SwitchDimensions(rng.randint(1, 12), rng.randint(1, 12))
    a1, a2 = rng.sample((1, 2, 3, 5), 2)
    return dims, [_bursty(rng, a=a1), _bursty(rng, a=a2)]


def _edge_rectangular(rng):
    n1, n2 = rng.sample(range(1, 14), 2)
    return SwitchDimensions(n1, n2), [
        TrafficClass.poisson(rng.uniform(0.01, 0.4), a=rng.randint(1, 2)),
        _bursty(rng, a=rng.randint(1, 3)),
    ]


def _edge_empty_axis(rng):
    side = rng.randint(0, 8)
    dims = (
        SwitchDimensions(0, side)
        if rng.random() < 0.5
        else SwitchDimensions(side, 0)
    )
    return dims, [
        TrafficClass.poisson(rng.uniform(0.01, 0.4)),
        _bursty(rng, a=rng.randint(1, 2)),
    ]


#: The edge shapes of the log sweep's column loop, each a function of
#: a seeded ``random.Random`` returning ``(dims, sweep classes)``.
EDGE_SHAPES = {
    "a-beyond-n1": _edge_wide_class,
    "zero-rate-bursty": _edge_zero_rate_bursty,
    "two-bursty-widths": _edge_two_bursty_widths,
    "n1-ne-n2": _edge_rectangular,
    "empty-axis": _edge_empty_axis,
}


@pytest.mark.parametrize("shape", sorted(EDGE_SHAPES))
def test_sweep_log_edge_shapes_byte_equal_and_satisfy_eq9(shape):
    """Each edge shape of the column loop: ``log Q`` bytes equal the
    oracle's and every ``collect_v`` grid satisfies eq. 9."""
    for index in range(max(FUZZ_CASES // 5, 20)):
        rng = random.Random(f"edge:{shape}:{index}")
        dims, classes = EDGE_SHAPES[shape](rng)
        context = f"{shape} #{index}: {dims}, {classes}"
        lq, lv = sweep_log(dims, classes, collect_v=True)
        assert_bytes_equal(reference.sweep_log(dims, classes), lq, context)
        assert_bytes_equal(sweep_log(dims, classes), lq, context)
        assert_eq9(lq, lv, classes)


class _CountingNumPy:
    """Stand-in for the kernel module's ``np``: arrays it creates count
    every ufunc, array function and item assignment applied to them."""

    def __init__(self):
        self.calls = 0
        counter = self

        class Counted(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                counter.calls += 1
                plain = [
                    x.view(np.ndarray) if isinstance(x, Counted) else x
                    for x in inputs
                ]
                out = kwargs.get("out")
                if out is not None:
                    kwargs["out"] = tuple(
                        o.view(np.ndarray) if isinstance(o, Counted) else o
                        for o in out
                    )
                result = getattr(ufunc, method)(*plain, **kwargs)
                return out[0] if out is not None else result

            def __array_function__(self, func, types, args, kwargs):
                counter.calls += 1
                return super().__array_function__(func, types, args, kwargs)

            def __setitem__(self, key, value):
                counter.calls += 1
                super().__setitem__(key, value)

        self._counted = Counted

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name in ("array", "full", "empty", "zeros", "ones"):
            return lambda *a, **k: attr(*a, **k).view(self._counted)
        return attr


def test_sweep_log_numpy_calls_per_column(monkeypatch):
    """The benchmark mix (Poisson ``a = 1`` plus Pascal ``a = 2``) costs
    at most 26 NumPy operations per column: the column copy and
    normalization, one term and one 7-call log-add for the Poisson
    class, one eq. 9 step (8 calls) plus one term and log-add for the
    Pascal class."""
    classes = [
        TrafficClass.poisson(0.01),
        TrafficClass(alpha=0.004, beta=0.3, a=2),
    ]
    counts = []
    for n2 in (40, 41):
        counting = _CountingNumPy()
        monkeypatch.setattr(kernels, "np", counting)
        lq = sweep_log(SwitchDimensions(66, n2), classes)
        monkeypatch.setattr(kernels, "np", np)
        counts.append(counting.calls)
        assert_bytes_equal(
            reference.sweep_log(SwitchDimensions(66, n2), classes),
            lq.view(np.ndarray),
            f"n2={n2}",
        )
    assert counts[1] - counts[0] <= 26, counts


def test_sweep_float_bitwise_equal_including_overflow_boundary():
    checked = 0
    for config in sampled_configs(seed=12, count=60):
        sweep = sweep_classes_of(config)
        if not sweep:
            continue
        try:
            ref, ref_err = reference.sweep_float(config.dims, sweep), None
        except OverflowInRecursionError as exc:
            ref, ref_err = None, str(exc)
        try:
            new, new_err = sweep_float(config.dims, sweep), None
        except OverflowInRecursionError as exc:
            new, new_err = None, str(exc)
        assert ref_err == new_err, config.describe()
        if ref is not None:
            assert_bytes_equal(ref, new, config.describe())
        checked += 1
    assert checked >= 40


def test_float_mode_raises_identically_at_factorial_cliff():
    dims = SwitchDimensions(185, 2)
    classes = (TrafficClass.poisson(0.05),)
    with pytest.raises(OverflowInRecursionError) as ref:
        reference.log_q_grid(dims, classes, mode="float")
    with pytest.raises(OverflowInRecursionError) as new:
        log_q_grid(dims, classes, mode="float")
    assert str(ref.value) == str(new.value)


def test_full_solution_grids_bitwise_equal_log_mode():
    """End-to-end solve (folds, h grids, measures) is bitwise equal."""
    for config in sampled_configs(seed=13, count=30):
        ref = reference.solve_convolution(
            config.dims, config.classes, mode="log"
        )
        new = solve_convolution(config.dims, config.classes, mode="log")
        assert_bytes_equal(ref.log_q, new.log_q, config.describe())
        for r in range(len(config.classes)):
            assert_bytes_equal(ref.h[r], new.h[r], config.describe())
            assert ref.blocking(r).hex() == new.blocking(r).hex()
            assert ref.concurrency(r).hex() == new.concurrency(r).hex()
        assert ref.method == new.method == "convolution/log"
        assert (ref.kernel, new.kernel) == ("python", "numpy")


# ----------------------------------------------------------------------
# Scaled kernel: tolerance equivalence and the log-sweep fallback
# ----------------------------------------------------------------------


def test_sweep_scaled_tolerance_equivalent():
    checked = 0
    for config in sampled_configs(seed=14, count=60):
        sweep = sweep_classes_of(config)
        if not sweep:
            continue
        ref = reference.sweep_scaled(config.dims, sweep)
        new = sweep_scaled(config.dims, sweep)
        finite = np.isfinite(ref)
        assert np.array_equal(finite, np.isfinite(new))
        if finite.any():
            rel = np.max(
                np.abs(ref[finite] - new[finite])
                / np.maximum(np.abs(ref[finite]), 1.0)
            )
            assert rel < 1e-10, (rel, config.describe())
        checked += 1
    assert checked >= 40


def test_scaled_kernel_falls_back_past_factorial_cliff():
    """``exp(-lgamma(n1+1)) == 0`` forces the NumPy log sweep, bit for bit."""
    dims = SwitchDimensions(185, 3)
    classes = (
        TrafficClass.poisson(0.05),
        TrafficClass(alpha=0.02, beta=0.01, mu=1.0, a=2),
    )
    assert math.exp(-math.lgamma(dims.n1 + 1)) == 0.0  # in fallback land
    before = scaled_fallback_count()
    new = sweep_scaled(dims, classes)
    assert scaled_fallback_count() == before + 1
    assert np.array_equal(sweep_log(dims, classes), new)  # fallback IS log
    # ... and the fallback still honours the scaled mode's contract
    # with its oracle, the mantissa/exponent sweep.
    ref = reference.sweep_scaled(dims, classes)
    assert np.array_equal(np.isfinite(ref), np.isfinite(new))
    finite = np.isfinite(ref)
    scale = np.maximum(np.abs(ref[finite]), 1.0)
    rel = np.max(np.abs(ref[finite] - new[finite]) / scale)
    assert rel < 1e-10, rel


def test_scaled_fast_path_used_below_the_cliff():
    dims = SwitchDimensions(32, 32)
    classes = (TrafficClass.poisson(0.05),)
    before = scaled_fallback_count()
    sweep_scaled(dims, classes)
    assert scaled_fallback_count() == before


# ----------------------------------------------------------------------
# MVA kernel: registered tolerance against the scalar oracle
# ----------------------------------------------------------------------


def test_mva_numpy_within_registered_tolerance():
    tol = SolveMethod.MVA.rel_tolerance
    checked = 0
    for config in sampled_configs(seed=15, count=60):
        try:
            ref = reference.solve_mva(config.dims, config.classes)
        except Exception:
            continue  # smooth-stability guard etc. — covered by fuzz
        new = solve_mva(config.dims, config.classes)
        for r in range(len(config.classes)):
            for measure in ("blocking", "concurrency", "call_acceptance"):
                a = getattr(ref, measure)(r)
                b = getattr(new, measure)(r)
                scale = max(abs(a), abs(b), 1e-12)
                assert abs(a - b) <= tol * scale, (measure, r, a, b)
        assert (ref.kernel, new.kernel) == ("python", "numpy")
        checked += 1
    assert checked >= 30


# ----------------------------------------------------------------------
# Base row, empty class set
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kernel", tuple(SOLVERS))
@pytest.mark.parametrize("mode", ("log", "scaled", "float"))
def test_base_row_is_inverse_factorial(mode, kernel):
    """``Q(n1, 0) = 1/n1!`` byte-exactly in every mode, kernel and oracle."""
    dims = SwitchDimensions(12, 3)
    lq = SOLVERS[kernel].log_q_grid(
        dims, (TrafficClass.poisson(0.1),), mode=mode
    )
    for m in range(dims.n1 + 1):
        want = -math.lgamma(m + 1)
        if mode == "log":
            assert float(lq[m, 0]).hex() == want.hex(), m
        elif mode == "float":
            # the float sweep carries Q linearly and logs at the end
            assert float(lq[m, 0]).hex() == math.log(math.exp(want)).hex()
        else:
            assert lq[m, 0] == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("kernel", tuple(SOLVERS))
@pytest.mark.parametrize("mode", ("log", "scaled", "float"))
def test_empty_class_set_rejected_identically(mode, kernel):
    with pytest.raises(ConfigurationError):
        SOLVERS[kernel].log_q_grid(SwitchDimensions(4, 4), (), mode=mode)


# ----------------------------------------------------------------------
# Hypothesis property: eq. 9 pointwise for the vectorized V recursion
# ----------------------------------------------------------------------


@given(
    n1=st.integers(min_value=0, max_value=9),
    n2=st.integers(min_value=0, max_value=9),
    bursty=st.lists(
        st.tuples(
            st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=0.8)),
            st.floats(min_value=1e-3, max_value=0.6),
            st.integers(min_value=1, max_value=5),
        ),
        min_size=1,
        max_size=2,
    ),
    with_poisson=st.booleans(),
)
def test_vectorized_v_recursion_satisfies_eq9(n1, n2, bursty, with_poisson):
    """Eq. 9 holds pointwise for every bursty class — zero-rate ones,
    ``a > n1`` and empty axes included — and the ``log Q`` bytes equal
    the oracle's."""
    mu = 1.0
    classes = [
        TrafficClass(alpha=alpha, beta=b * mu, mu=mu, a=a)
        for alpha, b, a in bursty
    ]
    if with_poisson:
        classes.append(TrafficClass.poisson(0.1))
    dims = SwitchDimensions(n1, n2)
    lq, lv = sweep_log(dims, classes, collect_v=True)
    assert_bytes_equal(reference.sweep_log(dims, classes), lq)
    assert_eq9(lq, lv, classes)


# ----------------------------------------------------------------------
# One production kernel: no knob, no twin methods
# ----------------------------------------------------------------------


def test_solve_method_has_no_kernel_twins():
    assert len(SolveMethod) == 8
    assert not hasattr(SolveMethod, "kernel_family")
    for name in (
        "convolution-numpy",
        "convolution-scaled-numpy",
        "convolution-float-numpy",
        "mva-numpy",
        "convolution-numpy/log",
    ):
        with pytest.raises(ConfigurationError):
            SolveMethod.coerce(name)


def test_engine_dispatch_routes_kernel_family():
    """Engine requests, default method included, run the NumPy kernels,
    bitwise equal to the oracle."""
    from repro.api import SolveRequest
    from repro.engine import BatchSolver, EngineConfig

    classes = (TrafficClass.poisson(0.05),)
    engine = BatchSolver(EngineConfig())
    request = SolveRequest.square(6, classes)
    assert request.method is SolveMethod.CONVOLUTION
    solution = engine.solution_for(request)
    assert solution.method == "convolution/log"
    assert solution.kernel == "numpy"
    oracle = reference.solve_convolution(request.dims, classes)
    assert oracle.kernel == "python"
    assert_bytes_equal(oracle.log_q, solution.log_q)
    mva = engine.solution_for(request.with_method(SolveMethod.MVA))
    assert mva.method == "mva" and mva.kernel == "numpy"


def test_knob_selects_numpy_for_default_calls():
    """With no configuration, a default solver call runs NumPy."""
    solution = solve_convolution(
        SwitchDimensions(5, 5), (TrafficClass.poisson(0.1),)
    )
    assert solution.kernel == "numpy"
    assert solution.method == "convolution/log"  # label unchanged
    assert solve_mva(
        SwitchDimensions(5, 5), (TrafficClass.poisson(0.1),)
    ).kernel == "numpy"


# ----------------------------------------------------------------------
# A broken kernel is caught and shrunk to a minimal JSON reproducer
# ----------------------------------------------------------------------


def _broken_sweep_log(dims, classes, collect_v=False):
    """The vectorized log sweep with a planted relative-scale defect.

    A *uniform additive* log-space bias would cancel in every
    ``h = exp(lq_shifted - lq)`` ratio; scaling instead perturbs the
    grid's internal ratios, which every measure depends on.
    """
    result = sweep_log(dims, classes, collect_v=collect_v)
    lq = result[0] if collect_v else result
    lq = lq * (1.0 + 1e-3)
    return (lq, result[1]) if collect_v else lq


def test_broken_numpy_kernel_is_shrunk_to_json_reproducer(
    monkeypatch, tmp_path
):
    from repro.verify.runner import VerifyOptions, run_verify

    monkeypatch.setattr(kernels, "sweep_log", _broken_sweep_log)

    options = VerifyOptions(
        seed=5,
        budget_seconds=60.0,
        max_configs=50,
        repro_dir=tmp_path,
        skip_named=True,
        invariants=(),
        max_failures=1,
    )
    report = run_verify(options)
    assert report.failures, "planted kernel bug was never caught"
    repros = sorted(Path(tmp_path).glob("repro-*.json"))
    assert repros, "no JSON reproducer written"
    payload = json.loads(repros[0].read_text())
    assert payload["kind"] == "differential"
    # The broken log sweep feeds the production log method, so the
    # disagreeing pair names it.
    assert "convolution" in payload["label"].split(" vs "), payload["label"]
    # Shrunk: the reproducer config never grew past the sampler's range.
    assert payload["config"]["n1"] * payload["config"]["n2"] <= 49


# ----------------------------------------------------------------------
# Golden corpus stays green on the production solvers and the oracle
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kernel", tuple(SOLVERS))
def test_kernel_edges_golden_green_for_family(kernel):
    from repro.verify.corpus import GoldenCorpus
    from repro.workloads.kernel_edges import kernel_edges_record

    corpus = GoldenCorpus(Path(__file__).parent / "golden")
    corpus.check("kernel_edges", kernel_edges_record(SOLVERS[kernel]))


# ----------------------------------------------------------------------
# Service wire path: /solve envelopes byte-identical to the oracle
# ----------------------------------------------------------------------


@pytest.mark.service
def test_service_solve_bytes_identical_across_kernel_families():
    """Table 1 configs served by a default daemon (NumPy kernels)
    produce the exact ``"result"`` fragment bytes that ``encode_result``
    gives for an oracle (pure-python sweep) solve.

    The default method is ``convolution`` (log mode), where the kernel
    contract is *bitwise* — so the serialized result must match byte
    for byte.  Envelope fields that legitimately vary (request id,
    ``elapsed_ms``) are outside the compared fragment.
    """
    import http.client

    from repro.api import SolveRequest, SolveResult
    from repro.engine import BatchSolver, EngineConfig
    from repro.service import ServiceConfig, start_in_thread
    from repro.service.protocol import encode_result
    from repro.workloads.scenarios import TABLE1_PAPER

    requests = []
    for n in (4, 8, 16):
        rho1, rho2 = TABLE1_PAPER[n]
        for rho, a in ((rho1, 1), (rho2, 2)):
            requests.append(
                SolveRequest.square(
                    n,
                    [TrafficClass.from_aggregate(rho, 0.0, n2=n, mu=1.0, a=a)],
                )
            )

    handle = start_in_thread(
        ServiceConfig(port=0, batch_window=0.0),
        engine=BatchSolver(EngineConfig()),
    )
    try:
        conn = http.client.HTTPConnection(*handle.address)
        served = []
        for request in requests:
            body = json.dumps({"request": request.to_dict()})
            conn.request(
                "POST", "/solve", body, {"Content-Type": "application/json"}
            )
            raw = conn.getresponse().read()
            head = raw.index(b'"result": ') + len(b'"result": ')
            tail = raw.index(b', "coalesced"')
            served.append(raw[head:tail])
        conn.close()
    finally:
        handle.stop()

    assert len(served) == 6
    for i, (request, got) in enumerate(zip(requests, served)):
        oracle = reference.solve_convolution(request.dims, request.classes)
        want = json.dumps(
            encode_result(SolveResult.from_solution(request, oracle))
        ).encode("utf-8")
        assert got == want, f"request {i}: wire bytes diverged from oracle"
