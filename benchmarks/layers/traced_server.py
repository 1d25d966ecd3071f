"""The shipped daemon with per-layer spans, for traced runs.

Usage::

    PYTHONPATH=src python benchmarks/layers/traced_server.py \\
        --trace-out DIR serve --port P

Everything after ``--trace-out DIR`` is handed unchanged to the
``repro`` CLI, so the traced process runs exactly the code path of an
untraced one.  Before that, this entry point wraps the public call
each layer exposes -- nothing under ``src/`` changes:

==================  ===============================================
span / event        wrapped call
==================  ===============================================
``request``         ``read_request`` returning -> ``write_response``
                    returning (names bound in ``repro.service.server``)
``write``           ``write_response``
``decode``          ``decode_request`` / ``decode_request_list``
``encode``          ``encode_result``
``gate.hold``       ``AdmissionGate.try_acquire`` -> ``release``
``gate.reject``     ``try_acquire`` returning None (instant)
``lookup``          ``BatchSolver.cached_result``
``coalesce.wait``   ``SingleFlight.join`` hit -> the flight resolving
``coalesce.lead``   ``SingleFlight.lead`` (instant)
``queue``           ``MicroBatcher.submit`` -> its ``evaluate_many``
``engine``          ``BatchSolver.evaluate_many`` (flush thread)
``kernel``          ``solve_convolution`` / ``solve_mva``
==================  ===============================================

Spans of one request share its ``request`` span as parent: the
identifier lives in a context variable set when ``read_request``
returns on the connection task (tasks gathered by ``/batch`` inherit
it).  Flush-thread ``engine`` spans serve many requests, so they carry
the (hashed) cache keys they evaluated instead of a parent; a request
records its keys as ``lookup``/``join``/``lead``/``submit`` see them.
Spans stay in memory and are written as one JSONL file,
``DIR/daemon-<pid>.jsonl``, when the process ends.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

__all__ = ["install", "main"]

_now = time.perf_counter
_ids = itertools.count(1)
_spans: list[tuple] = []
_lock = threading.Lock()
_local = threading.local()
#: Submitted, not yet evaluated: key hash -> (span id, parent, time).
#: Only a flight's leader submits, so a key is queued at most once.
_queued: dict[int, tuple[int, int | None, float]] = {}
#: BatchMetrics fields copied onto each ``engine`` span.
_ENGINE_FIELDS = ("grid_groups", "grid_points", "solved", "parallel",
                  "retries", "failed")
_state = {"installed": False}


class _Req:
    """The request being served on the current connection task."""

    __slots__ = ("id", "start", "path", "keys")

    def __init__(self, path: str) -> None:
        self.id = next(_ids)
        self.start = _now()
        self.path = path
        self.keys: set[int] = set()


_current: contextvars.ContextVar[_Req | None] = contextvars.ContextVar(
    "layers_request", default=None
)


def _emit(name: str, span_id: int, parent: int | None, start: float,
          end: float, **attrs) -> None:
    _spans.append((name, span_id, parent, start, end, attrs))


def _parent() -> int | None:
    req = _current.get()
    return req.id if req is not None else None


def _note_key(key: str) -> None:
    req = _current.get()
    if req is not None:
        req.keys.add(hash(key))


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------


def _wrap_read(orig):
    @functools.wraps(orig)
    async def read_request(reader, *args, **kwargs):
        http = await orig(reader, *args, **kwargs)
        if http is not None:
            _current.set(_Req(http.path))
        return http
    return read_request


def _wrap_write(orig):
    @functools.wraps(orig)
    async def write_response(writer, status, body, *args, **kwargs):
        req = _current.get()
        began = _now()
        try:
            await orig(writer, status, body, *args, **kwargs)
        finally:
            end = _now()
            if req is not None:
                _current.set(None)
                headers = kwargs.get("extra_headers") or {}
                _emit("write", next(_ids), req.id, began, end)
                _emit("request", req.id, None, req.start, end,
                      path=req.path, status=status,
                      xid=headers.get("X-Request-Id", ""),
                      keys=sorted(req.keys))
    return write_response


def _wrap_timed(orig, name, count=None):
    @functools.wraps(orig)
    def timed(*args, **kwargs):
        began = _now()
        result = orig(*args, **kwargs)
        attrs = {"n": count(result)} if count is not None else {}
        _emit(name, next(_ids), _parent(), began, _now(), **attrs)
        return result
    return timed


def _wrap_gate(gate_cls) -> None:
    try_acquire, release = gate_cls.try_acquire, gate_cls.release
    held: dict[int, tuple[int, int | None, float]] = {}

    @functools.wraps(try_acquire)
    def traced_acquire(self, admission_class, weight):
        lease = try_acquire(self, admission_class, weight)
        now = _now()
        if lease is None:
            _emit("gate.reject", next(_ids), _parent(), now, now)
        else:
            held[id(lease)] = (next(_ids), _parent(), now)
        return lease

    @functools.wraps(release)
    def traced_release(self, lease):
        release(self, lease)
        entry = held.pop(id(lease), None)
        if entry is not None:
            span_id, parent, began = entry
            _emit("gate.hold", span_id, parent, began, _now(),
                  weight=lease.weight)

    gate_cls.try_acquire, gate_cls.release = traced_acquire, traced_release


def _wrap_flights(flight_cls) -> None:
    join, lead = flight_cls.join, flight_cls.lead

    @functools.wraps(join)
    def traced_join(self, key):
        _note_key(key)
        future = join(self, key)
        if future is not None:
            span_id, parent, began = next(_ids), _parent(), _now()
            future.add_done_callback(
                lambda _f: _emit("coalesce.wait", span_id, parent, began,
                                 _now())
            )
        return future

    @functools.wraps(lead)
    def traced_lead(self, key, loop):
        _note_key(key)
        now = _now()
        _emit("coalesce.lead", next(_ids), _parent(), now, now)
        return lead(self, key, loop)

    flight_cls.join, flight_cls.lead = traced_join, traced_lead


def _wrap_batcher(batcher_cls) -> None:
    submit = batcher_cls.submit

    @functools.wraps(submit)
    def traced_submit(self, request, future, deadline=None):
        key = request.cache_key
        _note_key(key)
        with _lock:
            _queued[hash(key)] = (next(_ids), _parent(), _now())
        return submit(self, request, future, deadline)

    batcher_cls.submit = traced_submit


def _wrap_engine(engine_cls) -> None:
    evaluate_many, cached_result = (
        engine_cls.evaluate_many, engine_cls.cached_result
    )

    @functools.wraps(evaluate_many)
    def traced_evaluate(self, requests, *args, **kwargs):
        requests = list(requests)
        keys = [hash(r.cache_key) for r in requests]
        span_id, began = next(_ids), _now()
        with _lock:
            waited = [_queued.pop(k) for k in keys if k in _queued]
        for queue_id, parent, queued_at in waited:
            _emit("queue", queue_id, parent, queued_at, began)
        _local.engine = span_id
        try:
            results = evaluate_many(self, requests, *args, **kwargs)
        finally:
            _local.engine = None
        metrics = self.last_metrics
        _emit("engine", span_id, None, began, _now(), keys=keys,
              n=len(requests),
              **{f: getattr(metrics, f) for f in _ENGINE_FIELDS})
        return results

    @functools.wraps(cached_result)
    def traced_lookup(self, request, memory_only=False):
        _note_key(request.cache_key)
        began = _now()
        hit = cached_result(self, request, memory_only)
        _emit("lookup", next(_ids), _parent(), began, _now(),
              hit=hit is not None, fast=bool(memory_only))
        return hit

    engine_cls.evaluate_many = traced_evaluate
    engine_cls.cached_result = traced_lookup


def _wrap_kernel(module, name: str) -> None:
    orig = getattr(module, name)

    @functools.wraps(orig)
    def kernel(dims, *args, **kwargs):
        began = _now()
        solution = orig(dims, *args, **kwargs)
        _emit("kernel", next(_ids), getattr(_local, "engine", None), began,
              _now(), n=dims.n1,
              kernel=getattr(solution, "kernel", "python"))
        return solution

    setattr(module, name, kernel)


def install() -> None:
    """Wrap every layer's public calls (idempotent per process)."""
    if _state["installed"]:
        return
    _state["installed"] = True
    from repro.core import convolution, mva
    from repro.engine.batch import BatchSolver
    from repro.service import server
    from repro.service.batcher import MicroBatcher
    from repro.service.coalesce import SingleFlight
    from repro.service.gate import AdmissionGate

    server.read_request = _wrap_read(server.read_request)
    server.write_response = _wrap_write(server.write_response)
    server.decode_request = _wrap_timed(
        server.decode_request, "decode", lambda _r: 1
    )
    server.decode_request_list = _wrap_timed(
        server.decode_request_list, "decode", len
    )
    server.encode_result = _wrap_timed(server.encode_result, "encode")
    _wrap_gate(AdmissionGate)
    _wrap_flights(SingleFlight)
    _wrap_batcher(MicroBatcher)
    _wrap_engine(BatchSolver)
    _wrap_kernel(convolution, "solve_convolution")
    _wrap_kernel(mva, "solve_mva")


def dump(out: Path) -> None:
    """Write this process's spans to a JSONL file under ``out``."""
    from repro.core.kernels import scaled_fallback_count

    out.mkdir(parents=True, exist_ok=True)
    path = out / f"daemon-{os.getpid()}.jsonl"
    with open(path, "w") as fh:
        for name, span_id, parent, start, end, attrs in list(_spans):
            fh.write(json.dumps({
                "name": name, "id": span_id, "parent": parent,
                "start": start, "end": end, **attrs,
            }) + "\n")
        fh.write(json.dumps({
            "name": "process", "pid": os.getpid(),
            "scaled_fallbacks": scaled_fallback_count(),
        }) + "\n")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 2 or argv[0] != "--trace-out":
        print("usage: traced_server.py --trace-out DIR <repro CLI args>",
              file=sys.stderr)
        return 2
    install()
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[2:])
    finally:
        dump(Path(argv[1]))


if __name__ == "__main__":
    sys.exit(main())
