"""The JSON wire schema shared by the daemon and its client.

Byte identity is the contract of the whole service: a result served
over the wire must compare equal — ``float.hex``-exact — to what a
direct in-process :func:`repro.api.solve` returns.  Python's ``json``
module already guarantees this (floats are emitted with ``repr``,
the shortest exact round-trip), so results travel as the plain
:meth:`~repro.api.SolveResult.to_dict` records; this module only adds
the envelopes (success, failure, rejection) and their inverses.

Wire envelopes
--------------
* success: ``{"id", "result", "from_cache", "coalesced", "elapsed_ms"}``
* failure: ``{"id", "error": {"kind": "solve_failed", "error_type",
  "error_message", "request", "attempts"}}`` — a faithful round-trip of
  the engine's :class:`~repro.engine.FailedResult` envelope;
* rejection: ``{"id", "error": {"kind": "admission_rejected",
  "retry_after", ...gate counters}}`` with HTTP 503 and a
  ``Retry-After`` header (blocked calls are *cleared*: the daemon
  holds no queue for them);
* deadline: requests may carry ``"deadline_ms"`` (a client latency
  budget); a request that cannot be served inside it returns HTTP 504
  with ``{"kind": "deadline_exceeded"}`` — see
  :func:`decode_deadline_ms`;
* degraded: under brownout (:mod:`repro.service.brownout`) a served
  result may be marked ``"degraded": true`` plus a
  ``"degraded_stage"`` and provenance — byte identity is only
  promised for envelopes *without* the marker;
* batch: ``{"id", "results": [...], "failed", "coalesced",
  "admission_weight", "elapsed_ms"}`` — :func:`encode_batch` splices it
  from per-result fragments, byte for byte what ``json.dumps`` gives.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from collections.abc import Sequence
from json.encoder import encode_basestring_ascii
from typing import Any

from ..api import RESULT_SCHEMA_VERSION, SolveRequest, SolveResult
from ..core.state import SwitchDimensions
from ..engine import FailedResult, TaskAttempt
from ..exceptions import ConfigurationError
from ..methods import SolveMethod

__all__ = [
    "decode_deadline_ms",
    "decode_failed",
    "decode_first_request",
    "decode_request",
    "decode_request_list",
    "decode_result",
    "encode_batch",
    "encode_failed",
    "encode_result",
    "new_request_id",
]

_counter = itertools.count(1)
_prefix = f"{os.getpid():x}"


def new_request_id() -> str:
    """A process-unique request id, threaded through logs and replies."""
    return f"req-{_prefix}-{next(_counter):06x}"


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------


def decode_request(payload: Any) -> SolveRequest:
    """Parse one request record (the ``SolveRequest.to_dict`` schema)."""
    if not isinstance(payload, dict):
        raise ConfigurationError(
            f"request payload must be an object, got {type(payload).__name__}"
        )
    record = payload.get("request", payload)
    try:
        return SolveRequest.from_dict(record)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed solve request: {exc}") from exc


def decode_deadline_ms(payload: Any) -> float | None:
    """The request's latency budget in **seconds**, or None.

    Clients send ``"deadline_ms"`` alongside the request record (on
    either a ``/solve`` or a ``/batch`` envelope): the wall-clock
    budget, in milliseconds, they are willing to wait.  The daemon
    enforces it end to end — an expired request returns a structured
    504 instead of occupying a batch slot.  Absent, ``null``, zero or
    negative budgets all decode to None (no deadline): a non-positive
    budget cannot mean "reject everything", only "no bound".
    """
    if not isinstance(payload, dict):
        return None
    raw = payload.get("deadline_ms")
    if raw is None:
        return None
    try:
        budget_ms = float(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"deadline_ms must be a number, got {raw!r}"
        ) from exc
    if not budget_ms > 0.0 or not math.isfinite(budget_ms):
        return None  # 0, negative, NaN and inf all mean "no bound"
    return budget_ms / 1e3


def decode_request_list(payload: Any) -> list[SolveRequest]:
    """Parse a batch body: ``{"requests": [...]}`` or a bare list.

    A sweep repeats one traffic mix on every record, so a record whose
    raw ``classes`` list equals the previous record's reuses that
    record's decoded class tuple (and with it the memoized mix part of
    the cache key) instead of decoding the list again: it costs a dims
    parse, and the request is built without re-validating the classes
    (:meth:`~repro.api.SolveRequest.with_dims`).  Its dims and method
    are still parsed and validated, with the messages
    :func:`decode_request` would give.
    """
    payload = _batch_records(payload)
    requests: list[SolveRequest] = []
    previous: SolveRequest | None = None
    previous_mix: Any = None
    loose_slots: list[tuple[int, str, str]] | None = None
    for item in payload:
        record = item.get("request", item) if isinstance(item, dict) else None
        mix = record.get("classes") if isinstance(record, dict) else None
        if (
            previous is not None
            and loose_slots is not None
            and mix == previous_mix
            and (not loose_slots
                 or all(repr(mix[i][k]) == r for i, k, r in loose_slots))
        ):
            # Derive from the latest record: the mix key travels along.
            previous = _decode_on_mix(record, previous)
        else:
            previous = decode_request(item)
            previous_mix, loose_slots = mix, _loose_slots(mix)
        requests.append(previous)
    return requests


def decode_first_request(payload: Any) -> SolveRequest:
    """The first member of a batch body, as :func:`decode_request_list`
    decodes it; the later members are not looked at."""
    return decode_request(_batch_records(payload)[0])


def _batch_records(payload: Any) -> list:
    if isinstance(payload, dict):
        payload = payload.get("requests")
    if not isinstance(payload, list) or not payload:
        raise ConfigurationError(
            "batch payload needs a non-empty 'requests' list"
        )
    return payload


def _loose_slots(mix: list) -> list[tuple[int, str, str]] | None:
    """Where ``==`` on this (decoded) raw mix is looser than decoding.

    ``0.0 == -0.0 == 0 == False`` and ``1 == 1.0 == True``, yet a signed
    zero decodes to a different class and a name decodes through
    ``str()``.  Returns the zero-valued numeric slots with the
    ``repr`` a reusing record must match, or None (never reuse) when a
    name is not a string.
    """
    slots = []
    for i, record in enumerate(mix):
        for field_name, value in record.items():
            if field_name == "name":
                if type(value) is not str:
                    return None
            elif type(value) is not str and value == 0:
                slots.append((i, field_name, repr(value)))
    return slots


def _decode_on_mix(record: dict, previous: SolveRequest) -> SolveRequest:
    """``record`` whose raw classes decode to ``previous.classes``."""
    try:
        dims = SwitchDimensions(int(record["n1"]), int(record["n2"]))
        method = SolveMethod.coerce(
            record.get("method", SolveMethod.CONVOLUTION)
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed solve request: {exc}") from exc
    request = previous.with_dims(dims)
    return request if method is request.method else request.with_method(method)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


def encode_result(result: SolveResult) -> dict:
    record = result.to_dict()
    record["from_cache"] = result.from_cache
    return record


def encode_batch(request_id: str, items: Sequence[Any], tail: dict) -> bytes:
    """The ``/batch`` reply, byte for byte
    ``json.dumps({"id": request_id, "results": records, **tail})``.

    ``items`` are :class:`~repro.api.SolveResult` (recorded as
    :func:`encode_result` does), :class:`~repro.engine.FailedResult`
    (:func:`encode_failed` plus ``"failed": true``) or ready record
    dicts.  A result's record is formatted directly, and the class list
    of each distinct request mix is serialized once, not once per point.
    """
    classes_json: dict[int, str] = {}
    records = []
    for item in items:
        if isinstance(item, SolveResult):
            records.append(_result_record(item, classes_json))
        elif isinstance(item, FailedResult):
            records.append(json.dumps(encode_failed(item) | {"failed": True}))
        else:
            records.append(json.dumps(item))
    rest = json.dumps(tail)[1:] if tail else "}"
    return (
        f'{{"id": {_text(request_id)}, "results": [{", ".join(records)}]'
        f'{", " if tail else ""}{rest}'
    ).encode("utf-8")


def _result_record(result: SolveResult, classes_json: dict[int, str]) -> str:
    """``json.dumps(encode_result(result))``, formatted directly."""
    request = result.request
    classes = classes_json.get(id(request.classes))
    if classes is None:
        from ..io import class_to_dict

        classes = json.dumps([class_to_dict(c) for c in request.classes])
        classes_json[id(request.classes)] = classes
    dims = request.dims
    return (
        f'{{"schema": {_number(RESULT_SCHEMA_VERSION)}, "request": '
        f'{{"n1": {_number(dims.n1)}, "n2": {_number(dims.n2)}, '
        f'"method": {_text(request.method.value)}, "classes": {classes}}}, '
        f'"blocking": {_floats(result.blocking)}, '
        f'"concurrency": {_floats(result.concurrency)}, '
        f'"acceptance": {_floats(result.acceptance)}, '
        f'"throughput": {_floats(result.throughput)}, '
        f'"revenue": {_number(result.revenue)}, '
        f'"mean_occupancy": {_number(result.mean_occupancy)}, '
        f'"utilization": {_number(result.utilization)}, '
        f'"solved_by": {_text(result.solved_by)}, '
        f'"from_cache": {"true" if result.from_cache else "false"}}}'
    )


# json.dumps renders a float with float.__repr__ unless it is nan or
# +-inf (NaN, Infinity), and a str with encode_basestring_ascii; these
# take that path for plain values and hand anything else to json.dumps.


def _number(value: Any) -> str:
    if type(value) is float:
        text = float.__repr__(value)
        if "n" not in text:  # "nan", "inf"
            return text
    elif type(value) is int:
        return int.__repr__(value)
    return json.dumps(value)


def _floats(values: Sequence[Any]) -> str:
    try:
        text = ", ".join(map(float.__repr__, values))
    except TypeError:  # not all floats
        return json.dumps(list(values))
    return json.dumps(list(values)) if "n" in text else f"[{text}]"


def _text(value: Any) -> str:
    if type(value) is str:
        return encode_basestring_ascii(value)
    return json.dumps(value)


def decode_result(record: dict) -> SolveResult:
    from_cache = bool(record.get("from_cache", False))
    result = SolveResult.from_dict(record)
    if from_cache:
        from dataclasses import replace

        result = replace(result, from_cache=True)
    return result


def encode_failed(failed: FailedResult) -> dict:
    record = failed.to_dict()
    record["kind"] = "solve_failed"
    return record


def decode_failed(record: dict) -> FailedResult:
    """Rebuild the engine's failure envelope from its wire form."""
    return FailedResult(
        request=SolveRequest.from_dict(record["request"]),
        error_type=str(record.get("error_type", "ComputationError")),
        error_message=str(record.get("error_message", "")),
        attempts=tuple(
            TaskAttempt(
                attempt=int(a.get("attempt", 0)),
                outcome=str(a.get("outcome", "error")),
                elapsed=float(a.get("elapsed", 0.0)),
                detail=str(a.get("detail", "")),
            )
            for a in record.get("attempts", ())
        ),
    )
