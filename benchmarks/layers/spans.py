"""Turn the traced server's span files into per-layer metrics.

A request's *server span* runs from ``read_request`` returning to
``write_response`` returning on the daemon.  Its children are every
span recorded under it and the flush-thread ``engine`` spans that
evaluated one of its cache keys inside its interval (with their
``kernel`` spans).

Self time: every instant of a server span is charged to the
highest-priority layer whose span covers it (:data:`SPLIT`, innermost
layers first); instants no child covers are *unattributed* (thread
hops, event-loop scheduling, GIL waits, JSON parsing).  The
split is reported for the *median cohort*: the requests whose server
span lies between its 45th and 55th percentile.  ``server.span_p50_ms``
is that cohort's mean span, so the ``self.*`` values plus
``server.unattributed_p50_ms`` add up to it exactly.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

from load import percentile

__all__ = ["SPLIT", "read_trace", "layer_metrics"]

#: Layer of each child span, highest charging priority first.
SPLIT = (
    ("kernel", "kernel"),
    ("engine", "engine"),
    ("queue", "queue"),
    ("coalesce.wait", "coalesce"),
    ("lookup", "lookup"),
    ("decode", "decode"),
    ("encode", "encode"),
    ("write", "write"),
)
_PRIORITY = {span: rank for rank, (span, _) in enumerate(SPLIT)}
_LAYER = dict(SPLIT)
_SOLVE_PATHS = ("/solve", "/batch")


class _Process:
    """The spans of one traced process, indexed for linking."""

    def __init__(self, lines: list[dict]) -> None:
        self.scaled_fallbacks = 0
        self.requests: list[dict] = []
        self.children: dict[int, list[dict]] = defaultdict(list)
        self.by_name: dict[str, list[dict]] = defaultdict(list)
        self.engine_by_key: dict[int, list[dict]] = defaultdict(list)
        for span in lines:
            name = span["name"]
            if name == "process":
                self.scaled_fallbacks = span["scaled_fallbacks"]
                continue
            self.by_name[name].append(span)
            if name == "request":
                self.requests.append(span)
            elif span["parent"] is not None:
                self.children[span["parent"]].append(span)
            if name == "engine":
                for key in span["keys"]:
                    self.engine_by_key[key].append(span)

    def intervals(self, request: dict) -> list[tuple[float, float, str]]:
        """Child intervals of one server span, cross-thread links too."""
        out = [
            (c["start"], c["end"], c["name"])
            for c in self.children.get(request["id"], ())
            if c["name"] in _PRIORITY
        ]
        seen = set()
        for key in request["keys"]:
            for engine in self.engine_by_key.get(key, ()):
                if (engine["id"] in seen
                        or engine["start"] < request["start"]
                        or engine["end"] > request["end"]):
                    continue
                seen.add(engine["id"])
                out.append((engine["start"], engine["end"], "engine"))
                out.extend(
                    (k["start"], k["end"], "kernel")
                    for k in self.children.get(engine["id"], ())
                )
        return out


def read_trace(trace_dir: Path) -> list[_Process]:
    processes = []
    for path in sorted(Path(trace_dir).glob("*.jsonl")):
        with open(path) as fh:
            processes.append(_Process([json.loads(line) for line in fh]))
    return processes


def _self_times(start: float, end: float,
                intervals: list[tuple[float, float, str]]) -> dict[str, float]:
    """Charge each instant of [start, end] to its top-priority cover."""
    events = [(start, 0, -1), (end, 0, -1)]
    for s, e, name in intervals:
        s, e = max(s, start), min(e, end)
        if e > s:
            events += [(s, 1, _PRIORITY[name]), (e, -1, _PRIORITY[name])]
    events.sort()
    active = [0] * len(SPLIT)
    charged: dict[str, float] = defaultdict(float)
    at = start
    for when, delta, rank in events:
        if when > at:
            top = next((r for r, c in enumerate(active) if c), None)
            layer = "unattributed" if top is None else _LAYER[SPLIT[top][0]]
            charged[layer] += when - at
            at = when
        if rank >= 0:
            active[rank] += delta
    return charged


def _ms(values: list[float], q: float) -> float:
    return percentile(values, q) * 1e3


def layer_metrics(processes: list[_Process], began: float, ended: float,
                  wire_log: list[tuple[float, float, str]]) -> dict:
    """Per-layer metrics of the server spans that began in the window."""
    def in_window(span: dict) -> bool:
        return began <= span["start"] <= ended

    def spans(name: str) -> list[dict]:
        return [s for p in processes for s in p.by_name.get(name, ())
                if in_window(s)]

    def durations(name: str) -> list[float]:
        return [s["end"] - s["start"] for s in spans(name)]

    # -- the per-request split -------------------------------------------
    rows = []
    for proc in processes:
        for request in proc.requests:
            if (request["path"] not in _SOLVE_PATHS
                    or request["status"] != 200 or not in_window(request)):
                continue
            span = request["end"] - request["start"]
            rows.append((span, request["xid"],
                         _self_times(request["start"], request["end"],
                                     proc.intervals(request))))
    rows.sort(key=lambda row: row[0])
    n = len(rows)
    cohort = rows[int(0.45 * n):max(int(0.55 * n), int(0.45 * n) + 1)]
    metrics = {
        "server.traced_requests": float(n),
        "server.span_p50_ms": (
            statistics.fmean(r[0] for r in cohort) * 1e3 if cohort else 0.0
        ),
        "server.unattributed_p50_ms": (
            statistics.fmean(r[2].get("unattributed", 0.0) for r in cohort)
            * 1e3 if cohort else 0.0
        ),
    }
    for layer in dict.fromkeys(_LAYER.values()):
        metrics[f"self.{layer}_p50_ms"] = (
            statistics.fmean(r[2].get(layer, 0.0) for r in cohort) * 1e3
            if cohort else 0.0
        )

    sent = {xid: recv - send for send, recv, xid in wire_log}
    metrics["wire.gap_p50_ms"] = _ms(
        [sent[xid] - span for span, xid, _ in rows if xid in sent], 50
    )

    # -- per-layer distributions and counts ------------------------------
    served = [r for p in processes for r in p.requests
              if r["path"] in _SOLVE_PATHS and in_window(r)]
    per_req = max(len(served), 1)
    metrics["httpio.write_p50_us"] = percentile(durations("write"), 50) * 1e6
    decodes = spans("decode")
    metrics["protocol.decode_per_req"] = sum(d["n"] for d in decodes) / per_req
    metrics["protocol.decode_p50_us"] = percentile(
        [d["end"] - d["start"] for d in decodes], 50
    ) * 1e6
    encode_per_req: dict[int, float] = defaultdict(float)
    for proc in processes:
        for span in proc.by_name.get("encode", ()):
            if in_window(span):
                encode_per_req[(id(proc), span["parent"])] += (
                    span["end"] - span["start"]
                )
    metrics["protocol.encode_p50_us"] = percentile(
        list(encode_per_req.values()), 50
    ) * 1e6

    holds, rejects = durations("gate.hold"), spans("gate.reject")
    metrics["gate.hold_p50_ms"] = _ms(holds, 50)
    metrics["gate.hold_p99_ms"] = _ms(holds, 99)
    metrics["gate.rejected_ratio"] = (
        len(rejects) / (len(holds) + len(rejects)) if holds or rejects
        else 0.0
    )

    waits, leads = durations("coalesce.wait"), spans("coalesce.lead")
    metrics["coalesce.hit_ratio"] = (
        len(waits) / (len(waits) + len(leads)) if waits or leads else 0.0
    )
    metrics["coalesce.follower_wait_p50_ms"] = _ms(waits, 50)

    queue = durations("queue")
    metrics["batcher.queue_wait_p50_ms"] = _ms(queue, 50)
    metrics["batcher.queue_wait_p99_ms"] = _ms(queue, 99)
    engines = spans("engine")
    metrics["batcher.batch_size_mean"] = (
        statistics.fmean(e["n"] for e in engines) if engines else 0.0
    )
    metrics["batcher.flushes"] = float(len(engines))

    lookups = [s for s in spans("lookup") if s["fast"]]
    metrics["engine.fastpath_hit_ratio"] = (
        sum(s["hit"] for s in lookups) / len(lookups) if lookups else 0.0
    )
    evaluate = [e["end"] - e["start"] for e in engines]
    metrics["engine.evaluate_p50_ms"] = _ms(evaluate, 50)
    metrics["engine.evaluate_p99_ms"] = _ms(evaluate, 99)
    solves = sum(e["grid_groups"] + e["solved"] for e in engines)
    metrics["engine.grid_points_per_solve"] = (
        sum(e["grid_points"] + e["solved"] for e in engines) / solves
        if solves else 0.0
    )
    metrics["engine.pool_fanouts"] = float(sum(e["parallel"] for e in engines))
    metrics["engine.retries"] = float(sum(e["retries"] for e in engines))
    metrics["engine.failed"] = float(sum(e["failed"] for e in engines))

    kernels = spans("kernel")
    kernel_times = [k["end"] - k["start"] for k in kernels]
    metrics["kernel.solve_p50_ms"] = _ms(kernel_times, 50)
    metrics["kernel.solve_p99_ms"] = _ms(kernel_times, 99)
    metrics["kernel.solves_per_req"] = len(kernels) / per_req
    metrics["kernel.numpy_share"] = (
        sum(k["kernel"] == "numpy" for k in kernels) / len(kernels)
        if kernels else 0.0
    )
    metrics["kernel.scaled_fallbacks"] = float(
        sum(p.scaled_fallbacks for p in processes)
    )
    return metrics
