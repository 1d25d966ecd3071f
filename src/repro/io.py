"""JSON serialization of models, classes, and solutions.

Lets experiments be defined in version-controllable config files and
results archived as machine-readable records:

* :func:`model_to_dict` / :func:`model_from_dict` — round-trip a
  :class:`~repro.core.model.CrossbarModel` (dimensions + traffic mix);
* :func:`load_model` / :func:`save_model` — file variants;
* :func:`solution_to_dict` — archive every standard measure of a
  solved model.

The schema is deliberately flat and explicit::

    {
      "n1": 32, "n2": 32,
      "classes": [
        {"name": "data", "alpha": 0.001, "beta": 0.0,
         "mu": 1.0, "a": 1, "weight": 1.0},
        ...
      ]
    }
"""

from __future__ import annotations

import json
from pathlib import Path

from .core.measures import PerformanceSolution
from .core.model import CrossbarModel
from .core.state import SwitchDimensions
from .core.traffic import TrafficClass
from .exceptions import ConfigurationError

__all__ = [
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
    "class_to_dict",
    "class_from_dict",
    "solution_to_dict",
]

_CLASS_KEYS = {"name", "alpha", "beta", "mu", "a", "weight"}

#: Decoded class names, one shared copy each.  A serving process decodes
#: the same few names on every request, so the results it caches share
#: them rather than keeping one copy per decoded body.  The names come
#: from clients, so the memo is bounded like the daemon's own memos: a
#: full memo is cleared before its next insert.
_NAME_MEMO: dict[str, str] = {}
_NAME_MEMO_CAP = 256


def _shared_name(value: object) -> str:
    """``str(value)``, as the memo's copy when ``value`` is a ``str``."""
    if type(value) is not str:
        return str(value)
    shared = _NAME_MEMO.get(value)
    if shared is None:
        if len(_NAME_MEMO) >= _NAME_MEMO_CAP:
            _NAME_MEMO.clear()
        _NAME_MEMO[value] = shared = value
    return shared


def class_to_dict(cls: TrafficClass) -> dict:
    """Flat JSON-ready record of one traffic class."""
    return {
        "name": cls.name,
        "alpha": cls.alpha,
        "beta": cls.beta,
        "mu": cls.mu,
        "a": cls.a,
        "weight": cls.weight,
    }


def class_from_dict(record: dict) -> TrafficClass:
    """Inverse of :func:`class_to_dict` (unknown keys rejected).

    The name is shared through a bounded memo (:data:`_NAME_MEMO`), so
    the results a serving process caches keep one copy of each name.
    """
    if not isinstance(record, dict):
        raise ConfigurationError(
            f"traffic class record must be an object, got {type(record)}"
        )
    unknown = set(record) - _CLASS_KEYS
    if unknown:
        raise ConfigurationError(
            f"unknown traffic-class fields: {sorted(unknown)}"
        )
    if "alpha" not in record:
        raise ConfigurationError("traffic class needs at least 'alpha'")
    return TrafficClass(
        alpha=float(record["alpha"]),
        beta=float(record.get("beta", 0.0)),
        mu=float(record.get("mu", 1.0)),
        a=int(record.get("a", 1)),
        weight=(
            float(record["weight"]) if "weight" in record else None
        ),
        name=_shared_name(record.get("name", "")),
    )


def model_to_dict(model: CrossbarModel) -> dict:
    """Flat JSON-ready record of a whole model."""
    return {
        "n1": model.dims.n1,
        "n2": model.dims.n2,
        "classes": [class_to_dict(c) for c in model.classes],
    }


def model_from_dict(record: dict) -> CrossbarModel:
    """Inverse of :func:`model_to_dict`."""
    if not isinstance(record, dict):
        raise ConfigurationError(
            f"model record must be an object, got {type(record)}"
        )
    for key in ("n1", "n2", "classes"):
        if key not in record:
            raise ConfigurationError(f"model record missing {key!r}")
    classes = [class_from_dict(c) for c in record["classes"]]
    return CrossbarModel(
        SwitchDimensions(int(record["n1"]), int(record["n2"])),
        tuple(classes),
    )


def save_model(model: CrossbarModel, path: str | Path) -> None:
    """Write a model config as pretty-printed JSON."""
    Path(path).write_text(
        json.dumps(model_to_dict(model), indent=2) + "\n"
    )


def load_model(path: str | Path) -> CrossbarModel:
    """Read a model config written by :func:`save_model` (or by hand)."""
    try:
        record = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"invalid JSON in {path}: {exc}") from exc
    return model_from_dict(record)


def solution_to_dict(solution: PerformanceSolution) -> dict:
    """Archive every standard measure of a solved model."""
    return {
        "dims": [solution.dims.n1, solution.dims.n2],
        "method": solution.method,
        "revenue": solution.revenue(),
        "utilization": solution.utilization(),
        "mean_occupancy": solution.mean_occupancy(),
        "classes": [
            {
                "name": cls.name or f"class-{r}",
                "kind": cls.kind,
                "a": cls.a,
                "blocking": solution.blocking(r),
                "call_congestion": solution.call_congestion(r),
                "concurrency": solution.concurrency(r),
                "throughput": solution.throughput(r),
            }
            for r, cls in enumerate(solution.classes)
        ],
    }
