"""Canonical cache keys for solve requests.

A cache key must be *exact* (two requests share a key iff they are
guaranteed the same measures) and *stable* (the same request yields the
same key across processes and interpreter runs, so on-disk caches stay
valid).  Floats are therefore rendered with ``float.hex()`` — lossless
and locale-independent — and traffic classes are keyed by their sorted
parameter tuples: the product-form solution is symmetric under class
permutation, so order must not fragment the cache.  Class *names* are
cosmetic and excluded.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence

from ..core.state import SwitchDimensions
from ..core.traffic import TrafficClass
from ..methods import SolveMethod

__all__ = [
    "class_params",
    "canonical_order",
    "request_key",
    "classes_key",
    "key_digest",
]


def class_params(cls: TrafficClass) -> tuple[str, str, str, int, str]:
    """The identity of one class as a sortable, exact tuple."""
    return (
        float(cls.alpha).hex(),
        float(cls.beta).hex(),
        float(cls.mu).hex(),
        cls.a,
        float(cls.weight).hex(),
    )


def canonical_order(classes: Sequence[TrafficClass]) -> list[int]:
    """Indices that sort ``classes`` into canonical (parameter) order."""
    return sorted(range(len(classes)), key=lambda r: class_params(classes[r]))


def classes_key(classes: Sequence[TrafficClass]) -> str:
    """Key of the traffic mix alone (order-insensitive)."""
    parts = sorted(class_params(c) for c in classes)
    return ";".join(",".join(map(str, p)) for p in parts)


def request_key(
    dims: SwitchDimensions,
    classes: Sequence[TrafficClass],
    method: SolveMethod,
    mix: str | None = None,
) -> str:
    """Canonical key of a full request: dims | method | sorted classes.

    ``mix`` is ``classes_key(classes)`` when the caller already has it.
    """
    if mix is None:
        mix = classes_key(classes)
    return f"{dims.n1}x{dims.n2}|{method.value}|{mix}"


def key_digest(key: str) -> str:
    """Short stable digest of a key, used for on-disk file names."""
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:32]
