"""PEP 562 lazy exports: package names imported on first access."""

from __future__ import annotations

from collections.abc import Callable, Mapping
from importlib import import_module


def lazy_exports(
    package: str, exports: Mapping[str, str], namespace: dict
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The module ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps each lazy name to the module (relative to
    ``package``) that defines it.  The first access imports that module
    and caches the value in ``namespace``, the package's ``globals()``,
    so later accesses skip ``__getattr__``.
    """

    def __getattr__(name: str) -> object:
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
