"""Package re-exports that import their submodule on first use.

A package ``__init__`` that re-exports names with ``from .sub import
Name`` runs every such submodule whenever any module of the package is
imported, so a process that needs one stdlib-only module (the machine
presets, the dataset names, the worker entry point) pays for numpy, the
simulator or the HTTP server as well. A package built with
:func:`lazy_exports` imports a submodule when one of its names is first
read, and keeps the name in the package namespace after that.
``from pkg import Name``, ``from pkg import submodule``, ``dir(pkg)``
and ``from pkg import *`` work as with eager imports. Stdlib only.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``, which
    re-exports ``exports[sub]`` from its submodule ``sub``."""
    owner = {name: sub for sub, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        try:
            sub = owner[name]
        except KeyError:  # also how `from pkg import submodule` falls back
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(f"{package}.{sub}"), name)
        namespace[name] = value  # later reads do not come back here
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | owner.keys())

    return list(owner), __getattr__, __dir__
