"""Package names that load their module on first use (PEP 562).

A package ``__init__`` that re-exports a heavy layer — the cycle model,
the serve job manager — would make every importer pay for it.  Instead
it lists those names here, and a fast-model command that never touches
one never loads the module behind it::

    __getattr__ = lazy_exports(__name__, {"DramChannel": ".dram"})

``from repro.mem import DramChannel`` still works: the import resolves
the name through the package's ``__getattr__``.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable


def lazy_exports(package: str, sources: dict[str, str]) -> Callable[[str], object]:
    """A module ``__getattr__`` for ``package`` that imports each name
    of ``sources`` from the submodule it maps to (relative to
    ``package``) on first access, and keeps it in the package's
    namespace, so a later lookup is a plain attribute read."""

    def __getattr__(name: str) -> object:
        if name not in sources:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(sources[name], package), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
