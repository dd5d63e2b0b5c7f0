"""Lazy package exports (PEP 562).

Every process compiles what it imports from source (the bench host sets
``PYTHONDONTWRITEBYTECODE=1``), so a package ``__init__`` that eagerly
re-exports the search stack, the report renderer or the lint rules
taxes commands that never touch them.  Such names are listed here
instead and load their module on first use; every public import path
keeps working.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]], submodules=()):
    """A module ``__getattr__`` for ``package``: ``exports`` maps a
    (relative) module to the public names it defines, ``submodules`` are
    child modules reachable as plain attributes."""
    modules = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name in submodules:
            return importlib.import_module(f"{package}.{name}")
        if name not in modules:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(modules[name], package), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
