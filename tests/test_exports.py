"""Every exported name of the package and of its modules resolves."""

from __future__ import annotations

import importlib
import pkgutil

import gracecode


def test_all_exports_resolve():
    names = [info.name for info in pkgutil.iter_modules(gracecode.__path__)]
    for module in [gracecode, *(importlib.import_module(f"gracecode.{name}") for name in names)]:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
