"""Every name a module exports through ``__all__`` exists."""

import importlib
import pkgutil

import popcode_mi


def test_every_export_resolves():
    modules = [popcode_mi] + [importlib.import_module(f"popcode_mi.{info.name}")
                              for info in pkgutil.iter_modules(popcode_mi.__path__)
                              if info.name != "__main__"]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert len(modules) > 5
    assert missing == []
