"""Every name a module exports through ``__all__`` exists, and every name
it imports is used."""

import ast
import importlib
import pkgutil
from pathlib import Path

import popcode_mi


def test_every_export_resolves():
    modules = [popcode_mi] + [importlib.import_module(f"popcode_mi.{info.name}")
                              for info in pkgutil.iter_modules(popcode_mi.__path__)
                              if info.name != "__main__"]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert len(modules) > 5
    assert missing == []


# perfbench wraps these by module attribute, so they stay importable there.
PERFBENCH_HOOKS = {"popcode_mi.optimize.chol_logdet", "popcode_mi.mi.sym_inv_sqrt",
                   "popcode_mi.transform.sym_inv_sqrt"}


def test_every_import_is_used():
    """A name a package module imports is used in it or listed in its ``__all__``."""
    unused = []
    for path in sorted(Path(popcode_mi.__file__).parent.glob("*.py")):
        module = "popcode_mi" if path.stem == "__init__" else f"popcode_mi.{path.stem}"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.stem != "__main__":  # importing __main__ would run the CLI
            used |= set(getattr(importlib.import_module(module), "__all__", ()))
        unused += [f"{module}.{name}" for name in sorted(imported - used)]
    assert set(unused) == PERFBENCH_HOOKS


def test_pd_decisions_live_in_linalg():
    """Only ``_linalg`` catches ``LinAlgError`` (and ``cli``, to map it to an exit
    code): every other module takes its positive-definiteness decisions from
    ``_linalg``'s pivot rule."""
    handlers = set()
    for path in sorted(Path(popcode_mi.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        handlers |= {f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.ExceptHandler) and node.type is not None
                     and "LinAlgError" in ast.unparse(node.type)}
    files = {handler.split(":")[0] for handler in handlers}
    assert "_linalg.py" in files
    assert files <= {"_linalg.py", "cli.py"}, sorted(handlers)
