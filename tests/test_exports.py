"""Every name a module exports through ``__all__`` exists and is reached by
a run, the README, an acceptance test or the benchmark, and every name it
imports is used."""

import ast
import dataclasses
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import textwrap
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


ROOT = Path(__file__).resolve().parent.parent
PUBLIC_MODULES = ("models", "fisher", "mi", "mc", "transform", "optimize", "cli")


def _words(text: str) -> set:
    return set(re.findall(r"\w+", text))


def test_public_names_are_reached():
    """Each ``__all__`` name appears as a word in the README, ``cli``, the
    benchmark or the acceptance tests, so no public name serves unit tests
    alone.  A dataclass also counts when a reached function returns it or a
    reached dataclass has a field of its type."""
    sources = [ROOT / "README.md", ROOT / "src" / "popcode_mi" / "cli.py",
               ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    words = set().union(*(_words(path.read_text(encoding="utf-8")) for path in sources))
    exported = {}
    for name in PUBLIC_MODULES:
        module = importlib.import_module(f"popcode_mi.{name}")
        exported.update({f"{name}.{attr}": getattr(module, attr) for attr in module.__all__})
    reached = {key for key in exported if key.split(".")[1] in words}
    grown = True
    while grown:  # close under return and field annotations
        named = set()
        for key in reached:
            obj = exported[key]
            if dataclasses.is_dataclass(obj):
                named |= set().union(*(_words(str(f.type)) for f in dataclasses.fields(obj)))
            elif callable(obj):
                named |= _words(str(getattr(obj, "__annotations__", {}).get("return", "")))
        new = {key for key, obj in exported.items() if key not in reached
               and dataclasses.is_dataclass(obj) and key.split(".")[1] in named}
        reached |= new
        grown = bool(new)
    assert sorted(set(exported) - reached) == []


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


def _modules_after(statement: str) -> set:
    """Names in ``sys.modules`` after ``statement`` runs in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(popcode_mi.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = f"import sys\n{statement}\nprint('\\n'.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_import_footprint():
    """The package depends on numpy alone: importing its entry points loads no
    scipy module at all.  ``numpy.random`` is loaded at import, so the first
    draw inside a run does not pay for it."""
    loaded = _modules_after(
        "import popcode_mi.cli, popcode_mi.mi, popcode_mi.optimize, popcode_mi.transform")
    assert {name for name in loaded if name.split(".")[0] == "scipy"} == set()
    assert "numpy.random" in loaded


TINY_RUNS = {
    "fig1": {"n_list": [2, 3], "j_max": 300, "i_max": 20, "m": 50, "repeats": 2},
    "fig2": {"widths": [2], "n_list": [100]},
    "optimize": {"k1": 4, "m": 50, "n": 10},
    "capacity": {"n": 5, "m": 50},
}


def test_runs_need_no_scipy(tmp_path):
    """Every experiment runs through ``cli.main`` with every ``scipy`` import
    refused, and leaves no scipy module loaded."""
    argvs = []
    for experiment, config in TINY_RUNS.items():
        path = tmp_path / f"{experiment}.json"
        path.write_text(json.dumps(config))
        argvs.append([experiment, "--config", str(path), "--seed", "1",
                      "--out", str(tmp_path / f"{experiment}.csv")])
    loaded = _modules_after(textwrap.dedent(f"""\
        import contextlib, importlib.abc

        class RefuseScipy(importlib.abc.MetaPathFinder):
            def find_spec(self, name, path=None, target=None):
                if name.split(".")[0] == "scipy":
                    raise ImportError(f"scipy is refused: {{name}}")

        sys.meta_path.insert(0, RefuseScipy())
        try:
            import scipy
        except ImportError:
            pass
        else:
            raise AssertionError("the scipy import was not refused")
        from popcode_mi.cli import main
        with contextlib.redirect_stdout(sys.stderr):  # stdout lists the modules
            codes = [main(argv) for argv in {argvs!r}]
        assert codes == [0] * {len(argvs)}, codes"""))
    assert {name for name in loaded if name.split(".")[0] == "scipy"} == set()
