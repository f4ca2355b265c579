import ast
import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
PACKAGE = ROOT / "src" / "proxymanip"


def unresolved(scripts: dict) -> list[str]:
    """Names of console scripts whose ``module:attribute`` target is missing."""
    bad = []
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        try:
            ok = hasattr(importlib.import_module(module), attr)
        except ImportError:
            ok = False
        if not ok:
            bad.append(name)
    return bad


def test_declared_console_scripts_import():
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert unresolved(scripts) == []


def test_missing_script_target_is_reported():
    assert unresolved({"a": "proxymanip.no_such_module:main",
                       "b": "proxymanip.skillrl:no_such_function",
                       "c": "proxymanip.skillrl:train_skill"}) == ["a", "b"]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_reads(package_dir: Path) -> list[str]:
    """Every place a module of the package imports, or reads as an
    attribute, an underscore name of another of its modules."""
    package = package_dir.name
    bad = []
    for path in sorted(package_dir.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules: dict[str, str] = {}  # local name -> sibling module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = node.module or ""
                if node.level == 0:
                    if source != package and not source.startswith(package + "."):
                        continue
                    source = source[len(package) + 1:]
                for alias in node.names:
                    if not source:  # from . import env2d
                        modules[alias.asname or alias.name] = alias.name
                    elif _private(alias.name) and source != path.stem:
                        bad.append(f"{path.stem}:{node.lineno} imports "
                                   f"{source}.{alias.name}")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith(package + ".") and alias.asname:
                        modules[alias.asname] = alias.name.split(".")[-1]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and _private(node.attr)
                    and isinstance(node.value, ast.Name)
                    and modules.get(node.value.id, path.stem) != path.stem):
                bad.append(f"{path.stem}:{node.lineno} reads "
                           f"{modules[node.value.id]}.{node.attr}")
    return bad


def test_no_module_reads_another_modules_private_names():
    assert private_reads(PACKAGE) == []


def unused_imports(package_dir: Path) -> list[str]:
    """Every name a module of the package imports and never reads."""
    bad = []
    for path in sorted(package_dir.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported: dict[str, int] = {}  # bound name -> line
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    imported.setdefault(name, node.lineno)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        bad += [f"{path.stem}:{line} imports {name}"
                for name, line in imported.items() if name not in used]
    return bad


def test_no_module_imports_an_unused_name():
    assert unused_imports(PACKAGE) == []


def test_unused_import_is_reported(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "user.py").write_text(
        "from __future__ import annotations\n"
        "import itertools\n"
        "import os.path\n"
        "import numpy as np\n"
        "from . import geo\n"
        "from .geo import core as c, other\n"
        "def f(x: np.ndarray) -> str:\n"
        "    return c(os.path.sep, x)\n")
    assert unused_imports(pkg) == ["user:2 imports itertools",
                                   "user:5 imports geo",
                                   "user:6 imports other"]


def test_private_read_is_reported(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "geo.py").write_text("def _core():\n    return 1\n")
    (pkg / "user.py").write_text(
        "from . import geo\n"
        "from .geo import _core\n"
        "from pkg.geo import _core as core\n"
        "import pkg.geo as g\n"
        "__all__ = [geo.__name__]\n"
        "x = geo._core() + g._core() + _core() + core()\n")
    assert private_reads(pkg) == ["user:2 imports geo._core",
                                  "user:3 imports geo._core",
                                  "user:6 reads geo._core",
                                  "user:6 reads geo._core"]
