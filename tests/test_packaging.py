import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


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
