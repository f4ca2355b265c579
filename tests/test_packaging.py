import ast
import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
PACKAGE = ROOT / "src" / "proxymanip"
BENCH = ROOT / "perfbench"


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


def package_reads(tree: ast.Module, package: str) -> list[tuple[str, str, int, str]]:
    """``(module, name, line, how)`` for each name a file takes from one of
    the package's modules: ``how`` is "imports" for ``from .module import
    name`` and "reads" for an attribute read off an imported module."""
    modules: dict[str, str] = {}  # local name -> sibling module
    reads = []
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
                else:
                    reads.append((source, alias.name, node.lineno, "imports"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith(package + ".") and alias.asname:
                    modules[alias.asname] = alias.name.split(".")[-1]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            reads.append((modules[node.value.id], node.attr, node.lineno, "reads"))
    return reads


def private_reads(package_dir: Path) -> list[str]:
    """Every place a module of the package imports, or reads as an
    attribute, an underscore name of another of its modules."""
    bad = []
    for path in sorted(package_dir.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bad += [f"{path.stem}:{line} {how} {module}.{name}"
                for module, name, line, how in package_reads(tree, package_dir.name)
                if _private(name) and module != path.stem]
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


# Public names that no pipeline stage and no benchmark file reads, each kept
# for a stated reason; every other unread public name is deleted.
TEST_ONLY_API = {
    "trajectory_record": "the one trajectory-record format; the benchmark's "
                         "record_episode still copies it",
    "get_task": "names a catalogue task and rejects an unknown name",
    "forward_kinematics": "the arm's pose as an array, which the IK tests "
                          "check solutions against",
    "arm_to_dict": "gives an arm as plain data, so further arms can be "
                   "written down without code",
    "arm_from_dict": "builds an arm from that data, through ArmModel's checks",
    "load_policy": "reads back what train_skill saves",
    "awr_fit": "the imitation path, kept for the desk check of the paper's "
               "imitation claim",
    "ObjectModel.rot_inertia": "the rotational inertia in the energy invariant "
                               "of a turning free body",
}


def public_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Each public top-level ``def``, ``class`` and assigned name."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        defs.update((name, node) for name in names if not name.startswith("_"))
    return defs


def unread_names(package_dir: Path, bench_dir: Path,
                 allowed=TEST_ONLY_API) -> list[str]:
    """Every public top-level name of the package that no other module of
    it, no line of its own module outside its definition and no non-test
    file of ``bench_dir`` reads, and every public method and property of a
    public class whose name no such line reads as an attribute, unless
    ``allowed`` lists it (a member as ``Class.member``)."""
    package = package_dir.name
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(package_dir.glob("*.py"))}
    bench = [ast.parse(path.read_text()) for path in sorted(bench_dir.glob("*.py"))
             if not path.name.startswith("test_")]
    read = {(module, name) for stem, tree in trees.items()
            for module, name, _, _ in package_reads(tree, package) if module != stem}
    for tree in bench:
        read |= {(module, name) for module, name, _, _
                 in package_reads(tree, package)}
    sources = [*trees.items(), *((None, tree) for tree in bench)]
    attrs = [(where, node) for where, tree in sources
             for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    bad = []
    for stem, tree in trees.items():
        loads = [node for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)]
        for name, node in public_definitions(tree).items():
            own = any(load.id == name
                      and not node.lineno <= load.lineno <= node.end_lineno
                      for load in loads)
            if not (own or (stem, name) in read or name in allowed):
                bad.append(f"{stem}:{node.lineno} {name}")
            members = node.body if isinstance(node, ast.ClassDef) else []
            for member in members:
                if (not isinstance(member, ast.FunctionDef)
                        or member.name.startswith("_")):
                    continue
                read_as_attr = any(
                    attr.attr == member.name and not (
                        where == stem
                        and member.lineno <= attr.lineno <= member.end_lineno)
                    for where, attr in attrs)
                qualified = f"{name}.{member.name}"
                if not (read_as_attr or qualified in allowed):
                    bad.append(f"{stem}:{member.lineno} {qualified}")
    return bad


def test_every_public_name_has_a_reader():
    assert unread_names(PACKAGE, BENCH) == []


def test_test_only_api_lists_only_unread_names():
    unread = {entry.split()[-1]
              for entry in unread_names(PACKAGE, BENCH, allowed={})}
    assert set(TEST_ONLY_API) <= unread


def test_unread_name_is_reported(tmp_path):
    pkg, bench = tmp_path / "pkg", tmp_path / "bench"
    pkg.mkdir()
    bench.mkdir()
    (pkg / "geo.py").write_text(
        "LIMIT = 3\n"
        "UNUSED: int = 4\n"
        "def core():\n"
        "    return LIMIT\n"
        "def again(n):\n"
        "    return again(n - 1)\n"
        "class Shape:\n"
        "    @property\n"
        "    def side(self):\n"
        "        return 1\n"
        "    def area(self):\n"
        "        return self.area()\n"
        "    def grow(self):\n"
        "        pass\n"
        "    def shrink(self):\n"
        "        pass\n"
        "    def held(self):\n"
        "        pass\n"
        "    def _hidden(self):\n"
        "        pass\n"
        "def kept():\n"
        "    pass\n"
        "def _hidden():\n"
        "    pass\n")
    (pkg / "user.py").write_text(
        "from . import geo\n"
        "from .geo import Shape\n"
        "def run():\n"
        "    return geo.core(), Shape().side\n")
    (bench / "runner.py").write_text(
        "from pkg import geo, user\nuser.run()\ngeo.Shape().grow()\n")
    (bench / "test_runner.py").write_text(
        "from pkg import geo\ngeo.UNUSED\ngeo.Shape().shrink()\n")
    assert unread_names(pkg, bench, allowed={"kept": "a reason",
                                             "Shape.held": "a reason"}) == [
        "geo:2 UNUSED", "geo:5 again", "geo:11 Shape.area", "geo:15 Shape.shrink"]


# Config fields that no non-test file of the package or the benchmark passes,
# each kept for a stated reason; any other setting that one value serves is a
# module constant.
TEST_ONLY_SETTINGS = {
    "WorldConfig.interact_radius": "the golden tie episode, the proxy reaching "
                                   "two grasp points at equal distance, needs 0.15",
    "WorldConfig.force_max": "ROADMAP items 4 and 12 read the force bound "
                             "through the world",
    "WorldConfig.arena_half": "ROADMAP items 4 and 12 read the position bound "
                              "through the world",
    "PpoConfig.epochs": "the golden rollout and PPO-update pins",
    "PpoConfig.minibatch_size": "the golden rollout and PPO-update pins",
    "PpoConfig.rollout_envs": "the golden rollout and PPO-update pins",
    "PpoConfig.horizon": "the golden rollout and PPO-update pins",
    "SkillOptions.camera": "ROADMAP items 1 and 2 score every task x camera",
    "SkillOptions.two_phase": "the flat-action ablation of ROADMAP item 2(c)",
    "SkillOptions.start_jitter": "rollout tests start every slot at the "
                                 "task's own proxy start",
    "ReprTrainConfig.lambda2": "ROADMAP item 1 chooses it",
    "ReprTrainConfig.lr": "the golden loss-curve pin trains at 3e-4",
    "ReprTrainConfig.checkpoint_every": "perfbench/test_perfbench.py passes it",
    "ReprTrainConfig.agent_aware": "the agent-aware encoder of ROADMAP item 2(b)",
    "ArmModel.base_position": "further arms, ROADMAP item 14",
    "ArmModel.link_lengths": "further arms, ROADMAP item 14",
    "ArmModel.joint_limits": "further arms, ROADMAP item 14",
}

CENSUS_CLASSES = ("WorldConfig", "PpoConfig", "SkillOptions", "ReprTrainConfig",
                  "ImageSpec", "ArmModel")
# a callee that passes its keywords on to a class
FORWARDERS = {"world_config": "WorldConfig"}


def keyword_passes(tree: ast.Module, skip) -> set[tuple[str, str]]:
    """``(callee, keyword)`` for each keyword argument of each call in
    ``tree``, the callee being the called name or attribute; calls inside a
    top-level function that ``skip`` names do not count."""
    skipped = {id(node) for fn in tree.body
               if isinstance(fn, ast.FunctionDef) and fn.name in skip
               for node in ast.walk(fn)}
    passes = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in skipped:
            callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            passes |= {(callee, kw.arg) for kw in node.keywords if kw.arg}
    return passes


def unpassed_settings(package_dir: Path, bench_dir: Path,
                      classes=CENSUS_CLASSES, allowed=TEST_ONLY_SETTINGS,
                      skip=TEST_ONLY_API) -> list[str]:
    """Every field of the package's ``classes`` that no call in a module of
    the package or a non-test file of ``bench_dir`` passes by keyword, to the
    class or to a callee that forwards to it, unless ``allowed`` lists it as
    ``Class.field``. The functions that ``skip`` names, kept only for the
    tests, are no callers."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(package_dir.glob("*.py"))}
    bench = [ast.parse(path.read_text()) for path in sorted(bench_dir.glob("*.py"))
             if not path.name.startswith("test_")]
    passes = set()
    for tree in [*trees.values(), *bench]:
        passes |= keyword_passes(tree, skip)
    passed = {(FORWARDERS.get(callee, callee), kw) for callee, kw in passes}
    bad = []
    for stem, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, ast.ClassDef) and node.name in classes):
                continue
            for field in node.body:
                if not isinstance(field, ast.AnnAssign):
                    continue
                qualified = f"{node.name}.{field.target.id}"
                if ((node.name, field.target.id) not in passed
                        and qualified not in allowed):
                    bad.append(f"{stem}:{field.lineno} {qualified}")
    return bad


def test_every_setting_has_a_caller():
    assert unpassed_settings(PACKAGE, BENCH) == []


def test_test_only_settings_lists_only_unpassed_settings():
    unpassed = {entry.split()[-1]
                for entry in unpassed_settings(PACKAGE, BENCH, allowed={})}
    assert set(TEST_ONLY_SETTINGS) <= unpassed


def test_unpassed_setting_is_reported(tmp_path):
    pkg, bench = tmp_path / "pkg", tmp_path / "bench"
    pkg.mkdir()
    bench.mkdir()
    (pkg / "geo.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class WorldConfig:\n"
        "    to_class: int = 1\n"
        "    forwarded: int = 2\n"
        "    by_a_test: int = 3\n"
        "    by_test_only_code: int = 4\n"
        "    allowed: int = 5\n"
        "    to_another_callee: int = 6\n"
        "    in_the_bench: int = 7\n"
        "    LIMIT = 3\n"
        "class Other:\n"
        "    not_counted: int = 0\n"
        "def helper():\n"
        "    return WorldConfig(by_test_only_code=0)\n")
    (pkg / "user.py").write_text(
        "from .geo import WorldConfig\n"
        "def run(task):\n"
        "    return WorldConfig(to_class=0), task.world_config(forwarded=0), "
        "print(to_another_callee=0)\n")
    (bench / "runner.py").write_text(
        "from pkg import geo\ngeo.WorldConfig(in_the_bench=0)\n")
    (bench / "test_runner.py").write_text(
        "from pkg import geo\ngeo.WorldConfig(by_a_test=0)\n")
    assert unpassed_settings(pkg, bench, classes=("WorldConfig",),
                             allowed={"WorldConfig.allowed": "a reason"},
                             skip={"helper"}) == [
        "geo:6 WorldConfig.by_a_test", "geo:7 WorldConfig.by_test_only_code",
        "geo:9 WorldConfig.to_another_callee"]


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
