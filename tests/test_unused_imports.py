"""Every name a module of the package, its tests, tools, demos or benchmark
imports is used in it (no linter is installed), every module-level function
and class of the package is used in the package unless it is exported or
the benchmark wraps it, the package exports exactly what its `__init__`
imports, and importing the package and its CLI loads no `scipy.optimize`."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import steklov

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_INIT = ROOT / "src" / "steklov" / "__init__.py"
# the benchmark's tables of the package functions it wraps or marks
BENCHMARK_TABLES = [ROOT / "perfbench" / name for name in ("layers.py", "calibrate.py")]
MODULES = sorted(
    [p for p in PACKAGE_INIT.parent.glob("*.py") if p != PACKAGE_INIT]
    + [p for d in ("tests", "tools", "demos", "perfbench")
       for p in (ROOT / d).glob("*.py")],
    key=lambda p: p.relative_to(ROOT),
)


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.parent.name + "/" + p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def benchmark_targets():
    """The last part of every "steklov.<module>.<name>" string in the
    benchmark's tables."""
    return {
        node.value.rsplit(".", 1)[-1]
        for path in BENCHMARK_TABLES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value.startswith("steklov.")
    }


def test_every_package_definition_is_used_in_the_package():
    # a module-level function or class counts as used when some package
    # module loads its name (names are matched across modules); the
    # package's exports and the benchmark's targets are exempt
    defined, used = set(), set()
    for path in PACKAGE_INIT.parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined |= {node.name for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        used |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert benchmark_targets() >= {"dtn_schur", "solve_eigs", "splu"}
    unused = defined - used - set(steklov.__all__) - benchmark_targets()
    assert sorted(unused) == []


def test_package_exports_what_it_imports():
    tree = ast.parse(PACKAGE_INIT.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(steklov.__all__) == imported
    assert len(steklov.__all__) == len(imported)
    for name in steklov.__all__:
        assert getattr(steklov, name) is not None


def test_import_leaves_scipy_optimize_unloaded():
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")
           + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, steklov, steklov.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"],
        capture_output=True, text=True, check=True, env=env)
    assert proc.stdout.strip() == "[]"
