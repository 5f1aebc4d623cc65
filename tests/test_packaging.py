import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "curvejac"


def imported_top_level(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_are_the_runtime_dependencies():
    imported = set().union(*map(imported_top_level, PACKAGE.glob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - {"curvejac"}
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower()
                for dep in project["dependencies"]}
    assert third_party == declared == set()
    # numpy (numeric_rank_suite) and mpmath (root_labels_suite) stay
    # test-only references
    test_names = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower()
                  for dep in project["optional-dependencies"]["test"]}
    assert {"numpy", "mpmath"} <= test_names


def test_runs_on_the_standard_library_alone(tmp_path, fixture_b_nonsplit):
    # -S leaves site-packages off the path and -E ignores PYTHONPATH, so the
    # interpreter sees the standard library and src only; -E also ignores
    # PYTHONDONTWRITEBYTECODE, so -B keeps src free of __pycache__.  A fixture
    # whose l does not split takes the complex path, root labels included
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(fixture_b_nonsplit.to_obj()))
    code = ("import importlib.util, json, sys; "
            f"sys.path.insert(0, {str(ROOT / 'src')!r}); "
            "assert importlib.util.find_spec('mpmath') is None; "
            "from curvejac import cli; "
            f"rc = cli.main(['verify', {str(path)!r}, '--out', {str(tmp_path / 'out.json')!r}]); "
            "print(rc, json.load(open(sys.argv[1]))['field'])")
    run = subprocess.run([sys.executable, "-S", "-E", "-B", "-c", code,
                          str(tmp_path / "out.json")],
                         capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["0", "complex"]


def referenced_names(path: Path) -> set[str]:
    """Names that code in path reads: bare names, attributes and imported
    names; docstrings and comments do not count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def exported_names(path: Path) -> list[str]:
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]:
            return ast.literal_eval(node.value)
    return []


def test_every_export_is_reached():
    # A public name must be read by the package's own code, outside
    # __init__'s re-exports; otherwise only tests reach it and it belongs in
    # tests/oracles.py or nowhere.  A mention in the README is no use.
    modules = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    used = set().union(*map(referenced_names, modules))
    dead = sorted(name for path in modules for name in exported_names(path)
                  if name not in used)
    assert dead == []


def public_methods(path: Path) -> list[str]:
    """Class.method for each public method, property and classmethod of
    each class that path defines."""
    return [f"{node.name}.{item.name}" for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]


def test_every_public_method_is_reached():
    # The same rule for the public methods of the package's classes, by
    # name: a method that only tests call belongs in tests/oracles.py.
    modules = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    used = set().union(*map(referenced_names, modules))
    dead = sorted(name for path in modules for name in public_methods(path)
                  if name.split(".")[1] not in used)
    assert dead == []
