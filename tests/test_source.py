"""Checks on the package source itself."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import k3moduli

SOURCES = sorted(Path(k3moduli.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def test_no_assert_statements():
    # invariants must raise: `python -O` strips assert statements
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) >= 8
    assert found == []


def test_no_environment_knobs():
    # arguments and constants alone configure the program
    knobs = {"environ", "environb", "getenv", "getenvb"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if (
            isinstance(node, ast.Attribute)
            and node.attr in knobs
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        )
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "os"
            and any(alias.name in knobs for alias in node.names)
        )
    ]
    assert found == []


def _imported_modules(path: Path) -> set[str]:
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_one_number_format():
    # numerics alone touches mpmath, and there is no per-thread state
    imports = {path.name: _imported_modules(path) for path in SOURCES}
    assert "mpmath" in imports["numerics.py"]
    assert [name for name, mods in imports.items() if "mpmath" in mods] == ["numerics.py"]
    assert [name for name, mods in imports.items() if "threading" in mods] == []


def test_traced_names_resolve():
    # the benchmark tracer replaces these attributes by name; a rename would
    # break only the traced benchmark run, which this suite does not collect
    tree = ast.parse(SPANS.read_text(), str(SPANS))
    traced = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]
    )
    sites = [site for pairs in traced.values() for site in pairs]
    assert len(sites) >= 18
    for owner, attr in sites:
        holder = getattr(k3moduli, owner, None) or importlib.import_module(f"k3moduli.{owner}")
        assert callable(getattr(holder, attr, None)), (owner, attr)


def test_no_new_dependency():
    # mpmath is the one dependency; everything else comes from the standard library
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["mpmath>=1.3"]
    allowed = set(sys.stdlib_module_names) | {"mpmath"}
    found = {path.name: sorted(_imported_modules(path) - allowed) for path in SOURCES}
    assert {name: mods for name, mods in found.items() if mods} == {}
