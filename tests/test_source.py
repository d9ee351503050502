"""Checks on the package source itself."""

import argparse
import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import k3moduli
from k3moduli import cli, errors, moduli, numerics

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


def test_no_boolean_mode_flags():
    # a behaviour that differs by caller is two functions, not a flag
    found = [
        f"{path.name}:{default.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.arguments)
        for default in node.defaults + [d for d in node.kw_defaults if d is not None]
        if isinstance(default, ast.Constant) and type(default.value) is bool
    ]
    assert found == []


def test_precision_is_not_a_knob():
    # the height-derived floor alone sets the precision: no CLI flag, and no
    # public moduli function takes digits
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {o for p in commands.choices.values() for a in p._actions for o in a.option_strings}
    assert "--format" in options and "--digits" not in options
    public = [
        f
        for name, f in vars(moduli).items()
        if inspect.isfunction(f) and f.__module__ == moduli.__name__ and not name.startswith("_")
    ]
    assert {f.__name__ for f in public} >= {"class_polynomial", "moduli_report", "precision_floor"}
    assert [f.__name__ for f in public if "digits" in inspect.signature(f).parameters] == []


# one name per concept: the degree of M_K and M_Q is ModuliReport.g, their
# polynomial field_of_Q_moduli, and the package root lists each name once
PACKAGE_NAMES = """
    BigComplex CMPoint ClassGroup FormClass GaloisModel GenusPartition IdealLattice ModuliReport
    QuadForm QuadOrder SMDecomposition TranscLattice cayley class_group class_polynomial cm_field
    complex_conjugate compose compose_general conjugate_lattice discriminant field_of_Q_moduli
    form_class form_to_ideal from_gram galois_orbit genus_of genus_order genus_partition
    ideal_lattice ideal_to_form inverse is_primitive j_invariant lattice_from_class moduli_report
    mq_is_galois multiply order_of_disc poly_from_roots primitive_part principal_class
    principal_form principal_genus recognize_integer reduce reduction_map shioda_mitani transform
    two_torsion
""".split()
MODULI_NAMES = """
    GaloisModel ModuliReport class_polynomial class_polynomial_floor
    class_polynomial_with_precision field_of_Q_moduli moduli_report mq_is_galois precision_floor
""".split()


def test_public_surface():
    package = [
        name
        for name, value in vars(k3moduli).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    ]
    assert sorted(package) == PACKAGE_NAMES
    assert not hasattr(k3moduli, "__all__")
    defined = [
        name
        for name, value in vars(moduli).items()
        if (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == moduli.__name__
        and not name.startswith("_")
    ]
    assert sorted(defined) == MODULI_NAMES
    # the benchmark tracer wraps it through the package root
    assert callable(k3moduli.GaloisModel.is_normal)
    assert {"g", "mq_min_poly"} <= set(moduli.ModuliReport._fields)
    aliases = {"mk_min_poly", "degree_mk_over_k", "degree_mq_over_q"}
    assert aliases.isdisjoint(dir(moduli.ModuliReport))


# one error class per way a caller reacts: the CLI exits with 2 on
# K3ModuliError (a broken invariant or failed exact check) and InputError, and
# with 3 on PrecisionError; moduli retries the two certificate failures
ERRORS = {
    "K3ModuliError": Exception,
    "InputError": errors.K3ModuliError,
    "PrecisionError": errors.K3ModuliError,
    "NotNearInteger": errors.PrecisionError,
    "ResolventDegenerate": errors.PrecisionError,
}


def test_five_error_classes():
    tree = ast.parse(Path(errors.__file__).read_text(), errors.__file__)
    defined = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    assert sorted(defined) == sorted(ERRORS)
    assert {name: getattr(errors, name).__bases__ for name in ERRORS} == {
        name: (base,) for name, base in ERRORS.items()
    }
    # every raise names one of them, bar the JSON writer's TypeError, the
    # entry point's SystemExit and a value's AttributeError on assignment,
    # the error Python raises for any read-only attribute
    others, named = [], 0
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise):
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = ast.unparse(exc) if exc else "re-raise"
            if name in ERRORS:
                named += 1
                continue
            scope = parents[node]
            while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                scope = parents[scope]
            others.append(f"{path.name}:{getattr(scope, 'name', 'module')} {name}")
    assert named >= 30
    assert sorted(others) == [
        "cli.py:_json TypeError",
        "cli.py:module SystemExit",
        "values.py:__setattr__ AttributeError",
    ]


def _imported_modules(path: Path) -> set[str]:
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_one_number_format():
    # no module under src/ imports mpmath, and there is no per-thread state; a
    # value's accuracy is its error bound, with no second statement of it.
    # Nor does any import dataclasses, which with the inspect it loads and
    # the methods it compiles was most of the package's start-up
    assert numerics.BigComplex._fields == ("re", "im", "bits", "err")
    imports = {path.name: _imported_modules(path) for path in SOURCES}
    assert [name for name, mods in imports.items() if "mpmath" in mods] == []
    assert [name for name, mods in imports.items() if "threading" in mods] == []
    assert [name for name, mods in imports.items() if "dataclasses" in mods] == []


def test_numerics_owns_the_number_format():
    # no other module imports numerics' private names or reads the parts of
    # a BigComplex; numerics computes the constants of q on Python integers,
    # so a fresh interpreter that loads the CLI and evaluates j and gamma_2
    # has loaded no mpmath module.  Nor has it loaded dataclasses or inspect,
    # the bulk of start-up before the value types became namedtuples
    for path in SOURCES:
        if path.name == "numerics.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        private = [
            f"{path.name}:{node.lineno} {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("numerics")
            for alias in node.names
            if alias.name.startswith("_")
        ]
        private += [
            f"{path.name}:{node.lineno} numerics.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and isinstance(node.value, ast.Name)
            and node.value.id == "numerics"
        ]
        assert private == []
    moduli_tree = ast.parse(Path(moduli.__file__).read_text(), moduli.__file__)
    parts = {"re", "im", "bits", "err"}
    reads = [
        f"moduli.py:{node.lineno} .{node.attr}"
        for node in ast.walk(moduli_tree)
        if isinstance(node, ast.Attribute) and node.attr in parts
    ]
    assert reads == []
    script = (
        "import sys, k3moduli.cli\n"
        "from k3moduli.numerics import CMPoint, gamma2, j_invariant\n"
        "assert j_invariant(CMPoint(2, 1, -23), 40).im and gamma2(CMPoint(2, 1, -23), 40).im\n"
        "unwanted = {'mpmath', 'dataclasses', 'inspect', 'json'}\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in unwanted))\n"
    )
    source = str(Path(k3moduli.__file__).parents[1])
    run = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": source},
        check=True,
    )
    assert run.stdout == "[]\n"


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
    # no runtime dependency: the package imports the standard library alone,
    # and mpmath serves only the tests and the benchmark, as their oracle
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
    assert "mpmath>=1.3" in project["optional-dependencies"]["test"]
    allowed = set(sys.stdlib_module_names)
    found = {path.name: sorted(_imported_modules(path) - allowed) for path in SOURCES}
    assert {name: mods for name, mods in found.items() if mods} == {}


MEMOS = {"cache", "lru_cache"}


def _unbounded_caches(source: str, name: str) -> tuple[int, list[str]]:
    """The number of functools.cache / lru_cache uses in source, and those
    without an integer maxsize, bar the zero-argument cli.build_parser."""
    tree = ast.parse(source, name)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    uses, unbounded = 0, []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Name)
            and node.id in MEMOS
            or isinstance(node, ast.Attribute)
            and node.attr in MEMOS
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        ):
            continue
        uses += 1
        parent = parents[node]
        if isinstance(parent, ast.Call) and parent.func is node:
            sizes = parent.args[:1] + [k.value for k in parent.keywords if k.arg == "maxsize"]
            if sizes and isinstance(sizes[0], ast.Constant) and type(sizes[0].value) is int:
                continue
        elif (
            name == "cli.py"
            and isinstance(parent, ast.FunctionDef)
            and parent.name == "build_parser"
            and ast.unparse(parent.args) == ""
        ):
            continue
        unbounded.append(f"{name}:{node.lineno}")
    return uses, unbounded


def test_library_caches_are_bounded(monkeypatch):
    # a process that walks many discriminants must not keep every result
    uses = 0
    for path in SOURCES:
        count, unbounded = _unbounded_caches(path.read_text(), path.name)
        assert unbounded == []
        uses += count
    assert uses >= 3  # class_group, the field polynomials, build_parser
    for memo in ("cache", "lru_cache", "lru_cache(maxsize=None)", "functools.lru_cache(None)"):
        assert _unbounded_caches(f"@{memo}\ndef build_parser(d): pass", "cli.py") == (1, ["cli.py:1"])
    assert _unbounded_caches("@cache\ndef build_parser(): pass", "moduli.py")[1] == ["moduli.py:1"]
    assert _unbounded_caches("f = functools.lru_cache(maxsize=8)(g)", "moduli.py") == (1, [])
    # the constants of q keep one entry each, never above _CONSTANTS_CAP: a
    # longer request is computed and dropped, and a shorter one fills the
    # entry to at most the cap
    monkeypatch.setattr(numerics, "_CONSTANTS", {})
    cap, pi_series = numerics._CONSTANTS_CAP, numerics._pi_series
    above = numerics._constant(pi_series, cap + 64)
    assert numerics._CONSTANTS == {}
    for prec in (1000, cap - 1, 1000, cap):
        assert numerics._constant(pi_series, prec) == above >> cap + 64 - prec
        have, value = numerics._CONSTANTS[pi_series]
        assert prec <= have <= cap and value == above >> cap + 64 - have
    numerics._constant(numerics._ln2_series, 100)
    assert len(numerics._CONSTANTS) == 2
