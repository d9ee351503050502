"""Checks on the package source itself."""

import argparse
import ast
import dataclasses
import importlib
import inspect
import sys
from pathlib import Path

import pytest

import k3moduli
from k3moduli import classgroup, cli, moduli, numerics
from k3moduli.numerics import CMPoint

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
    fields = {f.name for f in dataclasses.fields(moduli.ModuliReport)}
    assert {"g", "mq_min_poly"} <= fields
    aliases = {"mk_min_poly", "degree_mk_over_k", "degree_mq_over_q"}
    assert aliases.isdisjoint(dir(moduli.ModuliReport))


def _imported_modules(path: Path) -> set[str]:
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_one_number_format():
    # numerics alone touches mpmath, and there is no per-thread state; a
    # value's accuracy is its error bound, with no second statement of it
    fields = tuple(f.name for f in dataclasses.fields(numerics.BigComplex))
    assert fields == ("re", "im", "bits", "err")
    imports = {path.name: _imported_modules(path) for path in SOURCES}
    assert "mpmath" in imports["numerics.py"]
    assert [name for name, mods in imports.items() if "mpmath" in mods] == ["numerics.py"]
    assert [name for name, mods in imports.items() if "threading" in mods] == []


def _numerics_tree() -> tuple[ast.Module, set[str]]:
    """numerics' syntax tree and the names it imports from mpmath."""
    path = Path(numerics.__file__)
    tree = ast.parse(path.read_text(), str(path))
    names = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "mpmath"
        for alias in node.names
    }
    return tree, names


def test_numerics_owns_the_number_format():
    # no other module imports numerics' private names or reads the parts of
    # a BigComplex; in numerics, mpmath is confined to the two blocks a port
    # of the constants of q would replace
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
    tree, names = _numerics_tree()
    assert {"mpf_exp", "to_fixed"} <= names
    owners = {}
    for top in tree.body:
        if isinstance(top, ast.ImportFrom):
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id in names:
                owners.setdefault(getattr(top, "name", f"line {top.lineno}"), set()).add(node.id)
    assert sorted(owners) == ["_eta_quotient", "_pi_root"]


def _holds(value, found: set[int]) -> bool:
    """Whether value is one of the objects whose ids are in found, or nests
    one in a tuple or list."""
    if id(value) in found:
        return True
    return isinstance(value, (tuple, list)) and any(_holds(v, found) for v in value)


def test_no_mpmath_value_crosses_a_numerics_function(monkeypatch):
    # every mpmath number numerics makes is recorded (and kept alive, so no
    # id is reused); none may be an argument or the return value of a
    # function of numerics, so that none leaves the block that made it
    made = []
    tree, names = _numerics_tree()
    for name in names:
        fn = getattr(numerics, name)
        if callable(fn):

            def recording(*args, fn=fn, **kwargs):
                # an mpf is a tuple, and mpf_cos_sin_pi returns two
                out = fn(*args, **kwargs)
                if isinstance(out, tuple):
                    made.extend(out if isinstance(out[0], tuple) else [out])
                return out

            monkeypatch.setattr(numerics, name, recording)
    functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    crossing = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event not in ("call", "return") or code.co_filename != numerics.__file__:
            return
        if code.co_name in functions:  # not a comprehension inside one
            found = {id(x) for x in made}
            values = [arg] if event == "return" else frame.f_locals.values()
            if any(_holds(v, found) for v in values):
                crossing.append((code.co_name, event))

    numerics._pi_root.cache_clear()
    sys.setprofile(profile)
    try:
        for point in (CMPoint(1, 0, -4), CMPoint(2, 1, -23), CMPoint(3, 6, -56)):
            numerics.j_invariant(point, 40)
            numerics.gamma2(point, 40)
        moduli._j_values(classgroup.class_group(-56), 40)
        moduli._gamma2_values(classgroup.class_group(-71), 40)
    finally:
        sys.setprofile(None)
    assert made
    assert crossing == []


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


def test_library_caches_are_bounded():
    # a process that walks many discriminants must not keep every result
    uses = 0
    for path in SOURCES:
        count, unbounded = _unbounded_caches(path.read_text(), path.name)
        assert unbounded == []
        uses += count
    assert uses >= 4  # class_group, the field polynomials, the pi memo, build_parser
    for memo in ("cache", "lru_cache", "lru_cache(maxsize=None)", "functools.lru_cache(None)"):
        assert _unbounded_caches(f"@{memo}\ndef build_parser(d): pass", "cli.py") == (1, ["cli.py:1"])
    assert _unbounded_caches("@cache\ndef build_parser(): pass", "moduli.py")[1] == ["moduli.py:1"]
    assert _unbounded_caches("f = functools.lru_cache(maxsize=8)(g)", "moduli.py") == (1, [])
