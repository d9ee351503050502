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
    FieldReport GaloisModel ModuliReport class_polynomial class_polynomial_floor
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
    "TracesNotApart": errors.PrecisionError,
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


def _module_level(tree: ast.Module) -> list[ast.AST]:
    """The nodes of tree that run when the module is imported: all but the
    bodies of its functions."""
    nodes = [tree]
    for node in nodes:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            nodes.extend(ast.iter_child_nodes(node))
    return nodes


def test_argparse_is_loaded_only_to_build_the_parser():
    # cli._match reads a canonical argv off cli._COMMANDS, so no module
    # imports argparse when it is imported; and none reads argparse's private
    # names, the module's own and those of a parser and its actions
    private = {
        name
        for names in (dir(argparse), dir(argparse.Action), vars(argparse.ArgumentParser()))
        for name in names
        if name.startswith("_") and not name.startswith("__") and name != "_"
    }
    assert {"_actions", "_option_string_actions", "_SubParsersAction", "_StoreAction"} <= private
    imports, privates = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        for node in _module_level(tree):
            if isinstance(node, ast.Import) and "argparse" in (a.name for a in node.names):
                imports.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "argparse":
                imports.append(f"{path.name}:{node.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in private:
                privates.append(f"{path.name}:{node.lineno} {node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "argparse":
                names = [alias.name for alias in node.names if alias.name in private]
                privates += [f"{path.name}:{node.lineno} {name}" for name in names]
    assert imports == []
    assert privates == []


EMPTY = {"{}", "[]", "dict()", "list()", "set()"}


def _empty_containers(source: str, name: str) -> list[str]:
    """The module-level names that source binds to an empty dict, list or set."""
    return [
        f"{name}:{node.lineno}"
        for node in ast.parse(source, name).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and node.value is not None
        and ast.unparse(node.value) in EMPTY
    ]


def test_one_memo_technique():
    # a process-wide memo is a bounded functools cache (see
    # test_library_caches_are_bounded), not a module-level container filled
    # with its own refill and cap policy
    found = [bound for path in SOURCES for bound in _empty_containers(path.read_text(), path.name)]
    assert found == []
    for empty in EMPTY:
        assert _empty_containers(f"x = 1\n_C: dict = {empty}", "m.py") == ["m.py:2"]
        assert _empty_containers(f"def f():\n    c = {empty}", "m.py") == []
    assert _empty_containers("X = (1, 2)\nY = [1]\nZ = set(Y)", "m.py") == []


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


def _callers(tree: ast.Module, names: set[str]) -> set[str]:
    """The top-level definitions of tree (a function, or a class for its
    methods) that call one of names; "module" for a call outside them."""
    found = set()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called in names:
                    found.add(getattr(top, "name", "module"))
    return found


def _referrers(tree: ast.Module, names: set[str]) -> set[str]:
    """The top-level definitions of tree that name one of names, called or
    passed on (to functools.partial, say)."""
    return {
        top.name
        for top in tree.body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        for node in ast.walk(top)
        if isinstance(node, ast.Name) and node.id in names
    }


def _disc_residue_readers(tree: ast.Module, moduli=(2, 3)) -> set[str]:
    """The top-level definitions of tree that take a discriminant (d, or a
    name or attribute with disc in it) mod one of moduli: mod 2 or 3 is what
    a kernel chooser reads, mod 8 what the choice of Weber's kernel reads."""
    found = set()
    for top in tree.body:
        for node in ast.walk(top):
            if (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Mod)
                and isinstance(node.right, ast.Constant)
                and node.right.value in moduli
            ):
                left = node.left
                name = left.id if isinstance(left, ast.Name) else getattr(left, "attr", "")
                if name == "d" or "disc" in name:
                    found.add(getattr(top, "name", "module"))
    return found


def _parity_readers(tree: ast.Module) -> set[str]:
    """The top-level definitions of tree that test whether a class number h
    (a name or an attribute) is odd: h % 2, h & 1, or len(...) against h,
    as the cosets of C[2] against the classes."""
    found = set()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mod, ast.BitAnd)):
                sides, test = [node.left], getattr(node.right, "value", None) in (1, 2)
            elif isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                test = any(isinstance(x, ast.Call) and getattr(x.func, "id", "") == "len" for x in sides)
            else:
                continue
            if test and any(getattr(x, "id", getattr(x, "attr", "")) == "h" for x in sides):
                found.add(getattr(top, "name", "module"))
    return found


def _quadratic_norms(tree: ast.Module) -> set[str]:
    """The top-level definitions of tree that compute a quadratic norm's two
    squares, x * x - (...)."""
    found = set()
    for top in tree.body:
        for node in ast.walk(top):
            if (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Sub)
                and isinstance(node.left, ast.BinOp)
                and isinstance(node.left.op, ast.Mult)
                and ast.dump(node.left.left) == ast.dump(node.left.right)
            ):
                found.add(getattr(top, "name", "module"))
    return found


def _slot_loops(tree: ast.Module) -> set[str]:
    """The top-level definitions of tree with a loop that packs integers
    into slots, assigning a name a value that shifts that name left (v = (v
    << s) + x), or unpacks them, shifting right."""
    found = set()
    for top in tree.body:
        for loop in ast.walk(top):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            for node in ast.walk(loop):
                if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.RShift):
                    found.add(top.name)
                if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                    name = node.targets[0].id
                    for sub in ast.walk(node.value):
                        if (
                            isinstance(sub, ast.BinOp)
                            and isinstance(sub.op, ast.LShift)
                            and getattr(sub.left, "id", None) == name
                        ):
                            found.add(top.name)
    return found


def test_one_path_to_h_d():
    # classpoly and analyze build H_D through one values function and one
    # attempt, for every kernel, Weber's among them: each invariant is
    # evaluated in one place, and each exact step runs in one
    tree = ast.parse(Path(moduli.__file__).read_text(), moduli.__file__)
    assert _callers(tree, {"j_invariant", "gamma2", "gamma3", "weber"}) == {"_class_values"}
    attempts = {"class_polynomial_with_precision", "_attempt_polynomials"}
    assert _referrers(tree, {"_class_polynomial_at"}) == attempts
    assert _referrers(ast.parse("def f():\n    return partial(g, 1)"), {"g"}) == {"f"}
    # the one attempt holds every kernel's exact step and every check after it
    exact = {"_norm_from_gamma2", "_check_gross_zagier", "_check_square"}
    assert _callers(tree, exact) == {"_class_polynomial_at"}
    steps = {"_graeffe", "_norm_from_weber", "_norm_from_gamma3"}
    assert _callers(tree, steps) == {"_class_polynomial_at"}
    # one norm layer: each exact step states its modulus and slot bound and
    # calls _norm, which alone holds the closed forms, the two squares among
    # them; _pack and _unpack alone pack and unpack slots (_pack recurs on
    # its halves)
    steps |= {"_norm_from_gamma2"}
    assert _callers(tree, {"_norm"}) == steps
    assert _quadratic_norms(tree) == {"_norm"}
    assert _callers(tree, {"_pack", "_unpack"}) == {"_norm", "_pack"}
    assert _slot_loops(tree) == {"_pack", "_unpack"}
    sample = ast.parse("def f(a, b, s):\n    return a * a - (b * b << s)\ndef g(a, s):\n    return a - (a << s)")
    assert _quadratic_norms(sample) == {"f"}
    sample = ast.parse(
        "def f(c, t):\n    v = 0\n    for x in c:\n        v = (v << t) - 1728 * v + x\n"
        "def g(c):\n    for x in c:\n        a, b = (b << 4) + x, a\n"
        "def u(v, s):\n    while v:\n        v >>= s\n"
        "def w(c):\n    v = 0\n    for x in c:\n        v = v * 1728 + x"
    )
    assert _slot_loops(sample) == {"f", "u"}
    sample = ast.parse("def f():\n    g(lambda: m.j_invariant(1))\nclass C:\n    x = gamma2()")
    assert _callers(sample, {"j_invariant", "gamma2"}) == {"f", "C"}
    # one kernel per discriminant: _class_kernel alone chooses it, for the
    # class polynomial's attempt and default floor and for the field
    # polynomials alike; classpoly's Weber kernel is chosen from it, and its
    # floor and norm read that kernel's n; the step from its values to j runs
    # in the field attempt
    callers = attempts | {"class_polynomial_floor"}
    assert _callers(tree, {"_class_kernel"}) == callers
    # (the square check reads whether D is odd, the hypothesis of its identity)
    assert _disc_residue_readers(tree) == {"_class_kernel", "_check_square"}
    assert [f.name for f in tree.body if "kernel" in getattr(f, "name", "")] == ["_class_kernel"]
    assert _callers(tree, {"j_from_kernel"}) == {"_attempt_polynomials"}
    sample = ast.parse("def f(d):\n    return d % 3\ndef g(a):\n    return a % 3, a.disc % 4")
    assert _disc_residue_readers(sample) == {"f"}
    # Weber eligibility is read in one function, which analyze reaches at
    # odd h: whether h is odd is read in one place, where the field
    # polynomials take H_D from classpoly's route
    assert _disc_residue_readers(tree, (8,)) == {"class_polynomial_with_precision"}
    assert _parity_readers(tree) == {"_field_polynomials"}
    assert _referrers(tree, {"class_polynomial_with_precision"}) == {
        "class_polynomial",
        "_field_polynomials",
    }
    sample = ast.parse(
        "def f(c, g):\n    return len(c) == g.h\ndef u(h):\n    return h % 2\n"
        "def v(g):\n    return g.h & 1\ndef w(c, h):\n    return len(c) == h + 1, h % 3"
    )
    assert _parity_readers(sample) == {"f", "u", "v"}


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


def test_library_caches_are_bounded():
    # a process that walks many discriminants must not keep every result
    uses = 0
    for path in SOURCES:
        count, unbounded = _unbounded_caches(path.read_text(), path.name)
        assert unbounded == []
        uses += count
    # class_group, the field reports, the analyze envelopes, pi and ln 2, build_parser
    assert uses >= 5
    for memo in ("cache", "lru_cache", "lru_cache(maxsize=None)", "functools.lru_cache(None)"):
        assert _unbounded_caches(f"@{memo}\ndef build_parser(d): pass", "cli.py") == (1, ["cli.py:1"])
    assert _unbounded_caches("@cache\ndef build_parser(): pass", "moduli.py")[1] == ["moduli.py:1"]
    assert _unbounded_caches("f = functools.lru_cache(maxsize=8)(g)", "moduli.py") == (1, [])
