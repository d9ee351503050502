import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal
from itertools import chain, permutations
from math import isqrt
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3moduli import __version__, classgroup, cli, k3, moduli, orders
from k3moduli.cli import ENVELOPE_SCHEMA, EXIT_CLOSED_OUTPUT, EXIT_INPUT, EXIT_OK, EXIT_PRECISION
from k3moduli.cli import _HOLE, _CayleyTable, _json, _lattice, _row, _template
from k3moduli.errors import NotNearInteger, TracesNotApart
from k3moduli.k3 import lattice_from_class
from k3moduli.qforms import FormClass, QuadForm

from conftest import empty_field_cache, hd_floor, run_cli, valid_discs


def with_json_format(argv):
    # flags must precede the `--` separator guarding negative discriminants
    if "--" in argv:
        idx = argv.index("--")
        return argv[:idx] + ["--format", "json"] + argv[idx:]
    return argv + ["--format", "json"]


def run_json(argv):
    code, out = run_cli(with_json_format(argv))
    assert code == EXIT_OK, out
    envelope = json.loads(out)
    jsonschema.validate(envelope, ENVELOPE_SCHEMA)
    return envelope


def test_analyze_paper_example():
    env = run_json(["analyze", "2", "1", "1", "12"])
    assert env["command"] == "analyze"
    result = env["result"]
    assert result["h"] == 3
    assert result["genus_order"] == 3
    assert result["degree_mk_over_k"] == 3
    assert result["degree_mq_over_q"] == 3
    assert result["mq_is_galois"] is False
    assert result["class_polynomial"] == [
        "12771880859375",
        "-5151296875",
        "3491750",
        "1",
    ]
    assert result["mk_min_poly"] == result["mq_min_poly"] == result["class_polynomial"]
    assert [t["primitive_class"] for t in result["orbit"]] == [
        [1, 1, 6],
        [2, -1, 3],
        [2, 1, 3],
    ]
    assert env["warnings"] == []


def test_analyze_trivial():
    env = run_json(["analyze", "2", "0", "0", "2"])
    assert env["result"]["genus_order"] == 1
    assert env["result"]["mq_min_poly"] == ["-1728", "1"]
    assert env["result"]["mq_is_galois"] is True


def test_analyze_scaling_matches():
    base = run_json(["analyze", "2", "1", "1", "12"])["result"]
    scaled = run_json(["analyze", "4", "2", "2", "24"])["result"]
    for key in (
        "h",
        "genus_order",
        "class_polynomial",
        "mk_min_poly",
        "mq_min_poly",
        "mq_is_galois",
        "d_k",
        "disc0",
    ):
        assert scaled[key] == base[key]
    assert scaled["disc"] == -92 and scaled["m"] == 2


def test_analyze_rejects_bad_gram():
    code, _ = run_cli(["analyze", "1", "1", "1", "12"])
    assert code == EXIT_INPUT
    code, _ = run_cli(["analyze", "2", "5", "5", "2"])
    assert code == EXIT_INPUT


def test_classgroup_minus_23():
    env = run_json(["classgroup", "--", "-23"])
    result = env["result"]
    assert result["classes"] == [[1, 1, 6], [2, -1, 3], [2, 1, 3]]
    assert result["genus_count"] == 1
    assert result["genus_order"] == 3
    assert result["elementary_divisors"] == [3]


CLASSGROUP_56_TEXT = """\
k3moduli classgroup
  disc               -56
  class number h     4
  classes            (1, 0, 14) (2, 0, 7) (3, -2, 5) (3, 2, 5)
  divisors           [4]
  two torsion        [0, 1]
  principal genus    [0, 1]
  genus count        2
  genus order g      2
"""


def test_classgroup_builds_the_cayley_table_only_for_json(monkeypatch):
    calls = []
    build = classgroup.cayley

    def cayley(group, labels=None):
        calls.append(group.disc)
        return build(group, labels)

    monkeypatch.setattr(classgroup, "cayley", cayley)
    code, out = run_cli(["classgroup", "--", "-56"])
    assert (code, out, calls) == (EXIT_OK, CLASSGROUP_56_TEXT, [])
    table = run_json(["classgroup", "--", "-56"])["result"]["cayley"]
    assert calls == [-56]
    assert table == [list(row) for row in build(classgroup.class_group(-56))]


def test_classgroup_rejects_bad_disc():
    code, _ = run_cli(["classgroup", "--", "-5"])
    assert code == EXIT_INPUT


def test_oversized_discriminant_refused_fast(capsys):
    # |D| = 4000000004 (Gram 2 1 1 2000000002: |D| = 4000000003), beyond
    # MAX_ABS_DISC; enumerate's own bound lies below it and refuses alone
    enumerate_refusal = f"exceeds {cli._ENUMERATE_BOUND}, the largest enumerate takes"
    for argv, refusal in (
        (["classgroup", "--", "-4000000004"], "exceeds 1000000"),
        (["classpoly", "--", "-4000000004"], "exceeds 1000000"),
        (["analyze", "2", "1", "1", "2000000002"], "exceeds 1000000"),
        (["orbit", "2", "1", "1", "2000000002"], "exceeds 1000000"),
        (["enumerate", "--max-disc", "4000000004"], enumerate_refusal),
    ):
        start = time.perf_counter()
        code, out = run_cli(argv)
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == EXIT_INPUT and out == "", argv
        assert elapsed < 0.25, (argv, elapsed)
        assert err.count("\n") == 1 and refusal in err, err


def test_gram_entries_from_10_to_the_2000_refused(capsys):
    # below 10^2000 in size, disc has at most 4001 digits, inside str's
    # default limit of 4300; (2E, 0, 0, 2E) with E = 10^2200 (D0 = -4, m =
    # E) has a disc of 4401 digits, and raised ValueError from str
    big, huge = 10**2000, 2 * 10**2200
    refused = ((huge, 0, 0, huge), (big, 0, 0, big), (2, -big, -big, 2))
    for gram in refused:
        for command in ("analyze", "orbit"):
            for fmt in ("text", "json"):
                code, out = run_cli([command, "--format", fmt, "--", *map(str, gram)])
                err = capsys.readouterr().err
                assert code == EXIT_INPUT and out == "", (command, fmt)
                assert err == "error: Gram entries must be below 10^2000 in size\n", err
    # D0 = -4, m = 10^2000 / 2 - 1: disc = -4 m^2 has 4001 digits
    gram = (big - 2, 0, 0, big - 2)
    for command in ("analyze", "orbit"):
        env = run_json([command, "--", *map(str, gram)])
        assert env["result"]["disc"] == -4 * (big // 2 - 1) ** 2
        code, out = run_cli([command, *map(str, gram)])
        assert code == EXIT_OK and str(big // 2 - 1) in out


def test_precision_ceiling_refused_fast(capsys):
    # D = -999479 (h = 1644): classpoly's floor, W's, is 8457 digits and
    # analyze's 20501, both beyond moduli.MAX_DIGITS
    for argv, needed in (
        (["analyze", "2", "1", "1", "499740"], 20501),
        (["classpoly", "--", "-999479"], 8457),
    ):
        start = time.perf_counter()
        code, out = run_cli(argv)
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == EXIT_INPUT and out == "", argv
        assert elapsed < 1.0, (argv, elapsed)
        assert err.count("\n") == 1 and f"ceiling of {moduli.MAX_DIGITS}" in err, err
        assert f"D = -999479 needs {needed} digits" in err, err
    # each command is refused by the floor it runs at: D = -10^6 (H_D's
    # floor 4060 digits) is accepted by both, -499996 by classpoly alone
    for d, accepted in ((-40004, True), (-(10**6), True), (-499996, False)):
        group = classgroup.class_group(d)
        assert moduli.class_polynomial_floor(group) <= moduli.MAX_DIGITS, d
        assert (moduli.precision_floor(group) <= moduli.MAX_DIGITS) == accepted, d


def test_gamma3_floor_moves_the_classpoly_ceiling(monkeypatch, capsys):
    # floors only, no evaluation: D = -999867 (h = 136), odd with 3 | D, needs
    # 3219 digits for H_D, which both commands refused, and 2040 for W3, at
    # which both accept it (the field polynomial's floor is lower still);
    # D = -999591 (h = 1074) needs 11959 for W3 and is still refused
    monkeypatch.setattr(moduli, "gamma3", None)  # any evaluation would raise
    group = classgroup.class_group(-999867)
    assert hd_floor(group) == 3219 > moduli.MAX_DIGITS
    assert moduli.class_polynomial_floor(group) == moduli.precision_floor(group) == 2040
    code, out = run_cli(["classpoly", "--", "-999591"])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT and out == ""
    assert f"D = -999591 needs 11959 digits, above the ceiling of {moduli.MAX_DIGITS}" in err, err


def test_orbit_scaled():
    env = run_json(["orbit", "4", "2", "2", "24"])
    lattices = env["result"]["lattices"]
    assert len(lattices) == 3
    assert all(t["m"] == 2 and t["disc"] == -92 and t["disc0"] == -23 for t in lattices)
    assert lattices[0]["gram"] == [[4, 2], [2, 24]]


def test_classpoly_json():
    env = run_json(["classpoly", "--", "-4"])
    assert env["result"]["coefficients"] == ["-1728", "1"]
    assert env["result"]["degree"] == 1


def test_coefficients_above_the_int_string_limit_are_written(monkeypatch):
    # H_D of classpoly near |D| = 10^6 has coefficients of about 8000
    # digits, above the 4300 that str() converts by default
    big = -(7 * 10**9000 + 12345)
    digits = "-7" + "0" * 8995 + "12345"
    monkeypatch.setattr(moduli, "class_polynomial_with_precision", lambda d: ((big, 0, 3, 1), 9))
    assert run_json(["classpoly", "--", "-23"])["result"]["coefficients"] == [digits, "0", "3", "1"]
    code, out = run_cli(["classpoly", "--", "-23"])
    assert code == EXIT_OK and f"  polynomial         x^3 + 3*x^2 {digits[0]} {digits[1:]}\n" in out
    # Decimal's str has no digit limit
    for n in (0, -5, 10**600 - 1, 10**600, -(10**1200) - 1, 3**20000, -(7**9000)):
        assert cli._decimal(n) == str(Decimal(n)), n


def test_closed_stdout_exits_1_without_a_traceback():
    # the JSON of -40004 (h = 160) is about 330 kB, far above a pipe's
    # 64 KiB buffer: the writer is still printing when the reader goes away
    src = Path(cli.__file__).resolve().parents[1]
    argv = ["classgroup", "--format", "json", "--", "-40004"]
    with subprocess.Popen(
        [sys.executable, "-m", "k3moduli.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
    ) as proc:
        assert proc.stdout.read(10) == b'{\n  "comma'
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == EXIT_CLOSED_OUTPUT
    assert err == "", err


def _part(name):
    """The schema of one $defs entry of the envelope, with the $defs it refers to."""
    return {"$defs": ENVELOPE_SCHEMA["$defs"], "$ref": f"#/$defs/{name}"}


def test_result_parts_match_the_schema_definitions():
    polynomial, lattice, form = _part("polynomial"), _part("lattice"), _part("class")
    analyze = run_json(["analyze", "2", "1", "1", "48"])["result"]
    for key in ("class_polynomial", "mk_min_poly", "mq_min_poly"):
        jsonschema.validate(analyze[key], polynomial)
    for member in analyze["orbit"]:
        jsonschema.validate(member, lattice)
    orbit = run_json(["orbit", "2", "1", "1", "12"])["result"]
    for member in orbit["lattices"]:
        jsonschema.validate(member, lattice)
    for c in run_json(["classgroup", "--", "-56"])["result"]["classes"]:
        jsonschema.validate(c, form)
    jsonschema.validate(run_json(["classpoly", "--", "-23"])["result"]["coefficients"], polynomial)
    # the definitions are not vacuous
    broken = {k: v for k, v in orbit["lattices"][0].items() if k != "primitive_class"}
    with pytest.raises(jsonschema.ValidationError, match="primitive_class"):
        jsonschema.validate(broken, lattice)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate([1, 0], polynomial)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate([1, 0], form)


def test_classpoly_precision_failure_exits_3(monkeypatch, capsys):
    def never_certified(z):
        raise NotNearInteger("forced")

    empty_field_cache(monkeypatch)  # no cached polynomial may skip recognition
    monkeypatch.setattr(moduli, "recognize_integer", never_certified)
    code, out = run_cli(["classpoly", "--", "-23"])
    err = capsys.readouterr().err
    assert code == EXIT_PRECISION and out == ""
    assert err.count("\n") == 1 and err.startswith("precision failure:"), err


def test_analyze_coset_collision_at_every_precision_exits_3(monkeypatch, capsys):
    def colliding(js, cosets):
        raise TracesNotApart("forced")

    empty_field_cache(monkeypatch)
    monkeypatch.setattr(moduli, "_separated_roots", colliding)
    code, out = run_cli(["analyze", "6", "2", "2", "10"])  # D = -56, h = 4
    err = capsys.readouterr().err
    assert code == EXIT_PRECISION and out == ""
    assert err.count("\n") == 1 and err.startswith("precision failure: forced"), err


def test_analyze_equal_coset_traces_escalate_then_exit_3(monkeypatch, capsys):
    # the real _separated_roots refuses coset traces that coincide: each
    # attempt from the floor is retried at twice the digits, and the last one
    # below the ceiling ends in exit 3 with the traces' message
    sums, attempts = moduli.part_sums, []

    def equal_traces(values, parts):
        attempts.append(values[0].bits)
        traces = sums(values, parts)
        return [traces[0]] * len(traces)

    empty_field_cache(monkeypatch)
    monkeypatch.setattr(moduli, "part_sums", equal_traces)
    code, out = run_cli(["analyze", "6", "2", "2", "10"])  # D = -56, h = 4
    err = capsys.readouterr().err
    floor = moduli.precision_floor(classgroup.class_group(-56))
    last = floor << (moduli.MAX_DIGITS // floor).bit_length() - 1
    assert code == EXIT_PRECISION and out == ""
    assert err == (
        "precision failure: the coset traces are not certified distinct: failed at "
        f"{last} digits, and doubling would pass the ceiling of {moduli.MAX_DIGITS}\n"
    )
    assert len(attempts) == (last // floor).bit_length() > 1
    assert attempts == sorted(set(attempts))  # each attempt at more bits


def test_enumerate_small():
    env = run_json(["enumerate", "--max-disc", "4"])
    rows = env["result"]["strata"]
    assert [r["disc"] for r in rows] == [-3, -4]
    assert all(r["h"] == 1 for r in rows)


def test_enumerate_includes_imprimitive_rows():
    env = run_json(["enumerate", "--max-disc", "16"])
    rows = {(r["disc"], r["m"]): r for r in env["result"]["strata"]}
    assert (-12, 2) in rows
    assert rows[(-12, 2)]["disc0"] == -3
    env = run_json(["enumerate", "--max-disc", "16", "--primitive-only"])
    assert all(r["m"] == 1 for r in env["result"]["strata"])


def test_enumerate_max_h_filter():
    env = run_json(["enumerate", "--max-disc", "30", "--max-h", "3"])
    rows = env["result"]["strata"]
    assert all(r["h"] <= 3 for r in rows)
    assert any(r["disc"] == -23 and r["h"] == 3 and r["genus_order"] == 3 for r in rows)
    discs = [abs(r["disc"]) for r in rows]
    assert discs == sorted(discs)


def test_enumerate_text_names_the_h_bound_only_when_given():
    _, out = run_cli(["enumerate", "--max-disc", "8"])
    assert out.splitlines()[1] == "  bounds             |disc| <= 8, no bound on h"
    _, out = run_cli(["enumerate", "--max-disc", "8", "--max-h", "1"])
    assert out.splitlines()[1] == "  bounds             |disc| <= 8, h <= 1"
    assert run_json(["enumerate", "--max-disc", "8"])["result"]["max_class_number"] is None


def test_enumerate_rejects_bad_bounds():
    code, _ = run_cli(["enumerate", "--max-disc", "0"])
    assert code == EXIT_INPUT
    code, _ = run_cli(["enumerate", "--max-disc", "10", "--max-h", "-1"])
    assert code == EXIT_INPUT


def test_enumerate_above_its_bound_refused_fast(monkeypatch, capsys):
    # the run grows about as N^1.5, and at the bound takes about as long as
    # classpoly -- -999995; one more exits 2 at once, and the bound itself
    # reaches the rows (stubbed here: the real run takes some 20 s)
    bound = cli._ENUMERATE_BOUND
    assert bound < classgroup.MAX_ABS_DISC
    start = time.perf_counter()
    code, out = run_cli(["enumerate", "--max-disc", str(bound + 1)])
    elapsed = time.perf_counter() - start
    assert code == EXIT_INPUT and out == "" and elapsed < 1, elapsed
    assert capsys.readouterr().err == f"error: --max-disc exceeds {bound}, the largest enumerate takes\n"
    monkeypatch.setattr(cli, "_enumerate_rows", lambda *bounds: [])
    assert run_json(["enumerate", "--max-disc", str(bound)])["result"]["strata"] == []


def reference_enumerate_rows(max_disc, max_h, primitive_only):
    """The rows walked by |disc|: the square divisors m of each disc found by
    trial, and C(disc0) read again for every row."""
    rows = []
    for n in range(3, max_disc + 1):
        d = -n
        if d % 4 not in (0, 1):
            continue
        scales = [1]
        if not primitive_only:
            scales += [m for m in range(2, isqrt(n) + 1) if n % (m * m) == 0]
        for m in scales:
            d0 = d // (m * m)
            if d0 % 4 not in (0, 1):
                continue
            h, genera = classgroup.class_number_and_genera(d0)
            if max_h is not None and h > max_h:
                continue
            rows.append(
                {
                    "disc": d,
                    "m": m,
                    "disc0": d0,
                    "h": h,
                    "genus_count": genera,
                    "genus_order": h // genera,
                }
            )
    return rows


def test_enumerate_rows_match_the_walk_by_disc():
    for n in range(3, 201):
        for primitive_only in (False, True):
            for max_h in (None, 1, 2, 4):
                args = (n, max_h, primitive_only)
                assert cli._enumerate_rows(*args) == reference_enumerate_rows(*args), args
    assert cli._enumerate_rows(3000, None, False) == reference_enumerate_rows(3000, None, False)


def test_enumerate_reads_each_primitive_discriminant_once(monkeypatch):
    seen = []
    read = classgroup.class_number_and_genera

    def counted(d):
        seen.append(d)
        return read(d)

    monkeypatch.setattr(classgroup, "class_number_and_genera", counted)
    cli._enumerate_rows(400, None, False)
    assert seen == valid_discs(400)  # 200 calls, one per disc0


def test_json_outputs_are_deterministic():
    for argv in (
        ["analyze", "2", "1", "1", "12"],
        ["classgroup", "--", "-56"],
        ["enumerate", "--max-disc", "50", "--max-h", "2"],
    ):
        _, first = run_cli(with_json_format(argv))
        _, second = run_cli(with_json_format(argv))
        assert first == second


def test_text_format():
    code, out = run_cli(["analyze", "2", "1", "1", "12"])
    assert code == EXIT_OK
    assert "M_Q Galois over Q  no" in out
    assert "x^3 + 3491750*x^2 - 5151296875*x + 12771880859375" in out
    code, out = run_cli(["classpoly", "--", "-23"])
    assert "precision used" in out
    code, out = run_cli(["orbit", "4", "2", "2", "24"])
    assert code == EXIT_OK
    assert out.splitlines()[1:] == [
        "  lattice            gram [[4, 2], [2, 24]]  m = 2  class (1, 1, 6)",
        "  lattice            gram [[8, -2], [-2, 12]]  m = 2  class (2, -1, 3)",
        "  lattice            gram [[8, 2], [2, 12]]  m = 2  class (2, 1, 3)",
    ]


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**200), max_value=10**200)
    | st.text()
    | st.text(st.characters(max_codepoint=0x1F))
)
# small ints, and ints beyond 2^64 of either sign
ROW_INTS = st.integers(-9, 9) | st.integers(2**64, 2**80) | st.integers(-(2**80), -(2**64))


@st.composite
def int_rows(draw):
    """0-300 int lists of one length, 0-4: the rows _json writes by one
    format.  Then, at times, a bool among the ints, an empty list or a
    longer row among the rows, which send the list back to the general path."""
    width, count = draw(st.integers(0, 4)), draw(st.integers(0, 300))
    row = st.lists(ROW_INTS, min_size=width, max_size=width)
    rows = draw(st.lists(row, min_size=count, max_size=count))
    odd = draw(st.sampled_from(["none", "bool", "empty", "ragged"]))
    at = st.sampled_from([0, count]) | st.integers(0, count)  # first and last rows too
    if rows and width and odd == "bool":
        rows[min(draw(at), count - 1)][draw(st.integers(0, width - 1))] = draw(st.booleans())
    elif rows and odd in ("empty", "ragged"):
        rows.insert(draw(at), [] if odd == "empty" else rows[0] + [draw(ROW_INTS)])
    return rows


VALUES = st.recursive(
    SCALARS | st.lists(st.integers()) | int_rows(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


@settings(deadline=None, max_examples=300)
@given(VALUES)
def test_json_emitter_matches_json_dumps(value):
    assert _json(value) == json.dumps(value, sort_keys=True, indent=2)


@st.composite
def cayley_tables(draw):
    """h rows of h indices below h, as lists; not checked to be a group."""
    h = draw(st.integers(1, 1) | st.integers(1, 40))
    row = st.lists(st.integers(0, h - 1), min_size=h, max_size=h)
    return draw(st.lists(row, min_size=h, max_size=h))


@settings(deadline=None, max_examples=100)
@given(cayley_tables())
def test_json_emitter_writes_cayley_tables_as_lists(rows):
    value = {"t": _CayleyTable(tuple(tuple(map(str, row)) for row in rows)), "u": [[1, 2]]}
    assert _json(value) == json.dumps({"t": rows, "u": [[1, 2]]}, sort_keys=True, indent=2)


def _lattice_dict(t):
    """The JSON object of one lattice, as it was written before the rows."""
    return {
        "gram": [list(row) for row in t.gram],
        "m": t.m,
        "primitive_class": list(t.q0.rep.coefficients()),
        "disc": t.disc,
        "disc0": t.disc0,
    }


@st.composite
def lattices(draw):
    """m * (a, b, c) with |b| <= a <= c, not necessarily reduced or primitive,
    entries up to 10^40."""
    big = st.integers(1, 10**40)
    a = draw(big)
    b = draw(st.integers(-a, a))
    c = draw(st.integers(a, a + 10**40))
    m = draw(st.integers(1, 10**6) | big)
    return lattice_from_class(m, FormClass(QuadForm(a, b, c), b * b - 4 * a * c))


@settings(deadline=None, max_examples=200)
@given(st.lists(lattices(), max_size=4), st.integers(0, 2))
def test_lattice_rows_are_written_as_their_dicts(orbit, depth):
    # each row's lattice object is the dict form; a template of holes filled
    # with the rows, at several depths, is its JSON; and both text lines
    dicts = [_lattice_dict(t) for t in orbit]
    assert [_lattice(_row(t)) for t in orbit] == dicts
    holes = [_lattice((_HOLE,) * 10)] * len(orbit)
    value, expected = {"orbit": holes, "n": -1}, {"orbit": dicts, "n": -1}
    for _ in range(depth):
        value, expected = {"result": value}, {"result": expected}
    filled = _template(value) % tuple(x for t in orbit for x in _row(t))
    assert filled == json.dumps(expected, sort_keys=True, indent=2)
    listing = cli._text_lines("orbit", {"lattices": dicts})
    assert listing[1:] == [
        f"  {'lattice':<18} gram {t['gram']}  m = {t['m']}"
        f"  class {tuple(t['primitive_class'])}"
        for t in dicts
    ]
    numbers = ("disc", "disc0", "m", "d_k", "h", "genus_order", "precision_used")
    report = dict.fromkeys(numbers, 1) | dict.fromkeys(("degree_mk_over_k", "degree_mq_over_q"), 1)
    polys = ("class_polynomial", "mk_min_poly", "mq_min_poly")
    report |= dict.fromkeys(polys, ["1"]) | {"mq_is_galois": True, "orbit": dicts}
    members = [line for line in cli._text_lines("analyze", report) if "orbit member" in line]
    assert members == [
        f"  orbit member       m = {t['m']} * class {tuple(t['primitive_class'])}" for t in dicts
    ]


def test_orbit_json_bytes_are_frozen():
    # sha256 of the full stdout, taken before the orbit went out as rows:
    # h = 3 (m = 1, 2), D0 = -455 (four genera of five classes, m = 3,
    # negative b) and D0 = -420 (eight genera of one class)
    digests = {
        "2 1 1 12": "1d18274ada7367d594ed716b835a2bb2de69d24e36998a14f385736ac2050f6d",
        "4 2 2 24": "9c89ddaa3fa303586e2d1b2ce67fc0a354c417f0aee464d210f15bd8f22ed7a3",
        "36 -15 -15 120": "70ac6ff21b8c0d70837e9be97630b287c3d977495d8214238aa98bb67d0e1f62",
        "22 8 8 22": "ac3f785aa7122a63957b68dfd8eacc0d606cb8ca70150cd2b57d6c862b9b4d96",
    }
    for gram, digest in digests.items():
        code, out = run_cli(["orbit", "--format", "json", "--", *gram.split()])
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest, gram


def test_orbit_prints_the_same_bytes_cold_and_warm():
    # every memo on the analyze path cleared before each lattice of one orbit
    # (D0 = -455, m = 3): the cold output is the warm output
    memos = (classgroup.class_group, moduli.field_report, cli._analyze_envelope)
    _, listing = run_cli(["orbit", "--format", "json", "--", "36", "-15", "-15", "120"])
    members = [t["gram"] for t in json.loads(listing)["result"]["lattices"]]
    assert len(members) == 5
    for (g11, g12), (_, g22) in members:
        gram = ["--", str(g11), str(g12), str(g12), str(g22)]
        for argv in (["orbit", *gram], ["analyze", *gram], ["analyze", "--format", "json", *gram]):
            for memo in memos:
                memo.cache_clear()
            cold = run_cli(argv)
            assert cold[0] == EXIT_OK and cold == run_cli(argv), argv
    assert cli._analyze_envelope.cache_info().hits == 1  # the warm JSON run of analyze


def test_json_emitter_refuses_other_types():
    for value in (1.5, {"x": [1, 2.0]}, (1, 2), {"x": {1, 2}}):
        with pytest.raises(TypeError):
            _json(value)


def test_analyze_json_bytes_are_frozen():
    # sha256 of the full stdout; h = 3, 3 (m = 2) and 8 (D0 = -95)
    digests = {
        "2 1 1 12": "6a3fb4996e50a90836bc28bff51fbcbea79658d4c788529c2987cf965c9dbb78",
        "4 1 1 6": "15af97ec763935b4d0ff7093a88e212d18c799c9dd962f988a29e200ed08d51a",
        "2 1 1 48": "434a521c138ece4bf578eed121c77df94b67aee12931a39eea8ebeeff074e41e",
    }
    for gram, digest in digests.items():
        code, out = run_cli(["analyze", "--format", "json", *gram.split()])
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest, gram


def _analyze_dumps(gram):
    """json.dumps of the analyze envelope of the Gram entries gram, read from
    moduli_report of the lattice they give, not through cli's payload."""
    report = moduli.moduli_report(k3.from_gram(((gram[0], gram[1]), (gram[2], gram[3]))))
    mq = [str(c) for c in report.mq_min_poly]
    result = {
        "disc": report.disc,
        "disc0": report.disc0,
        "m": report.m,
        "d_k": report.d_k,
        "h": report.h,
        "genus_order": report.g,
        "degree_mk_over_k": report.g,
        "degree_mq_over_q": report.g,
        "mq_is_galois": report.mq_is_galois,
        "orbit": [_lattice_dict(t) for t in report.orbit],
        "class_polynomial": [str(c) for c in report.class_polynomial],
        "mk_min_poly": mq,
        "mq_min_poly": mq,
        "precision_used": report.precision_used,
    }
    envelope = {
        "command": "analyze",
        "version": __version__,
        "input": {"gram": [gram[:2], gram[2:]]},
        "result": result,
        "warnings": [],
    }
    return json.dumps(envelope, sort_keys=True, indent=2) + "\n"


def _analyze_inputs(d0, shift):
    """Gram entries of m * (each class of d0), m = 1, 2, 3, principal class
    first; shift > 0 moves each form by tau -> tau + shift, off its reduced
    representative, and reverses the order."""
    inputs = []
    for cls in classgroup.class_group(d0).classes:
        a, b, c = cls.rep.coefficients()
        b, c = b + 2 * shift * a, a * shift * shift + b * shift + c
        for m in (1, 2, 3):
            inputs.append([2 * m * a, m * b, m * b, 2 * m * c])
    return inputs[::-1] if shift else inputs


def _check_analyze_bytes(d0, shift, cold):
    for gram in _analyze_inputs(d0, shift):
        if cold:
            cli._analyze_envelope.cache_clear()
        code, out = run_cli(["analyze", "--format", "json", "--", *map(str, gram)])
        assert code == EXIT_OK and out == _analyze_dumps(gram), (d0, gram)


def test_analyze_envelope_matches_json_dumps_in_every_cache_state(monkeypatch):
    # each lattice's bytes from one D0 envelope: with the envelope cache
    # cleared before every query, filled from the principal lattice first,
    # and filled from another lattice first, with non-reduced input forms
    empty_field_cache(monkeypatch)
    for d0 in (-3, -4, -15, -23, -56, -95):
        _check_analyze_bytes(d0, 0, cold=True)
        for shift in (0, 1):
            cli._analyze_envelope.cache_clear()
            _check_analyze_bytes(d0, shift, cold=False)
            assert cli._analyze_envelope.cache_info().misses == 1
    # a hole is written as NUL and filled as %d; a % and a NUL in a string
    # are written as json.dumps writes them, and neither is a hole
    assert _json({"x": _HOLE}) == '{\n  "x": \0\n}'
    percent = {"x": "%d %", "y": 5}
    assert _template(percent | {"y": _HOLE}) % (5,) == json.dumps(percent, indent=2)
    assert _json("\0") == _template("\0") == json.dumps("\0") == '"\\u0000"'
    assert _template(["\0", _HOLE]) % (-1,) == json.dumps(["\0", -1], indent=2)
    # no str subclass is written

    class Text(str):
        pass

    for value in (Text("x"), [Text("x")], {"x": Text("x")}):
        with pytest.raises(TypeError):
            _json(value)


def test_first_json_analyze_builds_its_own_orbit_alone(monkeypatch):
    # a D0's envelope is rendered from moduli.field_report, not from a second
    # report of the principal lattice: a first JSON query builds one orbit,
    # its lattice's, and the four lattices of D0 = -56 print the same bytes
    # in any order of first queries
    empty_field_cache(monkeypatch)
    orbits, build = [], k3.galois_orbit
    monkeypatch.setattr(k3, "galois_orbit", lambda lattice: orbits.append(lattice) or build(lattice))
    classes = [c.rep for c in classgroup.class_group(-56).classes]
    grams = [("--", str(2 * r.a), str(r.b), str(r.b), str(2 * r.c)) for r in classes]
    assert len(grams) == 4
    cold = {}
    for gram in grams:
        cli._analyze_envelope.cache_clear()
        orbits.clear()
        code, cold[gram] = run_cli(["analyze", "--format", "json", *gram])
        assert code == EXIT_OK and len(orbits) == 1, gram
    for order in permutations(grams):
        cli._analyze_envelope.cache_clear()
        for gram in order:
            assert run_cli(["analyze", "--format", "json", *gram]) == (EXIT_OK, cold[gram]), order
    assert cli._analyze_envelope.cache_info().misses == 1


def test_repeated_analyze_factors_nothing(monkeypatch):
    # d_k is read once per D0, in moduli.field_report: a repeated analyze of
    # a lattice, or of another lattice of its D0, runs no trial division
    factor, calls = orders.factorization, []
    for argv in (["2", "1", "1", "12"], ["4", "1", "1", "6"], ["6", "3", "3", "36"]):
        for fmt in ("text", "json"):
            run_cli(["analyze", "--format", fmt, *argv])
            monkeypatch.setattr(orders, "factorization", lambda n: calls.append(n) or factor(n))
            assert run_cli(["analyze", "--format", fmt, *argv])[0] == EXIT_OK
            monkeypatch.setattr(orders, "factorization", factor)
    assert calls == []


def test_analyze_refusals_are_not_cached(monkeypatch, capsys):
    # D0 = -999479 is refused by its precision floor, each time alike, and
    # leaves no envelope behind
    argv = ["analyze", "--format", "json", "2", "1", "1", "499740"]
    size = cli._analyze_envelope.cache_info().currsize
    refusals = []
    for _ in range(2):
        refusals.append((run_cli(argv), capsys.readouterr().err))
    assert refusals[0] == refusals[1]
    (code, out), err = refusals[0]
    assert code == EXIT_INPUT and out == "" and err.count("\n") == 1, err
    assert cli._analyze_envelope.cache_info().currsize == size

    # a precision failure is raised again on the next call
    def colliding(js, cosets):
        raise TracesNotApart("forced")

    empty_field_cache(monkeypatch)
    monkeypatch.setattr(moduli, "_separated_roots", colliding)
    for _ in range(2):
        code, out = run_cli(["analyze", "--format", "json", "6", "2", "2", "10"])  # D = -56
        err = capsys.readouterr().err
        assert code == EXIT_PRECISION and out == "", err
        assert err.startswith("precision failure: forced") and err.count("\n") == 1, err
    assert cli._analyze_envelope.cache_info().currsize == 0


def test_classgroup_json_bytes_are_frozen():
    # sha256 of the full stdout; C(-420) is C(2)^3, h(-99999) = 224
    digests = {
        "-3": "1cb4c4f91a5b44377ce6a3d3d49ab412fb32d41f9ff1da4bc30a64629de1689d",
        "-4": "13d236114a2d117ea9cd1dfe791c3094f7fc2eadce2177e7d2b54f642d1f9c8c",
        "-56": "db07560752f63a64e7a702005f726249ec30da710bfab72cec78a948f35d3dd0",
        "-420": "b979b8b0332318e6d7a3f7c7cc21d86e0538a2e2fc844ae84462398e5dd7a43a",
        "-99999": "cf690aefd3dbf0eab0bf89db323dec093cfb3c7c5f74055da4d20b2b9c2b3664",
    }
    for disc, digest in digests.items():
        code, out = run_cli(["classgroup", "--format", "json", "--", disc])
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest, disc
        table = json.loads(out)["result"]["cayley"]
        assert table == [list(row) for row in classgroup.cayley(classgroup.class_group(int(disc)))]


def test_the_largest_cayley_envelope_is_joined_without_a_further_copy():
    # -999479 (h = 1644) writes 36.2 MB: the gathered rows, their strings and
    # the one join of them peak near 2.6 times that under tracemalloc, and
    # one more copy of the table would take the peak to about 3.6 times
    class Sink:
        size = 0

        def write(self, text):
            self.size += len(text)

        def flush(self):
            pass

    sink = Sink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(["classgroup", "--format", "json", "--", "-999479"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, sink.size) == (EXIT_OK, 36162306)
    assert peak < 3 * sink.size, peak


def _genera_by_coordinates(group):
    """The genera, each ascending, by least member, grouped by each class's
    coordinates mod 2 at the even invariant factors."""
    even = [k for k, n in enumerate(group.elementary_divisors) if n % 2 == 0]
    genera = {}
    for i, c in enumerate(group.coords):
        genera.setdefault(tuple(c[k] % 2 for k in even), []).append(i)
    return list(genera.values())


def test_classgroup_envelope_matches_json_dumps(monkeypatch):
    # the envelope run prints, Cayley table and all, against json.dumps of
    # the payload it builds with the table as plain lists; the genus lists
    # and C[2] against the coordinates, as frozensets and as the text lines
    # print them
    emitted, emit = [], cli._emit

    def recorded(args, payload, table=""):
        emitted.append((payload, table))
        emit(args, payload, table)

    monkeypatch.setattr(cli, "_emit", recorded)
    for d in valid_discs(1000) + [-4620, -99999]:  # 2-rank 4, and h = 224
        group = classgroup.class_group(d)
        genera = _genera_by_coordinates(group)
        torsion = [i for i in range(group.h) if group.mul(i, i) == 0]
        partition = classgroup.genus_partition(group)
        assert partition.cosets == tuple(map(frozenset, genera))
        assert partition.principal_genus == frozenset(genera[0])
        assert classgroup.principal_genus(group) == frozenset(genera[0])
        assert classgroup.two_torsion(group) == frozenset(torsion)
        code, out = run_cli(["classgroup", "--format", "json", "--", str(d)])
        payload, table = emitted.pop()
        assert payload["cayley"] is _HOLE and table  # the table, printed apart
        plain = {**payload, "cayley": [list(row) for row in classgroup.cayley(group)]}
        envelope = cli._envelope("classgroup", {"disc": d}, plain)
        assert (code, out) == (EXIT_OK, json.dumps(envelope, sort_keys=True, indent=2) + "\n"), d
        assert (payload["principal_genus"], payload["genus_cosets"]) == (genera[0], genera)
        assert payload["two_torsion"] == torsion and payload["genus_count"] == len(genera)
        code, out = run_cli(["classgroup", "--", str(d)])
        assert emitted.pop()[1] == ""
        lines = [
            "k3moduli classgroup",
            f"  {'disc':<18} {d}",
            f"  {'class number h':<18} {group.h}",
            f"  {'classes':<18} " + " ".join(str(c.rep.coefficients()) for c in group.classes),
            f"  {'divisors':<18} {list(group.elementary_divisors)}",
            f"  {'two torsion':<18} {torsion}",
            f"  {'principal genus':<18} {genera[0]}",
            f"  {'genus count':<18} {len(genera)}",
            f"  {'genus order g':<18} {classgroup.genus_order(group)}",
        ]
        assert (code, out) == (EXIT_OK, "\n".join(lines) + "\n"), d


def test_enumerate_bytes_are_frozen():
    # sha256 of the full stdout of the walk by |disc| that the d0-first loop replaced
    digests = {
        "--format json --max-disc 2000": "e5fc100b27835fe2bfabda96ba38b08f98c37f26b3f0f0bc8a3d3a476df25ddb",
        "--format json --primitive-only --max-disc 2000": (
            "7b315d7705c36f8f45d373b70212e0b019996f3bc0774895955270e98f3a88bd"
        ),
        "--max-h 4 --max-disc 2000": "6049c8318f71d6de867a084055c0a3d1ae95dcacbe0d85964f5e10dd7882c15c",
        "--format json --max-disc 20000": "54b2152ecf7c12896acf94c3bdf0a71653e6a48441feb0f366f04fb35902c283",
    }
    for argv, digest in digests.items():
        code, out = run_cli(["enumerate", *argv.split()])
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# argv for the parse battery: every command in both formats, help, version,
# and each kind of parse error, at the top level and after a command
GRAM, DISC = ["2", "1", "1", "12"], ["--", "-23"]
COMMANDS = {
    "analyze": GRAM,
    "orbit": GRAM,
    "classgroup": DISC,
    "classpoly": DISC,
    "enumerate": ["--max-disc", "20"],
}
PARSE_BATTERY = [
    *(
        [command, *fmt, *operand]
        for command, operand in COMMANDS.items()
        for fmt in ([], ["--format", "json"], ["--format", "text"])
    ),
    ["classpoly", "-23"],
    ["classgroup", "--", "-23", "--format", "json"],
    ["analyze", "--", *GRAM],
    ["analyze", *GRAM, "--form", "json"],
    ["-h"],
    ["--help"],
    *([command, flag] for command in COMMANDS for flag in ("-h", "--help")),
    ["classpoly", "--help", "--", "-23"],
    ["--version"],
    ["analyze", "--version"],
    ["classpoly", "--version", "--", "-23"],
    ["analyze", *GRAM, "--vers"],
    [],
    ["frobnicate"],
    ["--format", "json", "classpoly", "--", "-23"],
    ["analyze", "2", "1", "1"],
    ["classpoly"],
    ["enumerate"],
    ["classpoly", "x"],
    ["analyze", "2", "1", "one", "12"],
    ["enumerate", "--max-disc", "ten"],
    ["classpoly", "--format", "xml", "--", "-23"],
    ["analyze", *GRAM, "7"],
    ["classpoly", "--", "-23", "5"],
    ["enumerate", "--max-disc", "20", "--max-h", "2", "--primitive-only"],
    ["enumerate", "--primitive-only", "--max-disc", "20", "--format", "json"],
    ["enumerate", "--max", "20"],
    ["enumerate", "--max-disc", "20", "--primitive-only", "yes"],
    # the edges of the canonical argv that _match reads without argparse
    ["analyze", *GRAM, "--format", "json"],
    ["classpoly", "-23", "--format", "json"],
    ["classpoly", "--format=json", *DISC],
    ["classpoly", "--format", "json", "--format", "text", *DISC],
    ["classpoly", "--format", "xml", "--format", "json", *DISC],
    ["classpoly", "--", *DISC],
    ["analyze", "2", "1", "--", "1", "12"],
    ["analyze", *GRAM, "--"],
    ["analyze", "2", "1", "--format", "json", "1", "12"],
    ["classpoly", "-23", "--format", "json", "5"],
    ["analyze", "+2", "1_0", " 1", "12"],
    ["classpoly", "-5.0"],
    ["classpoly", ""],
    ["enumerate", "--max-disc", "20", "--max-h", "-1"],
    ["enumerate", "--max-disc", "20", "--max-h", "-1_0"],
    ["enumerate", "--max-disc", "20", "--primitive-only", "--primitive-only"],
    ["enumerate", "--max-disc", "20", "--"],
    ["enumerate", "--"],
    ["classpoly", "--format", "json", "--"],
]


def outcome(call, capsys):
    """(what call() returns, or its exit code, then stdout and stderr)."""
    try:
        value = call()
    except SystemExit as exc:
        value = ("exit", exc.code)
    return value, *capsys.readouterr()


@pytest.mark.parametrize("argv", PARSE_BATTERY, ids=" ".join)
def test_one_pass_parse_matches_the_whole_parser(argv, capsys):
    # the namespace in key order, or the exit code, and both streams
    whole = outcome(lambda: list(vars(cli.build_parser().parse_args(argv)).items()), capsys)
    assert outcome(lambda: list(vars(cli._parse(argv)).items()), capsys) == whole


def test_main_reads_sys_argv(monkeypatch, capsys):
    for argv in (["classpoly", "--format", "json", *DISC], ["frobnicate"], ["--version"]):
        expected = outcome(lambda: cli.main(argv), capsys)
        monkeypatch.setattr(sys, "argv", ["k3moduli", *argv])
        assert outcome(cli.main, capsys) == expected
    assert expected == (("exit", 0), f"k3moduli {__version__}\n", "")


# every token of a drawn argv: the commands, every option of each (help
# too) and each prefix of it, values and operands that argparse reads in
# different ways
ARGUMENTS = {command: arguments for command, (_, *arguments) in cli._COMMANDS.items()}
OPERANDS = ["0", "2", "12", "-23", "+5", "1_0", " 7", "-5.0", "x", ""]
ARGV_TOKENS = sorted(
    {
        *ARGUMENTS,
        *(
            option[:k]
            for option in ("-h", "--help", *(n for a in ARGUMENTS.values() for n, _ in a))
            if option.startswith("-")
            for k in range(1, len(option) + 1)
        ),
        *("--format=json", "--", "-h", "--version", "json", "text", "xml", *OPERANDS),
    }
)


@st.composite
def near_canonical_argv(draw):
    """A command's canonical argv: its options in a drawn order, each but a
    required one present or not, and its operands, after a -- or not, before,
    between or after them.  Then up to two tokens of ARGV_TOKENS are put in
    or taken out.  A uniform draw of ARGV_TOKENS is canonical about once in a
    hundred."""
    command = draw(st.sampled_from(sorted(ARGUMENTS)))
    pieces = []
    for name, keywords in ARGUMENTS[command]:
        if not name.startswith("-"):
            count = keywords.get("nargs", 1)
            operands = st.lists(st.sampled_from(OPERANDS[:5]), min_size=count, max_size=count)
            pieces.append(["--"] * draw(st.booleans()) + draw(operands))
        elif keywords.get("action") == "store_true":
            if draw(st.booleans()):
                pieces.append([name])
        elif keywords.get("required") or draw(st.booleans()):
            values = sorted(keywords.get("choices", OPERANDS[:5])) + ["xml"]
            pieces.append([name, draw(st.sampled_from(values))])
    argv = [command, *chain.from_iterable(draw(st.permutations(pieces)))]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(argv)))
        if draw(st.booleans()):
            argv.insert(at, draw(st.sampled_from(ARGV_TOKENS)))
        else:
            del argv[at : at + 1]
    return argv


@settings(deadline=None, max_examples=400)
@given(st.lists(st.sampled_from(ARGV_TOKENS), max_size=8) | near_canonical_argv())
def test_parse_matches_the_whole_parser_on_drawn_argv(argv):
    # as the parse battery, with the streams redirected here: hypothesis
    # refuses capsys, which pytest scopes to the test function
    def outcome(call):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                value = list(vars(call(argv)).items())
            except SystemExit as exc:
                value = ("exit", exc.code)
        return value, out.getvalue(), err.getvalue()

    assert outcome(cli._parse) == outcome(cli.build_parser().parse_args)


def test_a_canonical_argv_is_parsed_without_argparse(monkeypatch):
    # the command, its options, one optional --, then its operands
    canonical = [
        *([command, "--format", "json", *GRAM] for command in ("analyze", "orbit")),
        *([command, "--format", "text", "--", *GRAM] for command in ("analyze", "orbit")),
        *([command, *disc] for command in ("classpoly", "classgroup") for disc in (DISC, ["-23"])),
        ["classpoly", "--format", "json", *DISC],
        ["enumerate", "--max-disc", "20", "--max-h", "2", "--primitive-only"],
        ["enumerate", "--primitive-only", "--format", "json", "--max-disc", "20"],
    ]
    expected = [vars(cli.build_parser().parse_args(argv)) for argv in canonical]
    monkeypatch.setattr(cli, "build_parser", None)
    assert [vars(cli._parse(argv)) for argv in canonical] == expected


def test_canonical_queries_never_import_argparse():
    # pytest imports argparse itself, so a fresh interpreter runs the queries
    script = """if True:
        import contextlib, io, sys
        from k3moduli import cli

        def run(argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(argv) == 0
            return out.getvalue()

        for fmt in ("text", "json"):
            run(["analyze", "--format", fmt, "2", "1", "1", "12"])
            run(["orbit", "--format", fmt, "--", "2", "1", "1", "12"])
            run(["classgroup", "--format", fmt, "--", "-23"])
            run(["enumerate", "--format", fmt, "--max-disc", "20", "--primitive-only"])
            canonical = run(["classpoly", "--format", fmt, "--", "-23"])
        print("argparse" in sys.modules)
        print(run(["classpoly", "--format=json", "--", "-23"]) == canonical)
        print("argparse" in sys.modules)
    """
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\nTrue\nTrue\n", "")
