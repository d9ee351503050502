import hashlib
import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from math import isqrt
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3moduli import classgroup, cli, moduli
from k3moduli.cli import ENVELOPE_SCHEMA, EXIT_CLOSED_OUTPUT, EXIT_INPUT, EXIT_OK, EXIT_PRECISION
from k3moduli.cli import _CayleyTable, _json
from k3moduli.errors import NotNearInteger, ResolventDegenerate

from conftest import empty_field_cache, run_cli, valid_discs


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
    # |D| = 4000000004 (Gram 2 1 1 2000000002: |D| = 4000000003), beyond MAX_ABS_DISC
    for argv in (
        ["classgroup", "--", "-4000000004"],
        ["classpoly", "--", "-4000000004"],
        ["analyze", "2", "1", "1", "2000000002"],
        ["orbit", "2", "1", "1", "2000000002"],
        ["enumerate", "--max-disc", "4000000004"],
    ):
        start = time.perf_counter()
        code, out = run_cli(argv)
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == EXIT_INPUT and out == "", argv
        assert elapsed < 0.25, (argv, elapsed)
        assert err.count("\n") == 1 and "exceeds 1000000" in err, err


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
        raise ResolventDegenerate("forced")

    empty_field_cache(monkeypatch)
    monkeypatch.setattr(moduli, "_separated_roots", colliding)
    code, out = run_cli(["analyze", "6", "2", "2", "10"])  # D = -56, h = 4
    err = capsys.readouterr().err
    assert code == EXIT_PRECISION and out == ""
    assert err.count("\n") == 1 and err.startswith("precision failure: forced"), err


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


def test_text_format_prints_each_warning(monkeypatch):
    # a fallback rung of the resolvent ladder is reported on its own line
    empty_field_cache(monkeypatch)  # a cached report would skip the ladder
    monkeypatch.setattr(moduli, "_RESOLVENT_LADDER", (("square sum", 2, 0),))
    code, out = run_cli(["analyze", "6", "2", "2", "10"])  # D = -56, h = 4
    assert code == EXIT_OK
    assert out.splitlines()[-1] == "  warning: resolvent fallback used: square sum"


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**200), max_value=10**200)
    | st.text()
    | st.text(st.characters(max_codepoint=0x1F))
)
VALUES = st.recursive(
    SCALARS | st.lists(st.integers()),
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
    h = draw(st.integers(1, 6))
    row = st.lists(st.integers(0, h - 1), min_size=h, max_size=h)
    return draw(st.lists(row, min_size=h, max_size=h))


@settings(deadline=None, max_examples=100)
@given(cayley_tables())
def test_json_emitter_writes_cayley_tables_as_lists(rows):
    value = {"t": _CayleyTable(tuple(tuple(map(str, row)) for row in rows)), "u": [[1, 2]]}
    assert _json(value) == json.dumps({"t": rows, "u": [[1, 2]]}, sort_keys=True, indent=2)


def test_json_emitter_refuses_other_types():
    for value in (1.5, {"x": [1, 2.0]}, (1, 2), {"x": {1, 2}}):
        with pytest.raises(TypeError):
            _json(value)


def test_analyze_json_bytes_are_frozen():
    # sha256 of the full stdout; h = 3, 3 (m = 2) and 8 (D0 = -95)
    digests = {
        "2 1 1 12": "40015302c4170850f3335cea1bc46b7a581c4e71fde3ab97abcc4058aeb224b2",
        "4 1 1 6": "507b475b63736fa06aee1ba0c48a3719e994569eae0e6e783da277bfc2877f99",
        "2 1 1 48": "434a521c138ece4bf578eed121c77df94b67aee12931a39eea8ebeeff074e41e",
    }
    for gram, digest in digests.items():
        code, out = run_cli(["analyze", "--format", "json", *gram.split()])
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest, gram


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
