import hashlib
import json
import time

import jsonschema

from k3moduli import classgroup, moduli
from k3moduli.cli import ENVELOPE_SCHEMA, EXIT_INPUT, EXIT_OK, EXIT_PRECISION
from k3moduli.errors import NotNearInteger

from conftest import run_cli


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
    # D = -10^6 needs about 4060 digits, beyond moduli.MAX_DIGITS
    for argv in (["analyze", "2", "0", "0", "500000"], ["classpoly", "--", "-1000000"]):
        start = time.perf_counter()
        code, out = run_cli(argv)
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == EXIT_INPUT and out == "", argv
        assert elapsed < 1.0, (argv, elapsed)
        assert err.count("\n") == 1 and f"ceiling of {moduli.MAX_DIGITS}" in err, err
        assert "D = -1000000 needs 4060 digits" in err, err
    # a floor above the ceiling is named before a requested precision is
    code, out = run_cli(["classpoly", "--digits", "5000", "--", "-1000000"])
    assert code == EXIT_INPUT and out == ""
    assert "D = -1000000 needs 4060 digits" in capsys.readouterr().err
    # D = -23 needs 10 digits (19 for H_D): a refused --digits names itself
    over = str(moduli.MAX_DIGITS + 1)
    for argv in (
        ["classpoly", "--digits", over, "--", "-23"],
        ["analyze", "--digits", over, "2", "1", "1", "12"],
    ):
        code, out = run_cli(argv)
        assert code == EXIT_INPUT and out == "", argv
        err = capsys.readouterr().err
        assert f"ceiling of {moduli.MAX_DIGITS}" in err
        assert f"{over} digits are above the ceiling of {moduli.MAX_DIGITS}" in err, err
        assert "D =" not in err, err
    # while D = -40004 (h = 160) stays below the ceiling
    assert moduli.precision_floor(classgroup.class_group(-40004)) <= moduli.MAX_DIGITS


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


def test_classpoly_precision_failure_exits_3(monkeypatch, capsys):
    def never_certified(z):
        raise NotNearInteger("forced")

    monkeypatch.setattr(moduli, "recognize_integer", never_certified)
    code, out = run_cli(["classpoly", "--", "-23"])
    err = capsys.readouterr().err
    assert code == EXIT_PRECISION and out == ""
    assert err.count("\n") == 1 and err.startswith("precision failure:"), err


def test_nonpositive_digits_rejected(capsys):
    for digits in ("0", "-5"):
        code, out = run_cli(["classpoly", "--digits", digits, "--", "-23"])
        assert code == EXIT_INPUT and out == ""
        assert "digits must be positive" in capsys.readouterr().err
        code, out = run_cli(["analyze", "--digits", digits, "2", "1", "1", "12"])
        assert code == EXIT_INPUT and out == ""
        assert "digits must be positive" in capsys.readouterr().err


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


def test_enumerate_rejects_bad_bounds():
    code, _ = run_cli(["enumerate", "--max-disc", "0"])
    assert code == EXIT_INPUT
    code, _ = run_cli(["enumerate", "--max-disc", "10", "--max-h", "-1"])
    assert code == EXIT_INPUT


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


def test_explicit_digits_flag():
    env = run_json(["analyze", "2", "1", "1", "12", "--digits", "80"])
    assert env["result"]["precision_used"] == 80
    assert env["input"]["digits"] == 80


def test_analyze_json_bytes_are_frozen():
    # sha256 of the full stdout; h = 3, 3 (m = 2) and 8 (D0 = -95)
    digests = {
        "2 1 1 12": "24b1bfb77d8ffbf0e4369df0ab92a386e696c7accefaff9d5c49a763e02fd8ce",
        "4 1 1 6": "cd2b7e9470de3eac13891534359aef2c1f0c3ec08fd71b21996224a798836e18",
        "2 1 1 48": "ebc457b20a929b0411c41168ad4710d3f201ea7b33a230240bc79b38778bb0bc",
    }
    for gram, digest in digests.items():
        code, out = run_cli(["analyze", "--format", "json", *gram.split()])
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest, gram
