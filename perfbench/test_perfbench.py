"""Self-tests of the benchmark: inputs, checks and the repeatability of counts.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from checks import Checker, class_polynomial_error, lattice_of, result_digest  # noqa: E402
from run import RUN_DEADLINE_S, Runner, result_line, run_workload  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, queries  # noqa: E402

from k3moduli import cli  # noqa: E402

REPEATED_COUNTS = (
    "qforms.compose.calls",
    "numerics.j_invariant.calls",
    "numerics.j_invariant.digits_sum",
    "numerics.recognize_integer.failed",
    "classgroup.class_group.misses",
)


def _stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def _bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_determines_the_queries(name):
    first = queries(name, 7)
    assert first == queries(name, 7)
    assert first != queries(name, 8)
    assert len(first) % WORKLOADS[name].round_size == 0


def test_classpoly_has_no_repeats_and_analyze_repeats_three_quarters():
    discs = [argv[-1] for argv in queries("classpoly", 3)]
    assert len(discs) == len(set(discs))
    w = WORKLOADS["analyze"]
    first_round = queries("analyze", 3)[: w.round_size]
    d0s = [b * b - 4 * a * c for _, (a, b, c) in map(lattice_of, first_round)]
    assert len(d0s) == 4 * len(set(d0s)) == 4 * w.bins


def test_class_polynomial_check_rejects_a_coefficient_off_by_one():
    argv = ["classpoly", "--format", "json", "--", "-1999"]
    coeffs = json.loads(_stdout(argv))["result"]["coefficients"]
    assert class_polynomial_error(-1999, coeffs) is None
    for k in (0, len(coeffs) // 2, len(coeffs) - 2):
        bad = list(coeffs)
        bad[k] = str(int(bad[k]) + 1)
        assert class_polynomial_error(-1999, bad) is not None


def test_cayley_check_rejects_two_swapped_entries():
    argv = ["classgroup", "--format", "json", "--", "-4004"]
    text = _stdout(argv)
    assert Checker({}).check(argv, text)[0] is None
    envelope = json.loads(text)
    row = envelope["result"]["cayley"][3]
    row[1], row[2] = row[2], row[1]
    assert Checker({}).check(argv, json.dumps(envelope))[0] is not None


def test_analyze_check_accepts_output_and_rejects_changed_mk():
    argv = ["analyze", "--format", "json", "4", "-2", "-2", "170"]
    text = _stdout(argv)
    assert Checker({}).check(argv, text)[0] is None
    envelope = json.loads(text)
    envelope["result"]["mk_min_poly"][0] = str(int(envelope["result"]["mk_min_poly"][0]) + 1)
    assert Checker({}).check(argv, json.dumps(envelope))[0] is not None


def test_golden_digest_ignores_only_precision_used():
    result = json.loads(_stdout(["classpoly", "--format", "json", "--", "-23"]))["result"]
    digest = result_digest(result)
    assert result_digest(dict(result, precision_used=999)) == digest
    assert result_digest(dict(result, degree=4)) != digest
    assert Checker({"classpoly --format json -- -23": "0" * 64}).check(
        ["classpoly", "--format", "json", "--", "-23"], json.dumps({"command": "classpoly", "result": result})
    )[0] == "result differs from the golden digest"


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    runs = []
    for i in range(2):
        runner = Runner(time.perf_counter() + RUN_DEADLINE_S)
        spans_path = str(tmp_path / f"spans-{i}.tsv.gz")
        runs.append(runner.job(queries=queries(name, 5)[:12], trace=True, golden={}, spans_path=spans_path))
    assert not runs[0]["failures"] and not runs[1]["failures"]
    for key in REPEATED_COUNTS:
        assert runs[0]["layers"][key] == runs[1]["layers"][key], key


def test_result_line_matches_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == LAYER_METRICS
    line = result_line([run_workload("classpoly", 5, queries("classpoly", 5)[:3], False, {})])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] == 3 and line["failed"] == 0
    assert {k: m["unit"] for k, m in line["metrics"].items()} == {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_refuses_a_run_longer_than_the_inputs():
    proc = _bench("--workload", "classpoly", "--seconds", "100000")
    assert proc.returncode == 2
    assert "at most" in proc.stderr and "Traceback" not in proc.stderr
    assert '"correct"' not in proc.stdout


def test_refuses_to_run_without_the_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        proc = _bench("--workload", "classpoly", "--seconds", "1", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
