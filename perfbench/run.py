"""k3moduli benchmark: seeded CLI workloads, end to end or traced per layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Each workload run is a closed loop with one
client: a fresh interpreter imports k3moduli.cli and sends the seeded argv
lists through cli.main one at a time.  Every output is checked outside the
timed region.  --trace 0 reports the end-to-end metrics; --trace 1 runs the
same queries untraced and then traced, each in a fresh interpreter, and
reports the per-layer metrics.  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from spans import LAYER_METRICS  # noqa: E402
from speed import REFERENCE_S, normalised  # noqa: E402
from workloads import WORKLOADS, queries, rounds_for  # noqa: E402

DEFAULT_SEED = 1
SETUP_SAMPLES = 7
RUN_DEADLINE_S = 170
SELF_SUM_TOLERANCE_S = 1e-6


class BenchError(Exception):
    """A run that produced no result."""


def environment() -> dict:
    import mpmath

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def _commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Runner:
    """Spawns child interpreters against ROOT/src within one run's deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))

    def _spawn(self, args: list[str], stdin: str = "") -> tuple[float, str]:
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise BenchError("run deadline passed")
        started = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), *args],
                input=stdin, capture_output=True, text=True, env=self.env, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"child exceeded the {RUN_DEADLINE_S} s run deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return started, proc.stdout.strip().splitlines()[-1]

    def setup_seconds(self) -> tuple[float, float]:
        """Spawn to end of `import k3moduli.cli` (perf_counter is system-wide on
        Linux), and the speed kernel's time measured right after."""
        started, line = self._spawn(["--setup-only"])
        imported_at, kernel = json.loads(line)
        return imported_at - started, kernel

    def job(self, **job) -> dict:
        return json.loads(self._spawn([], json.dumps(job))[1])


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all order
    statistics, steadier than one or two of them when each value carries noise."""
    from mpmath import betainc

    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [float(betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x[i] for i in range(n))


def _end_to_end(runner: Runner, work: list[list[str]], golden: dict) -> tuple[dict, dict, dict]:
    """(metrics, the same figures before normalisation, the child's report)."""
    setups = [runner.setup_seconds() for _ in range(SETUP_SAMPLES)]
    run = runner.job(queries=work, trace=False, golden=golden)
    figures = {}
    for label, lat, setup in (
        ("normalised", normalised(run["latencies"], run["kernels"]), [s * REFERENCE_S / k for s, k in setups]),
        ("raw", run["latencies"], [s for s, _ in setups]),
    ):
        figures[label] = {
            "queries_per_s": (len(lat) / sum(lat), "1/s"),
            "query_p50_ms": (quantile(lat, 0.5) * 1e3, "ms"),
            "query_p90_ms": (quantile(lat, 0.9) * 1e3, "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (run["peak_rss_kb"] / 1024, "MB"),
        }
    return figures["normalised"], figures["raw"], run


def _per_layer(runner: Runner, work: list[list[str]], golden: dict, spans_path: Path) -> tuple[dict, dict, list]:
    """(metrics, the traced child's report, consistency failures) of an untraced then a traced run."""
    plain = runner.job(queries=work, trace=False, golden=golden)
    traced = runner.job(queries=work, trace=True, golden=golden, spans_path=str(spans_path))
    layers = traced["layers"]
    busy_plain = sum(normalised(plain["latencies"], plain["kernels"]))
    busy_traced = sum(normalised(traced["latencies"], traced["kernels"]))
    failed = len({f[0] for f in traced["failures"]})
    layers.update(
        {
            "trace.queries": len(work),
            "trace.overhead_s": busy_traced - busy_plain,
            "trace.overhead_frac": (busy_traced - busy_plain) / busy_plain,
            "failed_frac": failed / len(work),
            "workload.d0_repeat_frac": traced["d0_repeat_frac"],
        }
    )
    problems = [[f[0], f[1], "untraced: " + f[2]] for f in plain["failures"]]
    if plain["stdout_digests"] != traced["stdout_digests"]:
        problems.append([-1, "", "stdout differs with tracing on"])
    if layers["trace.self_sum_err_s"] > SELF_SUM_TOLERANCE_S:
        problems.append([-1, "", "span self times do not sum to the cli.main span"])
    return {key: (layers[key], unit) for key, unit in LAYER_METRICS}, traced, problems


def run_workload(name: str, seed: int, work: list[list[str]], trace: bool, golden: dict) -> dict:
    runner = Runner(time.perf_counter() + RUN_DEADLINE_S)
    raw: dict = {}
    if trace:
        OUT.mkdir(exist_ok=True)
        metrics, run, problems = _per_layer(runner, work, golden, OUT / f"spans-{name}-seed{seed}.tsv.gz")
    else:
        metrics, raw, run = _end_to_end(runner, work, golden)
        problems = []
    failed = len({f[0] for f in run["failures"]})
    failures = run["failures"] + problems
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "samples": len(work),
        "busy_s": sum(run["latencies"]),
        "failed_frac": failed / len(work),
        "d0_repeat_frac": run["d0_repeat_frac"],
        "failures": failures,
        "correct": not failures,
        "attempted": len(work),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "latencies": run["latencies"],
        "kernels": run["kernels"],
    }


def _print_block(result: dict) -> None:
    name = result["workload"]
    print(f"== {name}  seed {result['seed']}  trace {result['trace']}")
    print(
        f"   {result['samples']} queries in {result['busy_s']:.3f} s of query time, "
        f"{result['failed']} failed (failed_frac {result['failed_frac']:.4f}), "
        f"checks {'passed' if result['correct'] else 'FAILED'}"
    )
    if name == "analyze":
        print(f"   D0 repeat share {result['d0_repeat_frac']:.4f}")
    if result["samples"] < 100:
        print("   warning: fewer than 100 samples, so fewer than 10 lie beyond p90")
    for qid, argv, reason in result["failures"][:20]:
        print(f"   FAIL query {qid} [{argv}]: {reason}")
    for key, m in result["metrics"].items():
        print(f"   {key:<48} {m['value']:>16.6f} {m['unit']}")
    for key, m in result["raw_metrics"].items():
        print(f"   {'raw ' + key:<48} {m['value']:>16.6f} {m['unit']}  (wall clock, not normalised)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20, help="nominal run length; sets the rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "k3moduli" / "cli.py").is_file():
        print(f"error: no k3moduli sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    golden_path = HERE / "golden.json"
    golden = json.loads(golden_path.read_text())["digests"] if golden_path.is_file() else {}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    results = []
    for name in names:
        try:
            work = queries(name, args.seed, rounds_for(args.seconds))
        except ValueError as exc:  # more rounds than a bin has inputs
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            result = run_workload(name, args.seed, work, bool(args.trace), golden)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        result["env"] = env
        OUT.mkdir(exist_ok=True)
        (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))
        _print_block(result)
        results.append(result)
    print("env " + json.dumps(env))
    print(json.dumps(result_line(results)))
    return 0


def result_line(results: list[dict]) -> dict:
    """The last stdout line; metric names carry the workload when there are several."""
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


if __name__ == "__main__":
    raise SystemExit(main())
