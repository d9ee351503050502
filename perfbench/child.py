"""One benchmark run in a fresh interpreter: CLI queries in-process, one at a time.

Reads a job from stdin, prints one JSON result line.  The first statement
after the timer import loads the CLI, so IMPORTED_AT marks the end of set-up.
With --setup-only it prints IMPORTED_AT and exits.
"""

import time

import k3moduli.cli

IMPORTED_AT = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from checks import Checker, lattice_of, result_digest  # noqa: E402
from spans import Tracer, attempts, layer_metrics  # noqa: E402
from speed import factors, kernel_seconds  # noqa: E402


class OutputTally:
    """Figures derived from the outputs: precision, escalation, fallbacks, D0 repeats."""

    def __init__(self) -> None:
        self.precision: dict[int, int] = {}  # query id -> precision_used
        self.attempts = 0.0
        self.escalated = 0
        self.fallbacks = 0
        self.seen_d0: set[int] = set()
        self.d0_repeats = 0

    def add(self, qid: int, argv: list[str], envelope: dict) -> None:
        if argv[0] == "analyze":
            _, (a, b, c) = lattice_of(argv)
            d0 = b * b - 4 * a * c
            self.d0_repeats += d0 in self.seen_d0
            self.seen_d0.add(d0)
        result = envelope.get("result", {})
        if "precision_used" in result:
            h = result["h"] if argv[0] == "analyze" else result["degree"]
            used = self.precision[qid] = result["precision_used"]
            self.attempts += attempts(h, used)
            self.escalated += used > 30 + 10 * h
        self.fallbacks += sum("resolvent fallback" in w for w in envelope.get("warnings", ()))

    def layer_metrics(self) -> dict[str, float]:
        return {
            "moduli.attempts": self.attempts,
            "moduli.escalated_frac": self.escalated / len(self.precision) if self.precision else 0.0,
            "moduli.resolvent_fallbacks": self.fallbacks,
        }


def run(job: dict) -> dict:
    """Run job["queries"] in order, each between two speed-kernel timings.

    Checks run after each query, outside its timed region.
    """
    tracer = Tracer() if job["trace"] else None
    if tracer:
        tracer.install()
        misses_before = tracer.cache_misses()
    checker, tally, cli = Checker(job["golden"]), OutputTally(), k3moduli.cli
    latencies, kernels, failures, stdout_digests, digests = [], [], [], [], {}
    for qid, argv in enumerate(job["queries"]):
        kernels.append(kernel_seconds())
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer:
                tracer.qid = qid
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except (Exception, SystemExit) as exc:
                code = f"raised {exc!r}"
            latencies.append(time.perf_counter() - start)
            if tracer:
                tracer.qid = None
        text = out.getvalue()
        stdout_digests.append(hashlib.sha256(text.encode()).hexdigest())
        if code != 0:
            reason, envelope = f"exit {code}: {err.getvalue().strip()[:200]}", {}
        else:
            reason, envelope = checker.check(argv, text)
        if reason is not None:
            failures.append([qid, " ".join(argv), reason])
        if job.get("record") and "result" in envelope:
            digests[" ".join(argv)] = result_digest(envelope["result"])
        tally.add(qid, argv, envelope)
    kernels.append(kernel_seconds())
    report = {
        "latencies": latencies,
        "kernels": kernels,
        "failures": failures,
        "stdout_digests": stdout_digests,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "d0_repeat_frac": tally.d0_repeats / len(latencies),
        "digests": digests,
    }
    if tracer:
        layers = layer_metrics(tracer.spans, tally.precision, factors(kernels))
        calls = layers["classgroup.class_group.calls"]
        misses = tracer.cache_misses() - misses_before
        layers["classgroup.class_group.misses"] = misses
        layers["classgroup.class_group.hit_frac"] = 1 - misses / calls if calls else 0.0
        layers.update(tally.layer_metrics())
        report["layers"] = layers
        tracer.write(job["spans_path"])
    return report


def main() -> int:
    if sys.argv[1:] == ["--setup-only"]:
        kernels = sorted(kernel_seconds() for _ in range(3))
        print(json.dumps([IMPORTED_AT, kernels[1]]))
        return 0
    print(json.dumps(run(json.load(sys.stdin))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
