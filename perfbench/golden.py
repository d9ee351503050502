"""Write golden.json: digests of the results of the default seed's first round.

    python3 perfbench/golden.py

Each digest is the sha256 of a query's canonical JSON result without
precision_used (see checks.result_digest).  The runs check every output
against these digests, keyed by argv, on top of the exact checks.  Digests are
recorded only when every output passes the exact checks.
"""

from __future__ import annotations

import json
import sys
import time

from run import DEFAULT_SEED, HERE, RUN_DEADLINE_S, Runner
from workloads import WORKLOADS, queries

GOLDEN_ROUNDS = 1


def main() -> int:
    digests: dict[str, str] = {}
    for name in WORKLOADS:
        work = queries(name, DEFAULT_SEED, GOLDEN_ROUNDS)
        runner = Runner(time.perf_counter() + RUN_DEADLINE_S)
        report = runner.job(queries=work, trace=False, golden={}, record=True)
        if report["failures"]:
            print(f"error: {name}: {report['failures'][:5]}", file=sys.stderr)
            return 1
        digests.update(report["digests"])
        print(f"{name}: {len(work)} queries recorded")
    body = {"seed": DEFAULT_SEED, "rounds": GOLDEN_ROUNDS, "digests": digests}
    (HERE / "golden.json").write_text(json.dumps(body, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
