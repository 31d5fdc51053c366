"""Record finished runs as the baseline that later runs compare against.

    python3 bench/record_baseline.py

Reads every untraced full-size result in ``.bench_out/`` and writes, per
workload and seed, each op's output fingerprint, the fail ratio, the
known-defect row count and the end-to-end metrics to ``bench/baseline.json``.
``run.py`` flags an op whose fingerprint differs from the one recorded
for the same workload and seed.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
OUT = BENCH.parent / ".bench_out"
RESULT = re.compile(r"result-(?P<workload>\w+)-seed(?P<seed>-?\d+)-trace0\.json")


def main() -> int:
    baseline: dict = {}
    for path in sorted(OUT.glob("result-*-trace0.json")):
        m = RESULT.fullmatch(path.name)
        if m is None:
            continue
        run = json.loads(path.read_text())
        baseline.setdefault(m["workload"], {})[m["seed"]] = {
            "git_sha": run["provenance"]["git_sha"],
            "fail_ratio": run["fail_ratio"],
            "known_defect_rows": run["known_defect_rows"],
            "metrics": {k: v["value"] for k, v in run["result"]["metrics"].items()},
            "fingerprints": run["fingerprints"],
        }
    if not baseline:
        print(f"no untraced results in {OUT}", file=sys.stderr)
        return 1
    (BENCH / "baseline.json").write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    print(f"recorded {sum(len(r) for r in baseline.values())} runs in bench/baseline.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
