"""Self-test of the benchmark: a tiny run of every workload, untraced and
traced, must pass all its checks and report every declared metric.

    python3 perfbench/selftest.py

Takes about 20 s.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import run
import workloads


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    os.chdir(root)
    declared = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            out = run.run_benchmark(workload, seed=0, seconds=1, trace=trace, size="tiny")
            label = f"{workload} trace={int(trace)}"
            missing = [m["name"] for m in declared[group] if m["name"] not in out["metrics"]]
            print(f"{label}: failed_frac {out['failed']}/{out['attempted']}, "
                  f"{len(declared[group]) - len(missing)}/{len(declared[group])} metrics")
            if out["attempted"] < 1 or out["failed"] != 0:
                problems.append(f"{label}: failed_frac {out['failed']}/{out['attempted']}")
            if missing:
                problems.append(f"{label}: no value for {', '.join(missing)}")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
