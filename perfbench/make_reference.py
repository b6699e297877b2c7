"""Record the reference digests the benchmark checks outputs against.

    python3 perfbench/make_reference.py            # all workloads
    python3 perfbench/make_reference.py weight-scan

Run from the root of a checkout whose outputs are known to be right.
Each workload is run once per default seed (kl-tables once: its outputs
do not depend on the seed), every request must pass the benchmark's own
checks, and the digests of (outcome, output) are written to
perfbench/reference/<workload>.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import checks
import run
import workloads

DEFAULT_SEEDS = range(11)


def record(workload: str) -> dict:
    seeds = [0] if workload == "kl-tables" else DEFAULT_SEEDS
    out = {}
    for seed in seeds:
        requests = workloads.generate(workload, seed)
        job = {"workload": workload, "seed": seed, "requests": requests, "spans_path": None}
        _, result, error = run.run_pass(Path.cwd(), job, timeout=run.RUN_BUDGET_S)
        verdicts = run.judge(workload, requests, None, result, error)
        bad = [(req["id"], why) for req, (ok, why) in zip(requests, verdicts) if not ok]
        if bad:
            raise SystemExit(f"{workload} seed {seed}: {len(bad)} requests fail their checks, first {bad[0]}")
        digests = [rec["digest"] for rec in result["records"]]
        if workload == "kl-tables":
            return {req["family"]: d for req, d in zip(requests, digests)}
        out[str(seed)] = checks.pack_scan_reference(digests) if workload == "weight-scan" else digests
        print(f"{workload} seed {seed}: {len(digests)} digests", file=sys.stderr)
    return out


def main(argv: list[str]) -> int:
    names = argv or list(workloads.WORKLOADS)
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        data = record(name)
        checks.reference_path(name).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
