"""superweyl benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload kl-tables --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; the library is imported from ./src.
Each pass starts a fresh single-threaded worker (worker.py), so caches
start cold, and sends it the workload's request list as a closed loop
with one client.  With --trace 0 passes repeat until --seconds is used
up and the end-to-end metrics are medians over passes.  With --trace 1
the run makes one untraced and one traced pass and reports the
per-layer metrics of BENCHMARK.json.  The last line of stdout is the
JSON result; per-request logs and spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"
SETUP_PROBES = 7
# At least two passes, so no end-to-end metric rests on a single pass even
# when a pass takes more than half of --seconds.
MIN_PASSES = 2
# Every run must end within 180 s; leave room for the checks.
RUN_BUDGET_S = 165.0


class WorkerFailed(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    # Fixed string hashing, so set iteration order (and with it timing
    # and the reference digests) is the same in every worker.
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(root: Path):
    """Start a worker; return it and the time until it reported ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), str(root)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=_worker_env(),
    )
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise WorkerFailed(f"worker did not start (exit {proc.returncode})")
    return proc, setup_s


def probe(root: Path) -> float:
    proc, setup_s = _spawn(root)
    proc.communicate("", timeout=30)
    return setup_s


def run_pass(root: Path, job: dict, timeout: float) -> tuple[float, dict | None, str | None]:
    """(setup time, worker result or None, error) of one pass."""
    proc, setup_s = _spawn(root)
    try:
        out, _ = proc.communicate(json.dumps(job), timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return setup_s, None, f"pass exceeded {timeout:.0f} s"
    if proc.returncode != 0 or not out.strip():
        return setup_s, None, f"worker exited with {proc.returncode}"
    return setup_s, json.loads(out.strip().splitlines()[-1]), None


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 1])."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _command(req: dict) -> str:
    if "argv" in req:
        return " ".join(req["argv"])
    return f"{req['query']} {req['weight']}"


def judge(workload: str, requests: list[dict], reference, result: dict | None, error: str | None):
    """Per-request (ok, why) pairs for one pass."""
    if result is None:
        return [(False, error)] * len(requests)
    verdicts = []
    for req, rec in zip(requests, result["records"]):
        why = rec["why"]
        if why is None and checks.reference_matches(workload, reference, req, rec["digest"]) is False:
            why = "output differs from the reference digest"
        verdicts.append((why is None, why))
    return verdicts


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    root = Path.cwd()
    start = time.monotonic()
    requests = workloads.generate(workload, seed, size)
    reference = checks.load_reference(workload, seed) if size == "full" else None
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload}.seed{seed}.trace{int(trace)}"

    setups = [probe(root) for _ in range(SETUP_PROBES)]
    job = {"workload": workload, "seed": seed, "requests": requests}
    passes = []  # (traced, result, error, verdicts)

    def one_pass(traced: bool) -> float:
        spans_path = str(OUT_DIR / f"{stem}.spans.txt") if traced else None
        t0 = time.monotonic()
        timeout = max(10.0, RUN_BUDGET_S - (t0 - start))
        setup_s, result, error = run_pass(root, dict(job, spans_path=spans_path), timeout)
        setups.append(setup_s)
        passes.append((traced, result, error, judge(workload, requests, reference, result, error)))
        return time.monotonic() - t0

    if trace:
        one_pass(False)
        one_pass(True)
    else:
        measure_start = time.monotonic()
        while True:
            took = one_pass(False)
            now = time.monotonic()
            if now - start + took > RUN_BUDGET_S:
                break
            if len(passes) >= MIN_PASSES and now - measure_start + took > seconds:
                break

    attempted = failed = 0
    with open(OUT_DIR / f"{stem}.requests.jsonl", "w") as log:
        for k, (traced, result, error, verdicts) in enumerate(passes):
            records = result["records"] if result else [None] * len(requests)
            for req, rec, (ok, why) in zip(requests, records, verdicts):
                attempted += 1
                failed += not ok
                log.write(json.dumps({
                    "workload": workload,
                    "seed": seed,
                    "pass": k,
                    "traced": traced,
                    "request": req["id"],
                    "family": req["family"],
                    "command": _command(req),
                    "latency_ms": rec["latency_s"] * 1e3 if rec else None,
                    "outcome": rec["outcome"] if rec else "no result",
                    "ok": ok,
                    "why": why,
                }) + "\n")

    untraced = [r for t, r, _, _ in passes if not t and r is not None]
    walls = [sum(rec["latency_s"] for rec in r["records"]) for r in untraced]
    metrics: dict[str, float] = {}
    if untraced:
        lat_ms = [[rec["latency_s"] * 1e3 for rec in r["records"]] for r in untraced]
        metrics.update({
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "req_p50_ms": statistics.median(percentile(x, 0.50) for x in lat_ms),
            "req_p99_ms": statistics.median(percentile(x, 0.99) for x in lat_ms),
            "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024 for r in untraced),
        })
    traced_results = [r for t, r, _, _ in passes if t and r is not None]
    if traced_results and walls:
        r = traced_results[0]
        metrics.update(r["layers"])
        metrics["cli.json_bytes"] = (
            sum(rec["bytes"] for rec in r["records"]) if workload != "weight-scan" else 0
        )
        metrics["trace.overhead_s"] = sum(rec["latency_s"] for rec in r["records"]) - statistics.median(walls)
    return {
        "attempted": attempted,
        "failed": failed,
        "passes": len(passes),
        "metrics": metrics,
    }


def _declared(group: str) -> list[dict]:
    return json.loads((Path.cwd() / "BENCHMARK.json").read_text())[group]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (Path.cwd() / "src" / "superweyl" / "cli.py").is_file():
        print("error: run from the root of a superweyl checkout (no src/superweyl here)", file=sys.stderr)
        return 2
    try:
        out = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    declared = _declared("per_layer" if args.trace else "end_to_end")
    missing = [m["name"] for m in declared if m["name"] not in out["metrics"]]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 3
    print(
        f"{args.workload} seed {args.seed}: {out['passes']} passes, "
        f"failed_frac {out['failed'] / out['attempted']:.4f} ({out['failed']}/{out['attempted']})",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": out["metrics"][m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
