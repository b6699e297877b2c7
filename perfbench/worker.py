"""Benchmark worker: one fresh, single-threaded process per pass.

Usage (started by run.py, not by hand):  python3 worker.py CHECKOUT_ROOT

The worker imports `superweyl` from CHECKOUT_ROOT/src, prints `ready` on
stdout and reads one JSON job from stdin.  An empty stdin makes it exit
at once, which is how run.py measures set-up time.  For a job it sends
the requests one at a time as a closed loop (the next request starts
only after the last one returned), checks each output outside the timed
region, and writes one JSON result to stdout.  The benchmark's own
modules are imported only after `ready`, so set-up time is the library's.
"""

from __future__ import annotations

import contextlib
import json
import random
import resource
import sys
import time
from pathlib import Path


def _bootstrap(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import superweyl.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"superweyl imported from {cli.__file__}, not from {src}")
    return cli


class _Sink:
    """Captured stdout/stderr of one CLI call: no copy, no encoding."""

    def __init__(self):
        self.parts: list[str] = []
        self.size = 0

    def write(self, s: str) -> int:
        self.parts.append(s)
        self.size += len(s)
        return len(s)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.parts)


def _oracle(name: str, default_owner):
    """A cross-check oracle, from `superweyl.oracles` once it lives there."""
    try:
        import superweyl.oracles as oracles
    except ImportError:
        return getattr(default_owner, name)
    return getattr(oracles, name, None) or getattr(default_owner, name)


# --- CLI workloads ----------------------------------------------------------

class CliRunner:
    """kl-tables and generic-posets: `superweyl.cli.main` in-process."""

    def __init__(self, cli, workload: str, seed: int):
        self.cli = cli
        self.workload = workload
        self.rng = random.Random(f"check:{workload}:{seed}")
        self.kl_samples: list[tuple[dict, list]] = []

    def prepare(self, req: dict):
        return req["argv"]

    def execute(self, argv):
        out, err = _Sink(), _Sink()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(list(argv))
        return rc, out

    def canonical(self, req: dict, raw) -> tuple[str, str, int, str | None]:
        """(outcome, text, bytes, why-failed) of one request."""
        from checks import kl_order, left_cell_count, poset_nodes, sample_kl_entries, weyl_order

        rc, out = raw
        text = out.text()
        outcome = f"exit {rc}"
        if rc != 0:
            return outcome, text, out.size, f"exit code {rc}"
        fam = req["family"]
        why = None
        if self.workload == "kl-tables":
            if kl_order(text) != weyl_order(fam):
                why = f"order {kl_order(text)} != |W| = {weyl_order(fam)}"
            self.kl_samples.append((req, sample_kl_entries(text, self.rng, 3)))
        else:
            nodes = poset_nodes(text)
            if "--hasse" in req["argv"]:
                weight = next(a.split("=", 1)[1] for a in req["argv"] if a.startswith("--weight="))
                cells = left_cell_count(fam, weight)
                if cells is not None and nodes != cells:
                    why = f"{nodes} equality classes != {cells} left cells"
            elif nodes != weyl_order(fam):
                why = f"{nodes} nodes != |W| = {weyl_order(fam)}"
        return outcome, text, out.size, why

    def cross_check(self) -> dict[int, str]:
        """KL polynomials sampled from the output against the R-inversion
        route, on a freshly built group and table."""
        from superweyl import kl, rootdata, weyl

        via_r = _oracle("kl_polynomial_via_r", kl.KLTable)
        bad = {}
        for req, samples in self.kl_samples:
            system = rootdata.build_root_system(rootdata.family(req["family"]))
            group = weyl.CoxeterGroup(system, system.simple_even)
            table = kl.KLTable(group)
            for xw, yw, coeffs in samples:
                p = via_r(table, group.from_word(xw), group.from_word(yw))
                if list(p.coeffs) != coeffs:
                    bad[req["id"]] = f"P({xw},{yw}) = {coeffs} emitted, {list(p.coeffs)} by R-inversion"
        return bad


# --- weight-scan --------------------------------------------------------------

class ScanRunner:
    """weight-scan: library calls on seeded weights, one query each.

    Library names are looked up through their modules at call time, so
    the traced run sees the tracer's wrappers.
    """

    ORACLE_SAMPLES = 6

    def __init__(self, workload: str, seed: int):
        from superweyl import borel, chars, generic, primposet, rootdata, star, typicality, weyl

        self.m = dict(borel=borel, chars=chars, generic=generic, primposet=primposet,
                      rootdata=rootdata, star=star, typicality=typicality, weyl=weyl)
        self.maps: dict[str, object] = {}
        self.rng = random.Random(f"check:{workload}:{seed}")
        self.generic_answers: list[tuple[dict, bool]] = []

    def prepare(self, req: dict):
        rootdata = self.m["rootdata"]
        eps_txt, _, del_txt = req["weight"].partition("|")
        lam = rootdata.weight([t for t in eps_txt.split(",") if t], [t for t in del_txt.split(",") if t])
        return req["family"], rootdata.family(req["family"]), req["query"], lam, _orbit_cap(req["family"])

    def _star_map(self, spec, system, b):
        """The family's default star action, built on first use and kept."""
        m = self.maps.get(spec)
        if m is None:
            star = self.m["star"]
            kind = system.family.kind
            if kind == "q":
                m = system
            elif kind == "osp":
                m = star.osp_star_map(system, "star_prime")
            else:
                m = star.trivial_star_map(b)
            self.maps[spec] = m
        return m

    def execute(self, prepared):
        spec, fam, query, lam, cap = prepared
        m = self.m
        system = m["rootdata"].build_root_system(fam)
        b = m["borel"].distinguished_borel(system)
        try:
            if query == "atypicality":
                return "ok", m["typicality"].atypicality(lam, b)
            if query == "genericity":
                return "ok", (m["generic"].is_weakly_generic(lam, b), m["generic"].is_generic(lam, b))
            if query == "orbit-maximal":
                return "ok", m["generic"].is_orbit_maximal(lam, b)
            if query == "star-orbit":
                return "ok", m["star"].star_orbit(self._star_map(spec, system, b), lam, cap)
            if query == "inclusion":
                smap = self._star_map(spec, system, b)
                orbit = m["star"].star_orbit(smap, lam, cap)
                return "ok", m["primposet"].star_inclusion_edges([smap], list(orbit.vertices))
            if query == "chars":
                if fam.kind == "q":
                    return "ok", m["chars"].penkov_decomposition_q(lam, system)
                return "ok", m["chars"].verma_restriction_weights(lam, b)
        except ValueError:
            # a violated precondition is an expected answer
            return "ValueError", None
        raise ValueError(f"unknown query {query!r}")

    def canonical(self, req: dict, raw) -> tuple[str, str, int, str | None]:
        outcome, value = raw
        query = req["query"]
        if outcome != "ok":
            obj = None
        elif query == "genericity":
            obj = list(value)
            self.generic_answers.append((req, value[0]))
        elif query == "inclusion":
            graph, skipped = value
            obj = {"graph": graph.to_json(), "skipped": [[str(w), str(a), why] for w, a, why in skipped]}
        elif query == "chars" and hasattr(value, "multiplicity_symbol"):
            obj = {"weights": value.weights.to_json(), "symbol": value.multiplicity_symbol}
        elif hasattr(value, "to_json"):
            obj = value.to_json()
        else:
            obj = value
        text = json.dumps(obj, sort_keys=True)
        return outcome, text, len(text), None

    def cross_check(self) -> dict[int, str]:
        """A sample of weak-genericity answers against the literal
        enumeration of lambda + GammaTilde."""
        generic = self.m["generic"]
        enumerated = _oracle("is_weakly_generic_enumerated", generic)
        sample = self.rng.sample(self.generic_answers, min(self.ORACLE_SAMPLES, len(self.generic_answers)))
        bad = {}
        for req, answer in sample:
            _, fam, _, lam, _ = self.prepare(req)
            b = self.m["borel"].distinguished_borel(self.m["rootdata"].build_root_system(fam))
            if enumerated(lam, b) != answer:
                bad[req["id"]] = f"is_weakly_generic = {answer} disagrees with enumeration"
        return bad


def _orbit_cap(spec: str) -> int:
    """Four times the Weyl group order, the cap `prim-poset --rule star` uses."""
    from checks import weyl_order

    return 4 * weyl_order(spec)


# --- main loop ------------------------------------------------------------------

def run_job(cli, job: dict) -> dict:
    from checks import digest

    workload = job["workload"]
    if workload == "weight-scan":
        runner = ScanRunner(workload, job["seed"])
    else:
        runner = CliRunner(cli, workload, job["seed"])
    requests = job["requests"]
    prepared = [runner.prepare(r) for r in requests]
    tracer = None
    if job.get("spans_path"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    perf = time.perf_counter
    records = []
    for req, item in zip(requests, prepared):
        if tracer is not None:
            tracer.request_id = req["id"]
        t0 = perf()
        try:
            raw = runner.execute(item)
            error = None
        except Exception as exc:  # an escaping exception fails the request
            raw, error = None, f"{type(exc).__name__}: {exc}"
        latency = perf() - t0
        if tracer is not None:
            tracer.set_active(False)
        if error is None:
            outcome, text, size, why = runner.canonical(req, raw)
        else:
            outcome, text, size, why = "exception", "", 0, error
        if tracer is not None:
            tracer.set_active(True)
        records.append({
            "id": req["id"],
            "latency_s": latency,
            "outcome": outcome,
            "digest": digest(outcome, text),
            "bytes": size,
            "why": why,
        })
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    layers = None
    if tracer is not None:
        tracer.set_active(False)
        layers = tracer.summary()
        tracer.write_spans(job["spans_path"])
    for rid, why in runner.cross_check().items():
        rec = records[rid]
        rec["why"] = rec["why"] or why
    return {"records": records, "peak_rss_kb": peak_rss_kb, "layers": layers}


def main() -> int:
    root = Path(sys.argv[1])
    out = sys.stdout
    cli = _bootstrap(root)
    out.write("ready\n")
    out.flush()
    text = sys.stdin.read()
    if not text.strip():
        return 0
    result = run_job(cli, json.loads(text))
    out.write(json.dumps(result) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
