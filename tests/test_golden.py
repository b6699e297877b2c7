"""Golden CLI corpus: every README example plus the edge cases of each
CLI path, replayed byte for byte.

tests/golden/cases.json lists each case's name, argv and exit code;
<name>.out and <name>.err hold its stdout and stderr, and <name>.dot the
Graphviz file of a case that passes --dot {dot}.  The corpus is replayed
in process, and again in a subprocess under `python -O` with
PYTHONHASHSEED=1, so output can depend neither on `assert` statements
nor on the string-hash seed.

Regenerate the corpus (only for an intended output change) with

    PYTHONPATH=src python tests/test_golden.py --regen
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = GOLDEN.parent.parent / "src"
# argparse wraps its usage lines at the terminal width.
COLUMNS = "80"


def load_cases() -> list[dict]:
    return json.loads((GOLDEN / "cases.json").read_text())


def replay(cases: list[dict], tmpdir: str) -> list[dict]:
    """Run each case through superweyl.cli.main in this process."""
    from superweyl.cli import main

    results = []
    for case in cases:
        dot = os.path.join(tmpdir, f"{case['name']}.dot")
        argv = [a.replace("{dot}", dot) for a in case["argv"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        result = {"exit": code, "out": out.getvalue(), "err": err.getvalue()}
        if os.path.exists(dot):
            with open(dot) as fh:
                result["dot"] = fh.read()
        results.append(result)
    return results


def expected(case: dict) -> dict:
    want = {"exit": case["exit"]}
    for kind in ("out", "err", "dot"):
        path = GOLDEN / f"{case['name']}.{kind}"
        if path.exists():
            want[kind] = path.read_text()
    return want


def regenerate() -> None:
    cases = load_cases()
    with tempfile.TemporaryDirectory() as tmp:
        results = replay(cases, tmp)
    for case, got in zip(cases, results):
        case["exit"] = got["exit"]
        for kind in ("out", "err", "dot"):
            path = GOLDEN / f"{case['name']}.{kind}"
            if kind in got:
                path.write_text(got[kind])
            elif path.exists():
                path.unlink()
    (GOLDEN / "cases.json").write_text(json.dumps(cases, indent=1) + "\n")


def test_golden_corpus_in_process(monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    cases = load_cases()
    for case, got in zip(cases, replay(cases, str(tmp_path))):
        assert got == expected(case), case["name"]


def test_golden_corpus_optimised_other_hash_seed(tmp_path):
    env = dict(os.environ, PYTHONHASHSEED="1", COLUMNS=COLUMNS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-O", __file__, "--replay", str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    cases = load_cases()
    assert len(results) == len(cases)
    for case, got in zip(cases, results):
        assert got == expected(case), case["name"]


if __name__ == "__main__":
    if sys.argv[1:] == ["--regen"]:
        os.environ["COLUMNS"] = COLUMNS
        regenerate()
    elif sys.argv[1:2] == ["--replay"]:
        print(json.dumps(replay(load_cases(), sys.argv[2])))
    else:
        sys.exit("usage: test_golden.py --regen | --replay TMPDIR")
