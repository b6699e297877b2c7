"""CLI behaviour: the documented invocations, JSON round trips, exit codes."""

import json

import pytest

from superweyl.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_star_documented_example(capsys):
    code, out, _ = run_cli(
        capsys,
        "star",
        "--family",
        "gl:2,1",
        "--weight",
        "0,0|0",
        "--map",
        "example71",
        "--alpha",
        "e1-e2",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["literal"] == "0,1|-1"


def test_star_orbit_q2(capsys):
    code, out, _ = run_cli(
        capsys, "star-orbit", "--family", "q:2", "--weight", "3,-3"
    )
    assert code == 0
    obj = json.loads(out)
    assert len(obj["vertices"]) == 2
    assert obj["truncated"] is False


def test_verify_smallrank_exits_zero(capsys):
    code, out, err = run_cli(capsys, "verify", "smallrank")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_roots_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "roots", "--family", "osp:3,2")
    assert code == 0
    obj = json.loads(out)
    assert obj["family"] == "osp(3|2)"
    assert len(obj["even_positive"]) == 2
    # re-emitting parses to the same structure
    assert json.loads(json.dumps(obj)) == obj


def test_rho_and_track(capsys):
    code, out, _ = run_cli(capsys, "rho", "--family", "gl:2,1")
    assert code == 0
    assert json.loads(out)["rho"] == {"eps": ["0", "-1"], "del": ["1"]}

    code, out, _ = run_cli(
        capsys,
        "track",
        "--family",
        "gl:2,1",
        "--weight",
        "0,0|0",
        "--path",
        "e2-d1;e1-d1",
    )
    assert code == 0
    assert json.loads(out)["literal"] == "0,0|0"


def test_chamber_and_typicality(capsys):
    code, out, _ = run_cli(
        capsys, "chamber", "--family", "gl:2,1", "--weight", "2,2|-2"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["regular"] is True

    code, out, _ = run_cli(
        capsys, "typicality", "--family", "gl:2,1", "--weight", "2,2|-2"
    )
    obj = json.loads(out)
    assert obj["typical"] is False


def test_kl_table(capsys):
    code, out, _ = run_cli(capsys, "kl", "--family", "gl:3,1")
    assert code == 0
    obj = json.loads(out)
    assert obj["order"] == 6
    # every diagonal polynomial is 1
    diag = [p for p in obj["polynomials"] if p["x"] == p["y"]]
    assert all(p["coeffs"] == [1] for p in diag)


def test_prim_poset_small_rank(capsys):
    code, out, _ = run_cli(
        capsys,
        "prim-poset",
        "--family",
        "sl:2,1",
        "--weight",
        "0,0|0",
        "--rule",
        "small-rank",
    )
    assert code == 0
    obj = json.loads(out)
    assert len(obj["nodes"]) == 3
    rules = {e["rule"] for e in obj["edges"]}
    assert rules == {"orbit-inclusion", "bridge-inclusion"}


def test_prim_poset_star_rule(capsys):
    code, out, err = run_cli(
        capsys,
        "prim-poset",
        "--family",
        "gl:2,1",
        "--weight",
        "0,0|0",
        "--rule",
        "star",
        "--maps",
        "dot,example71",
    )
    assert code == 0
    obj = json.loads(out)
    froms = {(tuple(e["from"]["eps"]), tuple(e["from"]["del"])) for e in obj["edges"]}
    assert (("0", "1"), ("-1",)) in froms


def test_prim_poset_generic_rule(capsys):
    code, out, _ = run_cli(
        capsys,
        "prim-poset",
        "--family",
        "q:3",
        "--weight",
        "90,60,20",
        "--rule",
        "generic",
        "--hasse",
    )
    assert code == 0
    obj = json.loads(out)
    # left order of S3 on ideals: 4 classes, chain-of-antichains covers
    assert len(obj["nodes"]) == 4


def test_chars_q_penkov(capsys):
    code, out, _ = run_cli(
        capsys,
        "chars",
        "--family",
        "q:2",
        "--weight",
        "3,1",
        "--op",
        "penkov",
    )
    assert code == 0
    obj = json.loads(out)
    assert len(obj["weights"]) == 2


def test_exit_codes(capsys):
    # parse error
    code, _, err = run_cli(capsys, "roots", "--family", "nope:1,1")
    assert code == 1
    # precondition: odd reflection at a non-simple root
    code, _, err = run_cli(
        capsys,
        "odd-reflect",
        "--family",
        "gl:2,1",
        "--gamma",
        "e1-d1",
    )
    assert code == 2
    # cap exceeded
    code, _, err = run_cli(
        capsys,
        "star-orbit",
        "--family",
        "gl:2,1",
        "--weight",
        "7,2|5",
        "--max-vertices",
        "0",
    )
    assert code == 2  # max-vertices < 1 is a precondition error
    code, _, err = run_cli(capsys, "kl", "--family", "gl:3,2", "--cap", "3")
    assert code == 3


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "nonsense")
    assert code == 2


def test_custom_map_from_file(tmp_path, capsys):
    """An explicit root-to-Borel assignment loaded from JSON acts like
    the built-in example71 map on gl(2|1)."""
    # the delta-before-eps Borel: positive odd roots d1-e1 and d1-e2
    borel_obj = {
        "odd_positive": [
            {"weight": {"eps": ["-1", "0"], "del": ["1"]}, "parity": "odd",
             "isotropic": True},
            {"weight": {"eps": ["0", "-1"], "del": ["1"]}, "parity": "odd",
             "isotropic": True},
        ]
    }
    spec = {"e1-e2": borel_obj}
    path = tmp_path / "map.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(
        capsys,
        "star",
        "--family",
        "gl:2,1",
        "--weight",
        "0,0|0",
        "--map",
        f"@{path}",
        "--alpha",
        "e1-e2",
    )
    assert code == 0
    assert json.loads(out)["literal"] == "0,1|-1"


@pytest.mark.parametrize(
    "content",
    [None, "[1, 2]", "{not json", '{"e1-e2": [1]}'],
    ids=["missing", "list", "bad-json", "bad-borel"],
)
def test_custom_map_file_errors(tmp_path, capsys, content):
    """A map file that cannot be read, is not JSON or is not an object
    ends in exit 1 with one diagnostic line, not a traceback."""
    path = tmp_path / "map.json"
    if content is not None:
        path.write_text(content)
    code, out, err = run_cli(
        capsys,
        "star",
        "--family",
        "gl:2,1",
        "--weight=1,0|0",
        "--alpha",
        "e1-e2",
        "--map",
        f"@{path}",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_generic_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "generic", "--family", "gl:2,1", "--weight", "10,5|0"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["weakly_generic"] is True


def test_generic_subcommand_odd_rank_sixteen(capsys):
    """gl(4|4) has 2^16 odd subset sums; the per-coroot test answers
    without visiting them."""
    code, out, _ = run_cli(
        capsys,
        "generic",
        "--family",
        "gl:4,4",
        "--weight=400,370,340,310|280,250,220,190",
    )
    assert code == 0
    assert json.loads(out)["generic"] is True


def test_dot_export(tmp_path, capsys):
    target = tmp_path / "orbit.dot"
    code, _, _ = run_cli(
        capsys,
        "star-orbit",
        "--family",
        "q:2",
        "--weight",
        "3,-3",
        "--dot",
        str(target),
    )
    assert code == 0
    assert target.read_text().startswith("graph star_orbit {")


def test_verify_reports_a_planted_bug(monkeypatch, capsys):
    """A star action that is not an involution fails the involution
    suite: run_suite says so, and the CLI exits 4."""
    import superweyl.verify as verify

    monkeypatch.setattr(
        verify, "apply_generator", lambda m, alpha, lam: lam + alpha.weight
    )
    ok, msgs = verify.run_suite("involution")
    assert not ok
    assert any("involution broken" in m for m in msgs)
    code, out, err = run_cli(capsys, "verify", "involution")
    assert code == 4
    assert json.loads(out) == {"suite": "involution", "passed": False}
    assert "involution broken" in err
