"""Root datum construction, the bilinear form, and coroots."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from superweyl.borel import distinguished_borel
from superweyl.rootdata import (
    EVEN,
    ODD,
    CapExceeded,
    Family,
    FamilyError,
    build_root_system,
    coroot,
    family,
    form,
    weight,
    weight_from_json,
    weight_to_json,
)


def rs(kind, m, n=0):
    return build_root_system(Family(kind, m, n))


def test_family_parsing():
    assert family("gl:2,1") == Family("gl", 2, 1)
    assert family("osp:3,2") == Family("osp", 3, 1)  # osp(3|2): one delta
    assert family("osp:3,4") == Family("osp", 3, 2)
    assert str(Family("osp", 3, 1)) == "osp(3|2)"
    assert family("q:3") == Family("q", 3)
    with pytest.raises(FamilyError):
        family("sl:2,2")
    with pytest.raises(FamilyError):
        family("osp:3,0")
    with pytest.raises(FamilyError):
        family("osp:3,3")
    with pytest.raises(FamilyError):
        family("e8:8,0")


def test_osp12_positive_roots():
    system = rs("osp", 1, 1)
    ev = [r.weight for r in system.even_positive]
    assert ev == [weight([], [2])]
    odd_pos = [r for r in system.roots if r.parity == ODD and r.weight.dels[0] > 0]
    assert [r.weight for r in odd_pos] == [weight([], [1])]
    assert not odd_pos[0].isotropic


def test_q2_roots_doubled_parity():
    system = rs("q", 2)
    vecs = sorted(r.weight.eps for r in system.roots)
    assert vecs == sorted(
        [(Fraction(1), Fraction(-1))] * 2 + [(Fraction(-1), Fraction(1))] * 2
    )
    parities = {r.parity for r in system.roots}
    assert parities == {EVEN, ODD}
    assert all(not r.isotropic for r in system.roots)


def test_gl21_odd_positive_roots():
    system = rs("gl", 2, 1)
    odd = [r for r in system.roots if r.parity == ODD]
    assert len(odd) == 4  # 2mn with m=2, n=1
    pos = sorted(
        (r.weight for r in odd if sum(r.weight.eps) > 0),
        key=lambda w: w.sort_key(),
    )
    assert pos == [weight([0, 1], [-1]), weight([1, 0], [-1])]
    assert all(r.isotropic for r in odd)


def test_form_convention():
    assert form(weight([1, 0], [-1]), weight([1, 0], [-1])) == 0
    assert form(weight([], [2]), weight([], [2])) == -4
    assert form(weight([1, -1], []), weight([1, -1], [])) == 2


def test_coroot_values():
    system = rs("gl", 2, 1)
    a = system.find_root(weight([1, -1], [0]), EVEN)
    assert coroot(a) == weight([1, -1], [0])

    system = rs("osp", 3, 2)
    two_delta = system.find_root(weight([0], [2, 0]), EVEN)
    assert coroot(two_delta) == weight([0], [-1, 0])
    eps1 = system.find_root(weight([1], [0, 0]), EVEN)
    assert coroot(eps1) == weight([2], [0, 0])


def test_coroot_rejects_isotropic_and_odd():
    system = rs("gl", 2, 1)
    iso = system.find_root(weight([1, 0], [-1]), ODD)
    with pytest.raises(ValueError):
        coroot(iso)


@pytest.mark.parametrize("kind,m,n", [("gl", 2, 1), ("gl", 3, 2), ("sl", 2, 1),
                                      ("osp", 3, 2), ("osp", 4, 2), ("q", 3, 0)])
def test_negation_involution_and_even_count(kind, m, n):
    system = rs(kind, m, n)
    roots = set(system.roots)
    assert len(roots) % 2 == 0
    for r in roots:
        assert -r in roots
        assert -(-r) == r


def test_root_counts():
    gl = rs("gl", 3, 2)
    assert sum(1 for r in gl.roots if r.parity == ODD) == 2 * 3 * 2
    q = rs("q", 4)
    n = 4
    assert sum(1 for r in q.even_positive) == n * (n - 1) // 2
    odd_pos = sum(
        1
        for r in q.roots
        if r.parity == ODD and r.weight.eps[0] >= 0 and sum(r.weight.eps) == 0
        and next(a for a in r.weight.eps if a != 0) > 0
    )
    assert odd_pos == n * (n - 1) // 2


def test_coroot_pairing_is_two(any_family):
    system = build_root_system(any_family)
    for r in system.even_roots:
        assert form(coroot(r), r.weight) == 2


def test_sl_trace_check():
    system = rs("sl", 2, 1)
    system.check_weight(weight([0, 1], [-1]))
    with pytest.raises(ValueError):
        system.check_weight(weight([1, 0], [1]))


def test_floats_rejected():
    with pytest.raises(TypeError):
        weight([0.5, 0], [0])


def test_weight_json_roundtrip():
    w = weight([Fraction(1, 2), -3], [Fraction(5, 3)])
    obj = weight_to_json(w)
    assert obj == {"eps": ["1/2", "-3"], "del": ["5/3"]}
    assert weight_from_json(obj) == w


# --- memoised hashes ---------------------------------------------------------

def _hashed_values():
    system = rs("osp", 3, 1)
    b = distinguished_borel(system)
    return [weight([1, "1/2"], [-3]), system.roots[-1], system, b]


def _field_hash(obj):
    return hash(tuple(getattr(obj, f.name) for f in dataclasses.fields(obj)))


@pytest.mark.parametrize("idx", range(4), ids=["Weight", "Root", "RootSystem", "BorelSystem"])
def test_cached_hash_is_the_field_hash(idx):
    obj = _hashed_values()[idx]
    fresh_repr = repr(obj)
    assert hash(obj) == _field_hash(obj)
    assert "_hash" in obj.__dict__
    assert repr(obj) == fresh_repr and "_hash" not in repr(obj)
    twin = dataclasses.replace(obj)
    assert "_hash" not in twin.__dict__
    assert twin == obj and hash(twin) == hash(obj)
    dup = copy.copy(obj)
    assert "_hash" not in dup.__dict__
    assert dup == obj and hash(dup) == _field_hash(dup)


def test_cached_hash_survives_pickle_under_another_hash_seed():
    system = rs("osp", 3, 1)
    b = distinguished_borel(system)
    for obj in (*system.roots, system, b):
        hash(obj)
    blob = pickle.dumps((system, b))
    child = r"""
import pickle, sys
from superweyl.rootdata import build_root_system, Family
from superweyl.borel import distinguished_borel
system, b = pickle.loads(sys.stdin.buffer.read())
fresh = build_root_system(Family("osp", 3, 1))
assert all(r in set(fresh.roots) for r in system.roots)
assert hash(system) == hash(fresh)
assert {distinguished_borel(fresh): "found"}[b] == "found"
"""
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONHASHSEED=seed)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", child], input=blob, env=env, capture_output=True
    )
    assert out.returncode == 0, out.stderr.decode()


def _group_cap():
    from superweyl.weyl import CoxeterGroup

    system = rs("gl", 4, 1)
    CoxeterGroup(system, system.simple_even, cap=5)


def _kl_table_cap():
    from superweyl.kl import KLTable
    from superweyl.weyl import weyl_group

    KLTable(weyl_group(rs("gl", 3, 1)), cap=3)


def _borel_cap():
    from superweyl.borel import enumerate_borels

    enumerate_borels(rs("gl", 2, 1), cap=1)


def _gamma_tilde_cap():
    from superweyl.oracles import gamma_tilde

    gamma_tilde(distinguished_borel(rs("gl", 3, 2)), 4)


def _verma_cap():
    from superweyl.chars import verma_restriction_weights

    b = distinguished_borel(rs("gl", 3, 2))
    verma_restriction_weights(weight([1, 0, 0], [0, 0]), b, cap=2)


def _penkov_cap():
    from superweyl.chars import penkov_decomposition_q

    penkov_decomposition_q(weight([90, 60, 20]), rs("q", 3), cap=1)


@pytest.mark.parametrize(
    "hit_cap",
    [_group_cap, _kl_table_cap, _borel_cap, _gamma_tilde_cap, _verma_cap, _penkov_cap],
    ids=lambda f: f.__name__.strip("_"),
)
def test_every_cap_raises_cap_exceeded(hit_cap):
    """Every enumeration cap raises the one class that the CLI maps to
    exit code 3."""
    with pytest.raises(CapExceeded):
        hit_cap()
