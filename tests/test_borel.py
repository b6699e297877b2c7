"""Borel systems, rho triples, odd reflections and weight transport."""

import random

import pytest
from fractions import Fraction

from superweyl.rootdata import (
    EVEN,
    ODD,
    Family,
    build_root_system,
    weight,
)
from superweyl.borel import (
    BorelSystem,
    OddReflectionError,
    distinguished_borel,
    enumerate_borels,
    odd_reflection,
    odd_reflection_path,
    path_rhos,
    reverse_path,
    track_highest_weight,
)
from superweyl.oracles import track_highest_weight_cumulative
from superweyl.typicality import atypicality

from conftest import random_weight


def dist(kind, m, n=0):
    system = build_root_system(Family(kind, m, n))
    return system, distinguished_borel(system)


def test_distinguished_gl21_simples():
    system, b = dist("gl", 2, 1)
    simples = {str(r.weight) for r in b.simple}
    assert simples == {"1,-1|0", "0,1|-1"}  # e1-e2 and e2-d1


def test_distinguished_osp32_simples():
    system, b = dist("osp", 3, 2)
    got = {(r.weight, r.parity) for r in b.simple}
    want = {
        (weight([0], [1, -1]), EVEN),   # d1-d2
        (weight([-1], [0, 1]), ODD),    # d2-e1
        (weight([1], [0, 0]), EVEN),    # e1
    }
    assert got == want


def test_distinguished_osp32_rank_one_simples():
    # osp(3|2): one delta, so the listing degenerates to d1-e1, e1
    system, b = dist("osp", 3, 1)
    got = {(r.weight, r.parity) for r in b.simple}
    want = {
        (weight([-1], [1]), ODD),   # d1-e1
        (weight([1], [0]), EVEN),   # e1
    }
    assert got == want


def test_odd_reflection_osp32_rank_one():
    # flipping d1-e1 makes the positive odd roots {e1-d1, d1, d1+e1}
    system, b = dist("osp", 3, 1)
    gamma = system.find_root(weight([-1], [1]), ODD)
    nb = odd_reflection(b, gamma)
    got = {r.weight for r in nb.odd_positive}
    assert got == {weight([1], [-1]), weight([0], [1]), weight([1], [1])}


def test_distinguished_osp42_simples():
    system, b = dist("osp", 4, 2)
    got = {r.weight for r in b.simple}
    want = {
        weight([0, 0], [1, -1]),   # d1-d2
        weight([-1, 0], [0, 1]),   # d2-e1
        weight([1, -1], [0, 0]),   # e1-e2
        weight([1, 1], [0, 0]),    # e1+e2
    }
    assert got == want


def test_distinguished_osp22_simples():
    # m=2 degenerates the tail to d_n - e_1, d_n + e_1
    system, b = dist("osp", 2, 2)
    got = {r.weight for r in b.simple}
    want = {
        weight([0], [1, -1]),
        weight([-1], [0, 1]),
        weight([1], [0, 1]),
    }
    assert got == want


def test_distinguished_osp12n_simples():
    system, b = dist("osp", 1, 2)
    got = {(r.weight, r.parity) for r in b.simple}
    want = {
        (weight([], [1, -1]), EVEN),
        (weight([], [0, 1]), ODD),  # d2, non-isotropic
    }
    assert got == want


def test_q3_simples():
    system, b = dist("q", 3)
    vecs = {r.weight for r in b.simple}
    assert vecs == {weight([1, -1, 0]), weight([0, 1, -1])}
    # both parities present
    assert {r.parity for r in b.simple} == {EVEN, ODD}


def test_rho_gl21():
    _, b = dist("gl", 2, 1)
    t = b.rho_triple
    assert t.rho0 == weight([Fraction(1, 2), Fraction(-1, 2)], [0])
    assert t.rho1 == weight([Fraction(1, 2), Fraction(1, 2)], [-1])
    assert t.rho == weight([0, -1], [1])


def test_rho_osp12():
    _, b = dist("osp", 1, 1)
    t = b.rho_triple
    assert t.rho0 == weight([], [1])
    assert t.rho1 == weight([], [Fraction(1, 2)])
    assert t.rho == weight([], [Fraction(1, 2)])


def test_rho_q_vanishes():
    _, b = dist("q", 4)
    assert b.rho.is_zero


def test_odd_reflection_gl21():
    system, b = dist("gl", 2, 1)
    gamma = system.find_root(weight([0, 1], [-1]), ODD)
    nb = odd_reflection(b, gamma)
    # simples of the flipped system: {e1-d1, d1-e2}
    got = {r.weight for r in nb.simple}
    assert got == {weight([1, 0], [-1]), weight([0, -1], [1])}


def test_odd_reflection_is_involution():
    system, b = dist("gl", 3, 2)
    gamma = min(b.simple_isotropic, key=lambda r: r.sort_key())
    nb = odd_reflection(b, gamma)
    back = odd_reflection(nb, -gamma)
    assert back == b


def test_odd_reflection_osp32():
    system, b = dist("osp", 3, 2)
    gamma = system.find_root(weight([-1], [0, 1]), ODD)  # d2-e1
    nb = odd_reflection(b, gamma)
    want_flipped = system.find_root(weight([1], [0, -1]), ODD)  # e1-d2
    assert want_flipped in nb.odd_positive
    assert gamma not in nb.odd_positive


def test_odd_reflection_rejects_bad_input():
    system, b = dist("gl", 2, 1)
    not_simple = system.find_root(weight([1, 0], [-1]), ODD)
    with pytest.raises(OddReflectionError):
        odd_reflection(b, not_simple)
    even_simple = system.find_root(weight([1, -1], [0]), EVEN)
    with pytest.raises(OddReflectionError):
        odd_reflection(b, even_simple)


def test_path_trivial_and_gl21():
    system, b = dist("gl", 2, 1)
    assert odd_reflection_path(b, b) == []
    target = b
    for w in [weight([0, 1], [-1]), weight([1, 0], [-1])]:
        target = odd_reflection(target, target.system.find_root(w, ODD))
    path = odd_reflection_path(b, target)
    assert [r.weight for r in path] == [weight([0, 1], [-1]), weight([1, 0], [-1])]


def test_path_length_full_flip_gl():
    for (m, n) in [(2, 1), (3, 2)]:
        system, b = dist("gl", m, n)
        anti = BorelSystem(system, frozenset(-r for r in b.odd_positive))
        path = odd_reflection_path(b, anti)
        assert len(path) == m * n
        # p equals the isotropic part of the positivity disagreement
        misplaced = sum(1 for r in b.odd_positive if -r in anti.odd_positive)
        assert len(path) == misplaced


def test_path_rhos_shift_by_gamma():
    system, b = dist("gl", 3, 2)
    anti = BorelSystem(system, frozenset(-r for r in b.odd_positive))
    path = odd_reflection_path(b, anti)
    rhos = path_rhos(b, path)
    for i, g in enumerate(path):
        assert rhos[i + 1] == rhos[i] + g.weight
    # the reversed negated path is itself a valid reflection chain back
    cur = anti
    for g in reverse_path(path):
        cur = odd_reflection(cur, g)
    assert cur == b


def test_track_empty_path():
    system, b = dist("gl", 2, 1)
    lam = weight([3, 1], [Fraction(1, 2)])
    assert track_highest_weight(lam, b, []) == lam


def test_track_gl21_zero_weight():
    system, b = dist("gl", 2, 1)
    target = b
    for w in [weight([0, 1], [-1]), weight([1, 0], [-1])]:
        target = odd_reflection(target, target.system.find_root(w, ODD))
    path = odd_reflection_path(b, target)
    lam = weight([0, 0], [0])
    assert track_highest_weight(lam, b, path) == lam


def test_track_typical_matches_rho_shift(any_family):
    """For typical weights, transport is lambda + rho - rho_hat."""
    system = build_root_system(any_family)
    b = distinguished_borel(system)
    borels = enumerate_borels(system, cap=200)
    rng = random.Random(7)
    checked = 0
    for _ in range(200):
        lam = random_weight(rng, any_family)
        if not atypicality(lam, b).typical:
            continue
        for target in borels[:4]:
            path = odd_reflection_path(b, target)
            got = track_highest_weight(lam, b, path)
            assert got == lam + b.rho - target.rho
        checked += 1
    assert checked > 10


def test_track_round_trip_and_cumulative_oracle(any_family):
    system = build_root_system(any_family)
    b = distinguished_borel(system)
    borels = enumerate_borels(system, cap=200)
    rng = random.Random(11)
    for _ in range(100):
        lam = random_weight(rng, any_family)
        target = rng.choice(borels)
        path = odd_reflection_path(b, target)
        out = track_highest_weight(lam, b, path)
        assert out == track_highest_weight_cumulative(lam, b, path)
        back = track_highest_weight(out, target, reverse_path(path))
        assert back == lam


def test_q_has_no_odd_reflections():
    system, b = dist("q", 3)
    assert b.simple_isotropic == ()
    assert enumerate_borels(system) == [b]
    with pytest.raises(OddReflectionError):
        odd_reflection(b, b.simple[0])


def test_enumerate_borels_counts():
    system, _ = dist("gl", 2, 1)
    assert len(enumerate_borels(system)) == 3
    system, _ = dist("gl", 3, 2)
    assert len(enumerate_borels(system)) == 10
