"""Weyl group elements, actions, Bruhat order, integral subgroups."""

import random

import pytest
from fractions import Fraction

from superweyl.rootdata import (
    EVEN,
    Family,
    build_root_system,
    weight,
)
from superweyl.borel import distinguished_borel
from superweyl.weyl import (
    CapExceeded,
    CoxeterGroup,
    chamber,
    circle_action,
    coset_factor,
    coset_reps,
    dot_action,
    integral_root_system,
    integral_weyl_group,
    is_regular,
    reflection_elt,
    simple_reflection,
    weyl_group,
)

from superweyl.oracles import bruhat_leq_subword

from conftest import ORACLE_GROUPS, oracle_group, random_weight


def setup(kind, m, n=0):
    system = build_root_system(Family(kind, m, n))
    return system, distinguished_borel(system), weyl_group(system)


def test_simple_reflection_swap():
    system, b, W = setup("gl", 2, 1)
    a = system.find_root(weight([1, -1], [0]), EVEN)
    s = simple_reflection(system, a)
    assert s.apply(weight([3, 5], [7])) == weight([5, 3], [7])
    assert s.compose(s).is_identity


def test_simple_reflection_rejects_nonsimple():
    system, b, W = setup("gl", 3, 1)
    a = system.find_root(weight([1, 0, -1], [0]), EVEN)
    with pytest.raises(ValueError):
        simple_reflection(system, a)


def test_sign_flip_reflection():
    system, b, W = setup("osp", 3, 2)  # osp(3|4)
    two_dn = system.find_root(weight([0], [0, 2]), EVEN)
    s = reflection_elt(system, two_dn)
    assert s.apply(weight([5], [3, 7])) == weight([5], [3, -7])


def test_group_orders():
    _, _, W = setup("gl", 3, 2)
    assert len(W) == 12
    _, _, W = setup("osp", 3, 2)  # osp(3|4): 2 * (2^2 * 2!) = 16
    assert len(W) == 16
    _, _, W = setup("osp", 4, 1)  # osp(4|2): |D2| * |B1| = 4 * 2
    assert len(W) == 8
    _, _, W = setup("q", 3)
    assert len(W) == 6


def test_osp_even_eps_flips_come_in_pairs():
    # type D block: the number of eps sign flips is always even
    _, _, W = setup("osp", 4, 1)
    for w in W:
        flips = sum(1 for v in w.eps_images if v < 0)
        assert flips % 2 == 0


def test_cap_exceeded():
    system = build_root_system(Family("gl", 3, 2))
    with pytest.raises(CapExceeded):
        CoxeterGroup(system, system.simple_even, cap=5)


def test_length_matches_inversions(any_family):
    system = build_root_system(any_family)
    W = weyl_group(system)
    for w in W:
        assert W.length(w) == W.length_by_roots(w)


def test_longest_element_unique_max():
    _, _, W = setup("gl", 3, 2)
    w0 = W.longest_element
    lengths = sorted(W.length(w) for w in W)
    assert lengths.count(lengths[-1]) == 1
    assert W.length(w0) == lengths[-1]


def test_bruhat_identity_below_everything():
    _, _, W = setup("gl", 3, 1)
    for w in W:
        assert W.bruhat_leq(W.identity, w)
        assert W.bruhat_leq(w, w)


def test_bruhat_against_reflection_chains():
    """Cross-check the subword criterion with the reflection-chain
    definition of Bruhat order on a rank-2 hyperoctahedral group."""
    system, _, W = setup("osp", 1, 2)  # W(B2), order 8
    reflections = [
        reflection_elt(system, r) for r in system.even_positive
    ]
    covers = set()
    for w in W:
        for t in reflections:
            v = w.compose(t)
            if W.length(v) == W.length(w) + 1:
                covers.add((w, v))
    leq = {(w, w) for w in W} | covers
    changed = True
    while changed:
        changed = False
        for (a, b1) in list(leq):
            for (c, d) in list(leq):
                if b1 == c and (a, d) not in leq:
                    leq.add((a, d))
                    changed = True
    for x in W:
        for y in W:
            assert W.bruhat_leq(x, y) == ((x, y) in leq)


def test_all_reduced_words():
    _, _, W = setup("gl", 3, 1)
    w0 = W.longest_element
    words = W.all_reduced_words(w0)
    assert sorted(words) == sorted([(0, 1, 0), (1, 0, 1)])
    for word in words:
        assert W.from_word(word) == w0


def test_dot_action_example_71():
    system, b, W = setup("gl", 2, 1)
    s = W.generators[0]
    for k in range(-3, 4):
        lam = weight([k, k], [-k])
        assert dot_action(s, lam, b) == weight([k - 1, k + 1], [-k])


def test_dot_action_is_group_action(any_family):
    system = build_root_system(any_family)
    b = distinguished_borel(system)
    W = weyl_group(system)
    rng = random.Random(3)
    for _ in range(25):
        lam = random_weight(rng, any_family)
        w1 = rng.choice(W.elements)
        w2 = rng.choice(W.elements)
        assert dot_action(w1.compose(w2), lam, b) == dot_action(
            w1, dot_action(w2, lam, b), b
        )
        assert circle_action(w1.compose(w2), lam, system) == circle_action(
            w1, circle_action(w2, lam, system), system
        )


def test_q_dot_action_is_plain():
    system, b, W = setup("q", 3)
    lam = weight([3, 1, -2])
    for w in W:
        assert dot_action(w, lam, b) == w.apply(lam)


def test_integral_root_system_cases():
    system, _, _ = setup("gl", 3, 1)
    lam = weight([Fraction(1, 2), 0, 0], [0])
    got = {r.weight for r in integral_root_system(system, lam)}
    assert got == {weight([0, 1, -1], [0]), weight([0, -1, 1], [0])}

    lam = weight([1, 2, -3], [5])
    assert len(integral_root_system(system, lam)) == len(system.even_roots)

    system_q, _, _ = setup("q", 2)
    assert integral_root_system(system_q, weight([Fraction(1, 2), 0])) == ()


def test_integral_weyl_group_and_cosets():
    system, _, W = setup("gl", 3, 1)
    lam = weight([Fraction(1, 2), 0, 0], [0])
    sub = integral_weyl_group(system, lam, full_group=W)
    assert len(sub) == 2
    reps = coset_reps(system, lam, full_group=W)
    assert len(reps) == 3
    assert len(sub) * len(reps) == len(W)


def test_integral_lattice_verification_runs(any_family):
    system = build_root_system(any_family)
    W = weyl_group(system)
    rng = random.Random(5)
    for _ in range(10):
        lam = random_weight(rng, any_family)
        integral_weyl_group(system, lam, full_group=W, verify_lattice=True)


def test_unique_coset_factorisation(any_family):
    system = build_root_system(any_family)
    W = weyl_group(system)
    rng = random.Random(9)
    for _ in range(5):
        lam = random_weight(rng, any_family)
        sub = integral_weyl_group(system, lam, full_group=W)
        reps = set(coset_reps(system, lam, full_group=W))
        seen = set()
        for w in W:
            x, u = coset_factor(W, sub, w)
            assert x in reps
            assert u in set(sub.elements)
            assert x.compose(u) == w
            seen.add((x, u))
        assert len(seen) == len(W)


def test_chamber_and_regularity():
    system, b, _ = setup("gl", 2, 1)
    rho0 = system.rho0
    assert chamber(system, -1 * rho0) == (0,)
    assert not is_regular(system, -1 * rho0)
    lam = weight([5, 0], [0])
    assert chamber(system, lam) == (1,)
    assert is_regular(system, lam)
    # Example-7.1-style weight: regular
    lam = weight([2, 2], [-2])
    assert is_regular(system, lam)


def test_integral_subgroup_contains_all_integral_reflections(any_family):
    system = build_root_system(any_family)
    W = weyl_group(system)
    rng = random.Random(13)
    for _ in range(10):
        lam = random_weight(rng, any_family)
        sub = integral_weyl_group(system, lam, full_group=W)
        members = set(sub.elements)
        for r in integral_root_system(system, lam):
            assert reflection_elt(system, r) in members


@pytest.mark.parametrize("spec", ORACLE_GROUPS)
def test_bruhat_bits_match_subword_oracle(spec):
    W = oracle_group(spec)
    for y in W:
        for x in W:
            assert W.bruhat_leq(x, y) == bruhat_leq_subword(W, x, y), (
                W.word_of(x),
                W.word_of(y),
            )
