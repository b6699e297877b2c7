"""Verma-filtration weight multisets and the reflection-twist identity."""

import random

import pytest
from fractions import Fraction

from superweyl.rootdata import EVEN, CapExceeded, build_root_system, family, weight
from superweyl.borel import distinguished_borel
from superweyl.chars import (
    generic_restriction_decomposition,
    penkov_decomposition_q,
    twisted_verma_character_equal,
    verma_restriction_weights,
)
from superweyl.generic import is_weakly_generic
from superweyl.weyl import circle_action, dot_action, weyl_group
from superweyl.star import star_action_q

from conftest import random_integral_weight, random_weight


def setup(spec):
    system = build_root_system(family(spec))
    return system, distinguished_borel(system)


def test_verma_restriction_gl21():
    system, b = setup("gl:2,1")
    lam = weight([3, 1], [-4])
    got = verma_restriction_weights(lam, b)
    assert got.multiplicity_symbol is None
    want = {
        lam: 1,
        lam + weight([-1, 0], [1]): 1,
        lam + weight([0, -1], [1]): 1,
        lam + weight([-1, -1], [2]): 1,
    }
    assert got.weights.counter() == want
    assert got.weights.total == 4


def test_verma_restriction_osp12():
    system, b = setup("osp:1,2")
    lam = weight([], [5])
    got = verma_restriction_weights(lam, b)
    assert got.weights.counter() == {lam: 1, weight([], [4]): 1}


def test_verma_restriction_cardinality(any_family):
    system = build_root_system(any_family)
    b = distinguished_borel(system)
    lam = weight([2] * any_family.eps_dim, [1] * any_family.del_dim)
    negatives = sum(
        1 for r in system.roots if r.parity == "odd" and r not in b.odd_positive
    )
    got = verma_restriction_weights(lam, b)
    assert got.weights.total == 2**negatives
    if any_family.kind == "q":
        assert got.multiplicity_symbol == "k"


def test_twisted_character_identity_bulk(any_family):
    system = build_root_system(any_family)
    b = distinguished_borel(system)
    rng = random.Random(83)
    for _ in range(60):
        lam = random_weight(rng, any_family)
        for alpha in system.simple_even:
            assert twisted_verma_character_equal(lam, alpha, b)


def test_twist_check_reads_only_the_negative_odd_roots():
    """gl(4|4) has 32 odd roots but 16 negative ones: the identity is
    checked under the cap of 24 negative odd roots; gl(5|5) has 25."""
    system, b = setup("gl:4,4")
    lam = weight([0] * 4, [0] * 4)
    alpha = system.simple_even[0]
    assert twisted_verma_character_equal(lam, alpha, b)
    system, b = setup("gl:5,5")
    with pytest.raises(CapExceeded):
        twisted_verma_character_equal(weight([0] * 5, [0] * 5), system.simple_even[0], b)


def test_circle_equivariance_of_translate(any_family):
    """w o (lam + Gamma) = w . lam + Gamma as multisets, all w."""
    system = build_root_system(any_family)
    b = distinguished_borel(system)
    W = weyl_group(system)
    rng = random.Random(89)
    for _ in range(10):
        lam = random_weight(rng, any_family)
        base = verma_restriction_weights(lam, b).weights
        for w in W:
            lhs = base.map(lambda v: circle_action(w, v, system))
            rhs = verma_restriction_weights(dot_action(w, lam, b), b).weights
            assert lhs == rhs


def test_generic_restriction_contains_top():
    system, b = setup("gl:2,1")
    lam = weight([20, 10], [-5])
    assert is_weakly_generic(lam, b)
    ms = generic_restriction_decomposition(lam, b)
    assert lam in ms
    assert ms.total == 4
    with pytest.raises(ValueError):
        generic_restriction_decomposition(weight([0, 0], [0]), b)


def test_penkov_q2_example():
    system, _ = setup("q:2")
    ms = penkov_decomposition_q(weight([3, 1]), system)
    assert ms.counter() == {weight([3, 1]): 1, weight([2, 2]): 1}
    # bar pairing agrees here (typical weight)
    ms2 = penkov_decomposition_q(weight([3, 1]), system, pairing="bar")
    assert ms2 == ms


def test_penkov_empty_s():
    system, _ = setup("q:2")
    # bar pairing kills the single positive odd root at an atypical weight
    lam = weight([5, -5])
    ms = penkov_decomposition_q(lam, system, pairing="bar")
    assert ms.counter() == {lam: 1}


def test_penkov_preconditions():
    system, _ = setup("q:2")
    with pytest.raises(ValueError):
        penkov_decomposition_q(weight([Fraction(1, 2), 0]), system)
    with pytest.raises(ValueError):
        penkov_decomposition_q(weight([0, 0]), system)


def test_penkov_printed_pairing_breaks_equivariance_at_atypical():
    """The printed pairing keeps atypical roots in S_lambda, and then the
    reflection-equivariance fails; this pins down why the bar switch
    exists and what it changes."""
    system, b = setup("q:3")
    from superweyl.weyl import reflection_elt

    lam = weight([40, -40, 8])
    assert is_weakly_generic(lam, b)
    alpha = system.find_root(weight([1, -1, 0]), EVEN)
    moved = star_action_q(system, alpha, lam)  # atypical case: s lam - alpha
    assert moved == weight([-41, 41, 8])
    s = reflection_elt(system, alpha)
    lhs = penkov_decomposition_q(moved, system, pairing="printed")
    rhs = penkov_decomposition_q(lam, system, pairing="printed").map(
        lambda v: circle_action(s, v, system)
    )
    assert lhs != rhs
    # while the bar variant is equivariant on the same input
    lhs = penkov_decomposition_q(moved, system, pairing="bar")
    rhs = penkov_decomposition_q(lam, system, pairing="bar").map(
        lambda v: circle_action(s, v, system)
    )
    assert lhs == rhs


def test_penkov_equivariance_bar():
    """Decomposition of s * lam is the s o image of the decomposition,
    for integral weakly generic weights, under the bar pairing."""
    system, b = setup("q:3")
    W = weyl_group(system)
    rng = random.Random(97)
    checked = 0
    for _ in range(4000):
        lam = random_integral_weight(rng, system.family, span=40)
        if not is_weakly_generic(lam, b):
            continue
        for alpha in system.simple_even:
            moved = star_action_q(system, alpha, lam)
            if not is_weakly_generic(moved, b):
                continue
            from superweyl.weyl import reflection_elt

            s = reflection_elt(system, alpha)
            lhs = penkov_decomposition_q(moved, system, pairing="bar")
            rhs = penkov_decomposition_q(lam, system, pairing="bar").map(
                lambda v: circle_action(s, v, system)
            )
            assert lhs == rhs
            checked += 1
        if checked > 60:
            break
    assert checked > 20
