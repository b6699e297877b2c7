"""Gamma multisets, weak genericity / genericity, dominance order."""

import random

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from superweyl.rootdata import CapExceeded, build_root_system, family, weight
from superweyl.borel import distinguished_borel
from superweyl.weyl import dot_action, circle_action, weyl_group
from superweyl.chars import _gamma
from superweyl.generic import (
    default_order_roots,
    dominance_leq,
    is_generic,
    is_orbit_maximal,
    is_weakly_generic,
)
from superweyl.oracles import (
    gamma_tilde,
    is_generic_enumerated,
    is_weakly_generic_enumerated,
)

from conftest import random_weight


def setup(spec):
    system = build_root_system(family(spec))
    return system, distinguished_borel(system)


def test_gamma_gl21():
    system, b = setup("gl:2,1")
    gamma = _gamma(b)
    got = {w for w, m in gamma}
    want = {
        weight([0, 0], [0]),
        weight([-1, 0], [1]),
        weight([0, -1], [1]),
        weight([-1, -1], [2]),
    }
    assert got == want
    assert all(m == 1 for _, m in gamma)
    assert sum(m for _, m in gamma) == 4


def test_zero_in_gamma(any_family):
    system = build_root_system(any_family)
    b = distinguished_borel(system)
    zero = weight([0] * any_family.eps_dim, [0] * any_family.del_dim)
    assert dict(_gamma(b))[zero] >= 1


def test_gamma_tilde_q2():
    system, b = setup("q:2")
    sums = gamma_tilde(b)
    assert sum(m for _, m in sums) == 4
    counter = dict(sums)
    assert counter[weight([0, 0])] == 2  # empty set and the +- pair


def test_gamma_cap():
    system, b = setup("gl:3,2")
    with pytest.raises(CapExceeded):
        _gamma(b, 4)


def test_weakly_generic_examples():
    system, b = setup("gl:2,1")
    assert not is_weakly_generic(weight([0, 0], [0]), b)
    for k in range(-3, 4):
        assert not is_weakly_generic(weight([k, k], [-k]), b)
    assert is_weakly_generic(weight([10, 5], [0]), b)


def test_weakly_generic_matches_enumeration(any_family):
    system = build_root_system(any_family)
    b = distinguished_borel(system)
    rng = random.Random(23)
    hits = 0
    for i in range(120):
        span = 4 if i % 2 == 0 else 40
        lam = random_weight(rng, any_family, span=span)
        fast = is_weakly_generic(lam, b)
        slow = is_weakly_generic_enumerated(lam, b)
        assert fast == slow
        hits += fast
    assert hits > 0  # the sample reached the generic region


ORACLE_FAMILIES = ["gl:2,1", "gl:3,2", "sl:3,1", "osp:3,2", "osp:4,2", "q:3", "q:4"]

_rationals = st.builds(
    Fraction,
    st.integers(min_value=-12, max_value=12),
    st.sampled_from([1, 1, 2, 3]),
)


@st.composite
def _spread_coords(draw, size):
    """A descending chain, each term at least three times the next plus
    a gap of 3*size: no small integer combination of the coordinates
    comes near a wall, so dominant arrangements are generic."""
    gap = 3 * size
    chain, cur = [], 0
    for _ in range(size):
        cur = 3 * cur + draw(st.integers(min_value=gap, max_value=2 * gap))
        chain.append(Fraction(cur))
    return chain[::-1]


@st.composite
def _oracle_weights(draw, spec):
    fam = family(spec)
    size = fam.eps_dim + fam.del_dim
    if draw(st.booleans()):
        coords = draw(st.lists(_rationals, min_size=size, max_size=size))
    else:
        chain = draw(_spread_coords(size))
        eps_at = set(draw(st.permutations(range(size)))[: fam.eps_dim])
        coords = [c for i, c in enumerate(chain) if i in eps_at]
        coords += [c for i, c in enumerate(chain) if i not in eps_at]
    eps, dels = coords[: fam.eps_dim], coords[fam.eps_dim :]
    if fam.kind == "sl":
        dels[-1] = -(sum(eps) + sum(dels[:-1]))
    return weight(eps, dels)


@pytest.mark.parametrize("spec", ORACLE_FAMILIES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_generic_matches_enumeration(spec, data):
    """The per-coroot genericity test agrees with visiting every odd
    subset sum, on random and on spread (generic) weights."""
    system, b = setup(spec)
    lam = data.draw(_oracle_weights(spec))
    assert is_generic(lam, b) == is_generic_enumerated(lam, b)


def test_spread_weights_reach_the_generic_region():
    """The spread chain of the oracle test lands in the generic region,
    so the comparison above sees both answers."""
    rng = random.Random(211)
    for spec in ORACLE_FAMILIES:
        system, b = setup(spec)
        fam = system.family
        size = fam.eps_dim + fam.del_dim
        gap, chain, cur = 3 * size, [], 0
        for _ in range(size):
            cur = 3 * cur + rng.randint(gap, 2 * gap)
            chain.append(cur)
        chain.reverse()
        eps, dels = chain[: fam.eps_dim], chain[fam.eps_dim :]
        if fam.kind == "sl":
            dels[-1] = -(sum(eps) + sum(dels[:-1]))
        lam = weight(eps, dels)
        assert is_generic_enumerated(lam, b)
        assert is_generic(lam, b)


def test_generic_implies_weakly_generic(any_family):
    system = build_root_system(any_family)
    b = distinguished_borel(system)
    rng = random.Random(29)
    for i in range(80):
        lam = random_weight(rng, any_family, span=40)
        if is_generic(lam, b):
            assert is_weakly_generic(lam, b)


def test_weak_genericity_circle_stable_small_rank():
    for spec in ["gl:2,1", "osp:3,2", "q:2"]:
        system, b = setup(spec)
        W = weyl_group(system)
        rng = random.Random(31)
        fam = system.family
        for _ in range(40):
            lam = random_weight(rng, fam, span=30)
            base = is_weakly_generic(lam, b)
            for w in W:
                assert is_weakly_generic(circle_action(w, lam, system), b) == base


def test_genericity_dot_stable():
    system, b = setup("gl:2,1")
    W = weyl_group(system)
    rng = random.Random(37)
    fam = system.family
    for _ in range(40):
        lam = random_weight(rng, fam, span=30)
        base = is_generic(lam, b)
        for w in W:
            assert is_generic(dot_action(w, lam, b), b) == base


def test_span_coefficients_and_order():
    system, b = setup("gl:2,1")
    roots = default_order_roots(b)
    # rho-difference style comparisons
    assert dominance_leq(weight([0, 1], [-1]), weight([1, 0], [0]) + weight([0, 1], [-1]) - weight([1, 0], [0]), roots)
    lo = weight([0, 1], [-1])
    hi = weight([1, 1], [-2])  # differs by e1-d1 = (e1-e2)+(e2-d1)... check
    assert (hi - lo) == weight([1, 0], [-1])
    assert dominance_leq(lo, hi, roots)
    assert not dominance_leq(hi, lo, roots)
    # non-lattice difference: incomparable
    assert not dominance_leq(lo, lo + weight([Fraction(1, 2), 0], [0]), roots)


def test_generic_orbitwise():
    from superweyl.generic import is_generic_orbitwise

    system, b = setup("gl:2,1")
    assert is_generic_orbitwise(weight([40, 20], [-7]), b)
    assert not is_generic_orbitwise(weight([0, 0], [0]), b)


def test_span_coefficients_edge_cases():
    from superweyl.generic import span_coefficients

    e1me2 = weight([1, -1], [0])
    e2md1 = weight([0, 1], [-1])
    # unique solve
    assert span_coefficients(weight([1, 0], [-1]), [e1me2, e2md1]) == [1, 1]
    # unsolvable: off the span
    assert span_coefficients(weight([1, 1], [0]), [e1me2, e2md1]) is None
    # dependent generating set still verifies its answer
    got = span_coefficients(e1me2, [e1me2, 2 * e1me2])
    total = got[0] + 2 * got[1]
    assert total == 1
    # zero target
    assert span_coefficients(weight([0, 0], [0]), [e1me2, e2md1]) == [0, 0]


def test_orbit_maximal_examples():
    system, b = setup("gl:2,1")
    for k in range(-2, 3):
        assert is_orbit_maximal(weight([k, k], [-k]), b)
    # s . lam > lam for the antidominant partner
    lam = weight([0, 0], [0])
    s = weyl_group(system).generators[0]
    assert not is_orbit_maximal(dot_action(s, lam, b), b)

    system, b = setup("q:2")
    assert is_orbit_maximal(weight([0, 0]), b)
    assert is_orbit_maximal(weight([3, 1]), b)
    assert not is_orbit_maximal(weight([1, 3]), b)


def test_orbit_maximal_integral_dominant(any_family):
    """<lambda + rho, alpha_check> >= 0 for all even positives forces
    dot-maximality (rho here is the super rho of the Borel)."""
    from superweyl.rootdata import coroot, form

    system = build_root_system(any_family)
    b = distinguished_borel(system)
    rng = random.Random(41)
    checked = 0
    for _ in range(40):
        lam = random_weight(rng, any_family, span=9, dens=(1,))
        shifted = lam + b.rho
        if all(form(shifted, coroot(r)) >= 0 for r in system.even_positive):
            assert is_orbit_maximal(lam, b)
            checked += 1
    assert checked > 0
