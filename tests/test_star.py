"""Star actions: involution, worked values, closed forms, orbits,
alpha-finiteness criteria."""

import random

import pytest
from fractions import Fraction

from superweyl.rootdata import EVEN, ODD, build_root_system, coroot, family, form, weight
from superweyl.borel import distinguished_borel
from superweyl.generic import is_weakly_generic
from superweyl.primposet import star_inclusion_edges
from superweyl.star import (
    Finiteness,
    alpha_finite,
    alpha_finite_direct,
    antidistinguished_star_map,
    apply_generator,
    osp_star_map,
    star_action,
    star_action_q,
    star_closed_form_osp,
    star_orbit,
    star_q_closed_form,
    star_word_apply,
    trivial_star_map,
    _osp_bhat,
    _osp_btilde,
)
from superweyl.typicality import atypicality
from superweyl.weyl import chamber, dot_action, weyl_group

from conftest import random_weight


def setup(spec):
    system = build_root_system(family(spec))
    return system, distinguished_borel(system)


def maps_for(system, b):
    """At least two star maps per basic classical family."""
    fam = system.family
    if fam.kind in ("gl", "sl"):
        return [trivial_star_map(b), antidistinguished_star_map(system)]
    if fam.kind == "osp":
        if fam.m == 1:
            return [trivial_star_map(b), osp_star_map(system, "star_prime")]
        return [osp_star_map(system, "star_prime"), osp_star_map(system, "star")]
    raise AssertionError


def test_osp_named_borels_match_listings():
    system, b = setup("osp:3,4")  # m=3, n=2
    bhat = _osp_bhat(system)
    got = {(r.weight, r.parity) for r in bhat.simple}
    want = {
        (weight([0], [1, -1]), EVEN),    # d1-d2 ... wait n=2: d1-e1 first?
    }
    # per the named listing: d1-e1? no: d_{n-1}-e_1 = d1-e1, e1-d2? ...
    want = {
        (weight([-1], [1, 0]), ODD),     # d1-e1
        (weight([1], [0, -1]), ODD),     # e1-d2
        (weight([0], [0, 1]), ODD),      # d2
    }
    assert got == want

    btilde = _osp_btilde(system)
    got = {(r.weight, r.parity) for r in btilde.simple}
    want = {
        (weight([1], [-1, 0]), ODD),     # e1-d1
        (weight([0], [1, -1]), EVEN),    # d1-d2
        (weight([0], [0, 1]), ODD),      # d2
    }
    assert got == want


def test_osp32_bhat_listing():
    # n=1: the flipped system has simple roots e1-d1 and d1
    system, _ = setup("osp:3,2")
    bhat = _osp_bhat(system)
    got = {(r.weight, r.parity) for r in bhat.simple}
    want = {
        (weight([1], [-1]), ODD),
        (weight([0], [1]), ODD),
    }
    assert got == want


def test_osp_even_bhat():
    system, _ = setup("osp:4,2")
    bhat = _osp_bhat(system)
    got = {r.weight for r in bhat.simple}
    want = {
        weight([1, -1], [0]),   # e1-e2
        weight([-1, 1], [0]) + weight([2, -1], [0]) - weight([1, 0], [0]),  # e2-... placeholder
    }
    want = {
        weight([1, -1], [0]),   # e1-e2
        weight([0, 1], [-1]),   # e2-d1
        weight([0, 0], [2]),    # 2d1
    }
    assert got == want


def test_star_typical_is_dot(any_family):
    if any_family.kind == "q":
        pytest.skip("q uses its own formula")
    system = build_root_system(any_family)
    b = distinguished_borel(system)
    W = weyl_group(system)
    rng = random.Random(51)
    for m in maps_for(system, b):
        checked = 0
        for _ in range(150):
            lam = random_weight(rng, any_family)
            if not atypicality(lam, b).typical:
                continue
            for alpha in system.simple_even:
                s = weyl_group(system)
                from superweyl.weyl import reflection_elt

                selt = reflection_elt(system, alpha)
                assert star_action(m, alpha, lam) == dot_action(selt, lam, b)
            checked += 1
        assert checked > 20


def test_example_71_values():
    system, b = setup("gl:2,1")
    m = antidistinguished_star_map(system)
    alpha = system.find_root(weight([1, -1], [0]), EVEN)
    for k in range(-3, 4):
        lam = weight([k, k], [-k])
        assert star_action(m, alpha, lam) == weight([k, k + 1], [-(k + 1)])
    # trivial map gives the dot action instead
    t = trivial_star_map(b)
    from superweyl.weyl import reflection_elt

    s = reflection_elt(system, alpha)
    for k in range(-3, 4):
        lam = weight([k, k], [-k])
        assert star_action(t, alpha, lam) == dot_action(s, lam, b)


def test_star_involution(any_family):
    system = build_root_system(any_family)
    b = distinguished_borel(system)
    rng = random.Random(53)
    if any_family.kind == "q":
        for _ in range(200):
            lam = random_weight(rng, any_family)
            for alpha in system.simple_even:
                assert star_action_q(
                    system, alpha, star_action_q(system, alpha, lam)
                ) == lam
        return
    for m in maps_for(system, b):
        for _ in range(150):
            lam = random_weight(rng, any_family)
            for alpha in system.simple_even:
                assert star_action(m, alpha, star_action(m, alpha, lam)) == lam


def test_star_q_values():
    system, _ = setup("q:2")
    alpha = system.find_root(weight([1, -1]), EVEN)
    assert star_action_q(system, alpha, weight([3, -3])) == weight([-4, 4])
    assert star_action_q(system, alpha, weight([3, 1])) == weight([1, 3])


def test_star_central_character_shadow(any_family):
    """s_alpha * lam - s_alpha . lam lies in the Z-span of the odd roots."""
    if any_family.kind == "q":
        pytest.skip("q-type shadow is the rho0-shift itself")
    system = build_root_system(any_family)
    b = distinguished_borel(system)
    from superweyl.weyl import reflection_elt

    rng = random.Random(59)
    for m in maps_for(system, b):
        for _ in range(60):
            lam = random_weight(rng, any_family)
            for alpha in system.simple_even:
                diff = star_action(m, alpha, lam) - dot_action(
                    reflection_elt(system, alpha), lam, b
                )
                # odd-root lattice: integer vectors (eps and del block sums
                # agree mod pairing structure); verify by integer solve
                from superweyl.generic import span_coefficients

                odd_pos = [r.weight for r in b.odd_positive_sorted if r.isotropic] or [
                    r.weight for r in b.odd_positive_sorted
                ]
                # solve over the odd positives (a spanning set); allow any
                # integers, so check only integrality of a particular solve
                coeffs = span_coefficients(diff, odd_pos)
                if coeffs is None:
                    # spanning set may be linearly dependent; fall back to
                    # integrality of coordinates
                    assert all(
                        a.denominator == 1 for a in diff.eps + diff.dels
                    )
                else:
                    assert all(c.denominator == 1 for c in coeffs)


def test_osp32_star_prime_atypical_case():
    system, b = setup("osp:3,2")
    m = osp_star_map(system, "star_prime")
    two_d1 = system.find_root(weight([0], [2]), EVEN)
    lam = weight([10], [-10])
    # atypical at d1-e1; both the general transport and the closed form
    # must give the dot reflection minus d1+e1
    got = star_action(m, two_d1, lam)
    assert got == star_closed_form_osp(b, lam)
    from superweyl.weyl import reflection_elt

    s = reflection_elt(system, two_d1)
    assert got == dot_action(s, lam, b) - weight([1], [1])
    assert got == weight([9], [10])


def test_osp_closed_form_three_branches():
    system, b = setup("osp:3,2")
    m = osp_star_map(system, "star_prime")
    two_d1 = system.find_root(weight([0], [2]), EVEN)
    rng = random.Random(61)
    branches = {"typical": 0, "minus": 0, "plus": 0}
    for _ in range(4000):
        lam = random_weight(rng, system.family, span=30)
        if not is_weakly_generic(lam, b):
            continue
        got = star_action(m, two_d1, lam)
        assert got == star_closed_form_osp(b, lam)
        shifted = lam + b.rho
        if form(shifted, weight([-1], [1])) == 0:
            branches["minus"] += 1
        elif form(shifted, weight([1], [1])) == 0:
            branches["plus"] += 1
        else:
            branches["typical"] += 1
    assert branches["typical"] > 0 and branches["minus"] > 0 and branches["plus"] > 0


def test_osp42_closed_form_matches():
    system, b = setup("osp:4,2")
    m = osp_star_map(system, "star_prime")
    two_d1 = system.find_root(weight([0, 0], [2]), EVEN)
    rng = random.Random(67)
    checked = 0
    for _ in range(4000):
        lam = random_weight(rng, system.family, span=40)
        if not is_weakly_generic(lam, b):
            continue
        assert star_action(m, two_d1, lam) == star_closed_form_osp(b, lam)
        checked += 1
    assert checked > 50


def test_gl_generic_collapse_to_dot():
    """Weakly generic gl weights: every map acts as the dot action."""
    from superweyl.weyl import reflection_elt

    for spec in ["gl:2,1", "gl:3,2"]:
        system, b = setup(spec)
        maps = maps_for(system, b)
        rng = random.Random(137)
        checked = 0
        for _ in range(600):
            lam = random_weight(rng, system.family, span=60)
            if not is_weakly_generic(lam, b):
                continue
            for alpha in system.simple_even:
                s = reflection_elt(system, alpha)
                want = dot_action(s, lam, b)
                for m in maps:
                    assert star_action(m, alpha, lam) == want
            checked += 1
        assert checked > 20


def test_star_word_apply_basics():
    system, b = setup("gl:2,1")
    m = antidistinguished_star_map(system)
    alpha = system.simple_even[0]
    lam = weight([2, 2], [-2])
    assert star_word_apply(m, [], lam) == lam
    assert star_word_apply(m, [alpha, alpha], lam) == lam


def test_q_closed_form_matches_iteration():
    system, b = setup("q:3")
    rng = random.Random(71)
    gens = list(system.simple_even)
    checked = 0
    for _ in range(3000):
        lam = random_weight(rng, system.family, span=40)
        if not is_weakly_generic(lam, b):
            continue
        word = [rng.choice(gens) for _ in range(rng.randint(0, 6))]
        assert star_word_apply(system, word, lam) == star_q_closed_form(
            system, word, lam
        )
        checked += 1
    assert checked > 50


def test_osp_orthogonal_generators_need_not_commute():
    """Unlike the q(n) action, the basic classical star actions admit no
    commutation relation for orthogonal generators: near the walls of
    osp(3|2) the two products genuinely differ (which is why words live
    in a free involutive group)."""
    system, b = setup("osp:3,2")
    e1 = system.find_root(weight([1], [0]), EVEN)
    td = system.find_root(weight([0], [2]), EVEN)
    assert form(e1.weight, td.weight) == 0
    m = osp_star_map(system, "star_prime")
    lam = weight([Fraction(-3, 2)], [Fraction(-1, 2)])
    one = star_action(m, e1, star_action(m, td, lam))
    two = star_action(m, td, star_action(m, e1, lam))
    assert one != two
    assert one == weight([Fraction(-1, 2)], [Fraction(1, 2)])
    assert two == weight([Fraction(1, 2)], [Fraction(-1, 2)])


def test_q_commutation_property():
    """Orthogonal generators commute for the q star action."""
    system, _ = setup("q:4")
    a1 = system.find_root(weight([1, -1, 0, 0]), EVEN)
    a3 = system.find_root(weight([0, 0, 1, -1]), EVEN)
    rng = random.Random(73)
    for _ in range(300):
        lam = random_weight(rng, system.family)
        one = star_action_q(system, a1, star_action_q(system, a3, lam))
        two = star_action_q(system, a3, star_action_q(system, a1, lam))
        assert one == two


def test_nonintegral_map_independence(any_family):
    """<lam, alpha_check> not integral: the result is map-independent."""
    if any_family.kind == "q":
        pytest.skip("single action")
    system = build_root_system(any_family)
    b = distinguished_borel(system)
    maps = maps_for(system, b)
    rng = random.Random(79)
    checked = 0
    for _ in range(400):
        lam = random_weight(rng, any_family)
        for alpha in system.simple_even:
            if form(lam, coroot(alpha)).denominator == 1:
                continue
            vals = {star_action(m, alpha, lam) for m in maps}
            assert len(vals) == 1
            checked += 1
    assert checked > 20


def test_orbit_typical_regular():
    system, b = setup("gl:2,1")
    m = trivial_star_map(b)
    lam = weight([7, 2], [5])  # typical, regular
    assert atypicality(lam, b).typical
    g = star_orbit(m, lam)
    assert not g.truncated
    assert len(g.vertices) == len(weyl_group(system))


def test_orbit_generic_one_per_chamber():
    system, b = setup("osp:3,2")
    m = osp_star_map(system, "star_prime")
    lam = weight([40], [-20])  # atypicality needs <lam+rho, d1+-e1> = 0
    lam = weight([Fraction(39, 2)], [-20])
    g = star_orbit(m, lam)
    if is_weakly_generic(lam, b):
        W = weyl_group(system)
        assert len(g.vertices) == len(W)
        chambers = {chamber(system, v) for v in g.vertices}
        assert len(chambers) == len(W)


def test_orbit_can_exceed_group_order_on_walls():
    """q(n) wall weights can have star orbits strictly larger than the
    Weyl group (value frozen from the BFS itself)."""
    system, b = setup("q:3")
    g = star_orbit(system, weight([-2, -2, 2]), max_vertices=300)
    assert not g.truncated
    assert len(g.vertices) == 9
    assert len(weyl_group(system)) == 6


def test_orbit_cap_truncates():
    system, b = setup("gl:2,1")
    m = trivial_star_map(b)
    g = star_orbit(m, weight([7, 2], [5]), max_vertices=1)
    assert g.truncated


def test_orbit_json_shape():
    system, b = setup("q:2")
    g = star_orbit(system, weight([3, -3]))
    obj = g.to_json()
    assert set(obj) == {"vertices", "edges", "truncated"}
    assert len(obj["vertices"]) == 2
    dot = g.to_dot(system)
    assert dot.startswith("graph star_orbit {")


def test_alpha_finite_gl():
    system, b = setup("gl:2,1")
    alpha = system.find_root(weight([1, -1], [0]), EVEN)
    # <lam + rho, alpha_check> = 3 at lam = 2e1 (rho = -e2+d1)
    lam = weight([2, 0], [0])
    assert alpha_finite(lam, alpha, b) is Finiteness.FINITE
    assert alpha_finite(weight([0, 2], [0]), alpha, b) is Finiteness.FREE
    assert (
        alpha_finite(weight([Fraction(1, 2), 0], [0]), alpha, b)
        is Finiteness.FREE
    )


def test_alpha_finite_osp_nonintegral_is_free():
    system, b = setup("osp:3,2")
    two_d1 = system.find_root(weight([0], [2]), EVEN)
    lam = weight([0], [Fraction(1, 2)])
    assert alpha_finite(lam, two_d1, b) is Finiteness.FREE


def test_alpha_finite_q():
    system, b = setup("q:2")
    alpha = system.find_root(weight([1, -1]), EVEN)
    assert alpha_finite(weight([3, -3]), alpha, b) is Finiteness.FINITE
    assert alpha_finite(weight([-4, 4]), alpha, b) is Finiteness.FREE
    assert alpha_finite(weight([Fraction(1, 2), 0]), alpha, b) is Finiteness.FREE


def test_alpha_finite_trivial_module():
    # the trivial module is finite in every direction
    for spec in ["gl:2,1", "gl:3,2", "osp:3,2", "osp:4,2", "q:3"]:
        system, b = setup(spec)
        fam = system.family
        zero = weight([0] * fam.eps_dim, [0] * fam.del_dim)
        for alpha in system.simple_even:
            assert alpha_finite(zero, alpha, b) is Finiteness.FINITE, (spec, str(alpha))


def test_alpha_finite_star_vs_direct_osp24():
    """Type-I osp: the star criterion agrees with the reduction at the
    eps-before-delta Borel, where 2 d_n is simple."""
    from superweyl.star import _osp_btilde

    system, b = setup("osp:2,4")
    btilde = _osp_btilde(system)
    two_d2 = system.find_root(weight([0], [0, 2]), EVEN)
    d1_minus_d2 = system.find_root(weight([0], [1, -1]), EVEN)
    vals = [Fraction(k, 2) for k in range(-6, 7)]
    for a in vals:
        for c in vals:
            lam = weight([Fraction(7, 3)], [a, c])
            assert alpha_finite(lam, two_d2, b) == alpha_finite_direct(
                lam, two_d2, b, btilde
            ), (a, c)
            assert alpha_finite(lam, d1_minus_d2, b) == alpha_finite_direct(
                lam, d1_minus_d2, b, btilde
            ), (a, c)


def test_alpha_finite_star_vs_direct_osp32():
    system, b = setup("osp:3,2")
    bhat = _osp_bhat(system)
    two_d1 = system.find_root(weight([0], [2]), EVEN)
    e1 = system.find_root(weight([1], [0]), EVEN)
    vals = [Fraction(k, 2) for k in range(-10, 11)]
    for a in vals:
        for c in vals:
            lam = weight([c], [a])
            star_side = alpha_finite(lam, two_d1, b)
            direct = alpha_finite_direct(lam, two_d1, b, bhat)
            assert star_side == direct, (a, c)
            star_side = alpha_finite(lam, e1, b)
            direct = alpha_finite_direct(lam, e1, b, b)
            assert star_side == direct, (a, c)


# --- the shared star' map and the reused generator image ---------------------

def test_osp_star_map_is_built_once():
    system = build_root_system(family("osp:4,2"))
    for variant in ("star", "star_prime"):
        assert osp_star_map(system, variant) is osp_star_map(system, variant)
    assert osp_star_map.cache_info().maxsize is not None


@pytest.mark.parametrize("spec", ["osp:3,2", "osp:4,2", "q:3", "q:4"])
def test_alpha_finite_with_moved_matches_without(spec):
    system, b = setup(spec)
    m = osp_star_map(system, "star_prime") if system.family.kind == "osp" else system
    rng = random.Random(21)
    seen = set()
    for _ in range(40):
        lam = random_weight(rng, system.family, span=4, dens=(1, 1, 2))
        for alpha in system.simple_even:
            if form(lam, coroot(alpha)).denominator != 1:
                continue
            moved = apply_generator(m, alpha, lam)
            fin = alpha_finite(lam, alpha, b)
            assert alpha_finite(lam, alpha, b, moved=moved) is fin, (str(lam), str(alpha))
            seen.add(fin)
    assert seen == {Finiteness.FINITE, Finiteness.FREE}


def test_star_inclusion_edges_osp_star_map_fixed_input():
    """The osp 'star' map is not the star' map that alpha_finite judges
    by, so its edges must use its own image; pinned on osp(3|4), where
    the two maps give different edges."""
    system = build_root_system(family("osp:3,4"))
    lams = [
        weight([-2], [2, 2]),
        weight([1], [3, 1]),
        weight([Fraction(1, 2)], [2, 1]),
        weight([0], [Fraction(1, 2), -1]),
    ]
    g, skipped = star_inclusion_edges([osp_star_map(system, "star")], lams)
    assert skipped == []
    assert sorted((str(a), str(c), t) for a, c, t in g.edges) == [
        ("-1|1/2,-1", "0|1/2,-1", "star-inclusion"),
        ("-2|3,1", "1|3,1", "star-inclusion"),
        ("-3/2|2,1", "1/2|2,1", "star-inclusion"),
        ("-3|2,-2", "-2|2,2", "star-inclusion"),
        ("-3|2,3", "-2|2,2", "star-inclusion"),
        ("0|-2,3/2", "0|1/2,-1", "star-equality"),
        ("0|1/2,-1", "0|-2,3/2", "star-equality"),
        ("1/2|0,3", "1/2|2,1", "star-inclusion"),
        ("1/2|2,0", "1/2|2,1", "star-inclusion"),
        ("1|0,4", "1|3,1", "star-inclusion"),
        ("1|3,0", "1|3,1", "star-inclusion"),
    ]
    assert len(g.nodes) == 14
