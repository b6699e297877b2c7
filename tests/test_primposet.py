"""Inclusion graphs: small-rank classifications, star edges, generic
posets, extra singly-atypical edges, closure and Hasse plumbing."""

import random

import pytest
from fractions import Fraction

from superweyl.rootdata import Family, build_root_system, family, weight
from superweyl.borel import distinguished_borel
from superweyl.generic import is_generic, is_weakly_generic
from superweyl.kl import kl_table
from superweyl.primposet import (
    InclusionGraph,
    PosetError,
    extra_inclusions_singly_atypical,
    generic_poset,
    hasse,
    small_rank_poset,
    star_inclusion_edges,
    transitive_closure,
)
from superweyl.star import (
    antidistinguished_star_map,
    osp_star_map,
    trivial_star_map,
)
from superweyl.weyl import dot_action, weyl_group

from conftest import random_weight


def test_graph_plumbing():
    a, b, c = weight([1]), weight([2]), weight([3])
    g = InclusionGraph()
    g.add_edge(a, b, "t")
    g.add_edge(b, c, "t")
    closed = transitive_closure(g)
    assert (a, c, "closure") in closed.edges
    h = hasse(closed)
    assert {(x, y) for x, y, _ in h.edges} == {(a, b), (b, c)}
    # equality cycle collapses
    g.add_equality(a, b, "eq")
    h2 = hasse(g)
    assert len(h2.nodes) == 2
    assert g.equality_classes()[0] == (a, b)


def test_small_rank_osp12():
    fam = Family("osp", 1, 1)
    lam = weight([], [Fraction(1, 3)])
    g = small_rank_poset(fam, lam)
    assert len(g.nodes) == 2
    assert len(g.equality_classes()) == 1

    lam = weight([], [3])  # integral dominant
    g = small_rank_poset(fam, lam)
    other = weight([], [-4])  # s . lam
    assert (other, lam, "orbit-inclusion") in g.edges
    assert not g.leq(lam, other)

    # fixed point of the dot action: single node
    lam = weight([], [Fraction(-1, 2)])
    g = small_rank_poset(fam, lam)
    assert g.nodes == {lam}


def test_small_rank_q2():
    fam = Family("q", 2)
    g = small_rank_poset(fam, weight([Fraction(1, 2), 0]))
    assert len(g.equality_classes()) == 1

    g = small_rank_poset(fam, weight([3, 1]))
    assert (weight([1, 3]), weight([3, 1]), "orbit-inclusion") in g.edges

    # atypical integral dominant: the zero weight
    g = small_rank_poset(fam, weight([0, 0]))
    assert (weight([-1, 1]), weight([0, 0]), "orbit-inclusion") in g.edges

    # typical equal coordinates: fixed point, no relations
    g = small_rank_poset(fam, weight([2, 2]))
    assert g.nodes == {weight([2, 2])} and not g.edges


def test_small_rank_sl21():
    fam = Family("sl", 2, 1)
    zero = weight([0, 0], [0])
    g = small_rank_poset(fam, zero)
    s_dot_zero = weight([-1, 1], [0])
    bridge_low = weight([0, 1], [-1])
    assert (s_dot_zero, zero, "orbit-inclusion") in g.edges
    assert (bridge_low, zero, "bridge-inclusion") in g.edges
    assert len(g.nodes) == 3

    # non-integral equality
    lam = weight([Fraction(1, 2), 0], [Fraction(-1, 2)])
    g = small_rank_poset(fam, lam)
    assert len(g.equality_classes()) == 1

    # the bridge-low weight is a dot fixed point; bridge still included
    g = small_rank_poset(fam, bridge_low)
    assert (bridge_low, zero, "bridge-inclusion") in g.edges


def test_star_edges_reproduce_sl21_classification():
    system = build_root_system(Family("sl", 2, 1))
    b = distinguished_borel(system)
    maps = [trivial_star_map(b), antidistinguished_star_map(system)]
    zero = weight([0, 0], [0])
    s_dot_zero = weight([-1, 1], [0])
    bridge_low = weight([0, 1], [-1])
    lams = [zero, s_dot_zero, bridge_low]
    g, skipped = star_inclusion_edges(maps, lams)
    assert not skipped
    want = small_rank_poset(Family("sl", 2, 1), zero)
    assert transitive_closure(g).same_order(transitive_closure(want))


def test_star_edges_match_small_rank_osp12_and_q2():
    # osp(1|2): typical weights, star = dot
    system = build_root_system(Family("osp", 1, 1))
    b = distinguished_borel(system)
    maps = [trivial_star_map(b), osp_star_map(system, "star_prime")]
    for k in [3, 0]:
        lam = weight([], [k])
        other = dot_action(weyl_group(system).generators[0], lam, b)
        g, skipped = star_inclusion_edges(maps, [lam, other])
        assert not skipped
        want = small_rank_poset(Family("osp", 1, 1), lam)
        assert transitive_closure(g).same_order(transitive_closure(want))
    # non-integral
    lam = weight([], [Fraction(1, 3)])
    other = dot_action(weyl_group(system).generators[0], lam, b)
    g, _ = star_inclusion_edges(maps, [lam, other])
    want = small_rank_poset(Family("osp", 1, 1), lam)
    assert transitive_closure(g).same_order(transitive_closure(want))

    # q(2)
    system = build_root_system(Family("q", 2))
    from superweyl.star import apply_generator

    alpha = system.simple_even[0]
    for lam in [weight([3, 1]), weight([0, 0]), weight([Fraction(1, 2), 0]),
                weight([3, -3])]:
        other = apply_generator(system, alpha, lam)
        g, skipped = star_inclusion_edges([system], [lam, other])
        assert not skipped
        want = small_rank_poset(Family("q", 2), lam)
        want_nodes = set(want.nodes)
        got = transitive_closure(g)
        want_closed = transitive_closure(want)
        # the star graph may know additional orbit points; restrict
        rel = {(a, c) for a, c in got.relation() if a in want_nodes and c in want_nodes}
        assert rel == want_closed.relation()


def test_star_edges_remark_example():
    """The bridge inclusion arises from the second star map at zero."""
    system = build_root_system(Family("gl", 2, 1))
    b = distinguished_borel(system)
    zero = weight([0, 0], [0])
    g, skipped = star_inclusion_edges(
        [antidistinguished_star_map(system)], [zero]
    )
    assert not skipped
    assert (weight([0, 1], [-1]), zero, "star-inclusion") in g.edges


def test_extra_inclusions_sl21_family():
    system = build_root_system(Family("sl", 2, 1))
    b = distinguished_borel(system)
    zero = weight([0, 0], [0])
    g = extra_inclusions_singly_atypical(zero, b)
    assert (weight([0, 1], [-1]), zero, "singly-atypical") in g.edges

    # shifted instances of the same singly atypical family live in
    # gl(2|1) (nonzero coordinate sum): lam = k e1 + k e2 - k d1
    system = build_root_system(Family("gl", 2, 1))
    b = distinguished_borel(system)
    for k in [1, 2, 3, -2]:
        lam = weight([k, k], [-k])
        g = extra_inclusions_singly_atypical(lam, b)
        assert g.edges == {
            (lam + weight([0, 1], [-1]), lam, "singly-atypical")
        }

    # a typical weight violates the preconditions
    with pytest.raises(PosetError):
        extra_inclusions_singly_atypical(weight([5, 1], [-2]), b)


def test_extra_inclusions_gl31_scan():
    system = build_root_system(Family("gl", 3, 1))
    b = distinguished_borel(system)
    rng = random.Random(101)
    from superweyl.typicality import atypicality
    from superweyl.weyl import is_dot_regular

    found_edges = 0
    found_empty = 0
    for _ in range(4000):
        lam = random_weight(rng, system.family, span=6, dens=(1,))
        if not is_dot_regular(lam, b):
            continue
        rep = atypicality(lam, b)
        if len(rep.atypical_roots) != 1:
            continue
        g = extra_inclusions_singly_atypical(lam, b)
        if g.edges:
            found_edges += 1
            gamma = rep.atypical_roots[0]
            assert all(a == lam + gamma.weight and c == lam for a, c, _ in g.edges)
        else:
            found_empty += 1
            assert not g.nodes
        if found_edges > 5 and found_empty > 5:
            break
    assert found_edges > 0 and found_empty > 0


def make_generic_weight(spec, rng, *, integral=True):
    """Search for a dominant generic weight by spreading positive
    descending coordinates far apart (verified exactly before use)."""
    from superweyl.weyl import chamber

    system = build_root_system(family(spec))
    b = distinguished_borel(system)
    fam = system.family
    gap = 30
    total = fam.eps_dim + fam.del_dim
    for _ in range(300):
        vals = []
        v = gap * (total + 2) + rng.randint(0, 9)
        for _i in range(total):
            vals.append(Fraction(v))
            v -= gap + rng.randint(0, 4)
        if not integral:
            vals = [x + Fraction(1, 3) for x in vals]
        eps, dels = vals[: fam.eps_dim], vals[fam.eps_dim :]
        if fam.kind == "sl":
            if fam.del_dim != 1:
                raise AssertionError("sl generator supports one delta")
            dels = [-sum(eps)]  # no chamber constraint on a single delta
        lam = weight(eps, dels)
        if not all(s == 1 for s in chamber(system, lam)):
            continue
        if is_weakly_generic(lam, b) and is_generic(lam, b):
            return system, b, lam
    raise AssertionError(f"no generic weight found for {spec}")


def test_generic_poset_q2_integral():
    rng = random.Random(103)
    system, b, Lam = make_generic_weight("q:2", rng)
    g = generic_poset(b, Lam)
    from superweyl.star import apply_generator

    alpha = system.simple_even[0]
    low = apply_generator(system, alpha, Lam)
    assert g.leq(low, Lam)
    assert not g.leq(Lam, low)
    want = small_rank_poset(Family("q", 2), Lam)
    assert transitive_closure(g).same_order(transitive_closure(want))


def test_generic_poset_osp32_integral():
    rng = random.Random(107)
    system, b, Lam = make_generic_weight("osp:3,2", rng)
    g = generic_poset(b, Lam)
    assert len(g.nodes) == 4
    classes = g.equality_classes()
    assert all(len(c) == 1 for c in classes)
    h = hasse(transitive_closure(g))
    # 2x2 grid: exactly 4 cover edges
    assert len(h.edges) == 4
    top = Lam
    bottoms = [n for n in g.nodes if all(g.leq(n, m) for m in g.nodes)]
    assert len(bottoms) == 1
    assert all(g.leq(n, top) for n in g.nodes)


def test_generic_poset_osp42_cube():
    """osp(4|2): W = D2 x B1 = (A1)^3, so the generic poset is the
    three-bit cube under the product order."""
    rng = random.Random(139)
    system, b, Lam = make_generic_weight("osp:4,2", rng)
    g = generic_poset(b, Lam)
    W = weyl_group(system)
    assert len(g.nodes) == 8
    assert all(len(c) == 1 for c in g.equality_classes())
    closed = transitive_closure(g)
    # rank by number of strictly-below nodes must be binomial: 1,3,3,1
    below_counts = sorted(
        sum(1 for m in g.nodes if m != n and closed.leq(m, n)) for n in g.nodes
    )
    assert below_counts == [0, 1, 1, 1, 3, 3, 3, 7]
    h = hasse(closed)
    assert len(h.edges) == 12  # cube covers


def test_osp_componentwise_matches_full_group_order():
    """The componentwise comparison over the two factors agrees with the
    left KL order of the full (reducible) even Weyl group."""
    from superweyl.oracles import classical_ideal_leq

    rng = random.Random(149)
    for spec in ["osp:3,2", "osp:4,2"]:
        system, b, Lam = make_generic_weight(spec, rng)
        W = weyl_group(system)
        table = kl_table(W)
        from superweyl.primposet import _component_positives, _component_split

        eps_pos, del_pos = _component_positives(system)
        for w1 in W:
            for w2 in W:
                a1, c1 = _component_split(system, w1)
                a2, c2 = _component_split(system, w2)
                component = classical_ideal_leq(
                    system, eps_pos, Lam, a1, a2
                ) and classical_ideal_leq(system, del_pos, Lam, c1, c2)
                assert component == table.left_kl_leq(w1, w2), (
                    W.word_of(w1),
                    W.word_of(w2),
                )


def test_osp_type_one_star_transport_identity():
    """For the named osp star map, sp-side words transport exactly to
    the shifted orbit of the eps-before-delta Borel: w * lam equals the
    tracked-back dot orbit point, for every w and any weight.  This is
    what makes the componentwise branch correct for osp(2|2n)."""
    from superweyl.borel import (
        odd_reflection_path,
        reverse_path,
        track_highest_weight,
    )
    from superweyl.star import _osp_btilde, osp_star_map, star_word_apply

    system = build_root_system(family("osp:2,4"))
    b = distinguished_borel(system)
    bt = _osp_btilde(system)
    W = weyl_group(system)
    m = osp_star_map(system, "star")
    path = odd_reflection_path(b, bt)
    rpath = reverse_path(path)
    for lam in [weight([100], [70, 40]), weight([5], [3, 1]), weight([0], [0, 0])]:
        lam_t = track_highest_weight(lam, b, path)
        for w in W:
            word = [W.simple_roots[i] for i in W.word_of(w)]
            assert star_word_apply(m, word, lam) == track_highest_weight(
                dot_action(w, lam_t, bt), bt, rpath
            )


def test_generic_poset_osp24_dihedral():
    """osp(2|4): W = B2, the generic poset collapses to the dihedral
    cell chain {e} > two 3-element cells > {w0}."""
    rng = random.Random(151)
    system, b, Lam = make_generic_weight("osp:2,4", rng)
    g = generic_poset(b, Lam)
    assert len(g.nodes) == 8
    sizes = sorted(len(c) for c in g.equality_classes())
    assert sizes == [1, 1, 3, 3]
    closed = transitive_closure(g)
    top = Lam
    assert all(closed.leq(n, top) for n in g.nodes)
    bottoms = [n for n in g.nodes if all(closed.leq(n, m2) for m2 in g.nodes)]
    assert len(bottoms) == 1
    # the two middle cells are incomparable
    cells = sorted(g.equality_classes(), key=len)
    mid1, mid2 = cells[2], cells[3]
    assert not closed.leq(mid1[0], mid2[0]) and not closed.leq(mid2[0], mid1[0])


def test_generic_poset_type_one_sl31():
    rng = random.Random(109)
    system, b, Lam = make_generic_weight("gl:3,1", rng)
    g = generic_poset(b, Lam)
    W = weyl_group(system)
    table = kl_table(W)
    # node-for-node match with the classical left order through the dot action
    for w1 in W:
        for w2 in W:
            assert g.leq(dot_action(w1, Lam, b), dot_action(w2, Lam, b)) == (
                table.left_kl_leq(w1, w2)
            )
    # 6 nodes, 4 ideal classes (middle cells merge pairwise)
    assert len(g.nodes) == 6
    assert len(g.equality_classes()) == 4


def test_generic_poset_q3_nonintegral_modes():
    system = build_root_system(family("q:3"))
    b = distinguished_borel(system)
    # two integral-difference coordinates plus one offset by 1/3: the
    # integral Weyl group is the rank-one subgroup at e1 - e2
    Lam = weight([90, 60, Fraction(101, 3)])
    assert is_weakly_generic(Lam, b) and is_generic(Lam, b)
    proved = generic_poset(b, Lam, mode="proved")
    conj = generic_poset(b, Lam, mode="conjectural-left-order")
    # proved edges are a subset of the conjectural ones
    assert proved.relation() <= conj.relation()
    assert proved.nodes == conj.nodes
    assert len(proved.nodes) == 6
    from superweyl.weyl import integral_weyl_group

    sub = integral_weyl_group(system, Lam)
    assert len(sub) == 2


def test_generic_poset_q4_nonintegral_s3_block():
    """Three integral-difference coordinates plus one offset: the
    integral Weyl group is an S3 inside S4.  At this size the sufficient
    coset condition and the left-KL mode give the same graph (they are
    known to coincide for symmetric groups up to rank five), and both
    collapse each coset onto the 4-ideal cell structure of S3."""
    system = build_root_system(family("q:4"))
    b = distinguished_borel(system)
    Lam = weight([150, 120, 90, Fraction(166, 3)])
    assert is_weakly_generic(Lam, b) and is_generic(Lam, b)
    from superweyl.weyl import integral_weyl_group

    sub = integral_weyl_group(system, Lam)
    assert len(sub) == 6
    proved = generic_poset(b, Lam, mode="proved")
    conj = generic_poset(b, Lam, mode="conjectural-left-order")
    assert proved.nodes == conj.nodes and len(proved.nodes) == 24
    assert proved.relation() == conj.relation()
    # each of the 4 cosets collapses to the 4-cell ideal chain of S3
    classes = proved.equality_classes()
    sizes = sorted(len(c) for c in classes)
    # cells {e}, {s1,s2s1}, {s2,s1s2}, {w0} across 4 cosets
    assert sizes == [4, 4, 8, 8]


def _pairwise_generic_edges(b, Lam, mode):
    """generic_poset's edge set rebuilt one ordered pair at a time from
    the per-pair oracles classical_ideal_leq and left_kl_leq, with the
    cells of the proved q(n) mode found by a scan of left_cells."""
    from superweyl.primposet import (
        _component_group,
        _component_positives,
        _component_split,
        _star_nodes,
    )
    from superweyl.oracles import classical_ideal_leq
    from superweyl.rootdata import coroot, form
    from superweyl.weyl import coset_factor

    system = b.system
    kind = system.family.kind
    W = weyl_group(system)
    tag = "classical-order"
    if kind in ("gl", "sl"):
        node = {w: dot_action(w, Lam, b) for w in W}

        def leq(w1, w2):
            return classical_ideal_leq(system, system.even_positive, Lam, w1, w2)

    elif kind == "osp":
        node = _star_nodes(system, b, Lam, W, action="osp")
        eps_pos, del_pos = _component_positives(system)

        def leq(w1, w2):
            a1, c1 = _component_split(system, w1)
            a2, c2 = _component_split(system, w2)
            return classical_ideal_leq(
                system, eps_pos, Lam, a1, a2
            ) and classical_ideal_leq(system, del_pos, Lam, c1, c2)

    else:
        node = _star_nodes(system, b, Lam, W, action="q")
        int_pos = tuple(
            r for r in system.even_positive if form(Lam, coroot(r)).denominator == 1
        )
        if len(int_pos) == len(system.even_positive):
            leq = kl_table(W).left_kl_leq
        elif not int_pos:
            tag = "coset-equality"

            def leq(w1, w2):
                return True

        else:
            tag = "coset-order"
            sub = _component_group(system, int_pos)
            table = kl_table(sub)

            def cell_of(u):
                return next(c for c in table.left_cells() if u in c)

            def leq(w1, w2):
                u1 = coset_factor(W, sub, w1)[1]
                u2 = coset_factor(W, sub, w2)[1]
                if mode == "conjectural-left-order":
                    return table.left_kl_leq(u1, u2)
                return any(
                    table.left_weak_leq(v1, v2)
                    for v1 in cell_of(u1)
                    for v2 in cell_of(u2)
                )

    return {
        (node[w1], node[w2], tag)
        for w1 in W
        for w2 in W
        if w1 != w2 and leq(w1, w2)
    }


@pytest.mark.parametrize(
    "spec, literal, mode",
    [
        ("gl:3,2", "2846,943,25|309,94", "proved"),
        ("gl:4,2", "11498,415,127,36|3826,1269", "proved"),
        ("gl:4,2", "8832,2937,2902/3,286/3|316,20", "proved"),
        ("osp:4,4", "780,81|255,21", "proved"),
        ("q:4", "590,192,175/3,43/3", "proved"),
        ("q:4", "590,192,175/3,43/3", "conjectural-left-order"),
        ("q:3", "90,181/3,62/3", "proved"),
    ],
)
def test_generic_poset_matches_pairwise_oracles(spec, literal, mode):
    """The order pulled back once per poset gives exactly the edges of
    the per-pair oracles: gl integral and 1/3-shifted, osp
    componentwise, q with mixed integrality in both modes, and q with
    no integral root."""
    from superweyl.cli import parse_weight

    system = build_root_system(family(spec))
    b = distinguished_borel(system)
    Lam = parse_weight(system, literal)
    g = generic_poset(b, Lam, mode=mode)
    assert len(g.nodes) == len(weyl_group(system))
    assert g.edges == _pairwise_generic_edges(b, Lam, mode)


def test_generic_poset_rejects_nongeneric():
    system = build_root_system(Family("q", 2))
    b = distinguished_borel(system)
    with pytest.raises(PosetError):
        generic_poset(b, weight([0, 0]))


def test_generic_poset_matches_small_rank_on_rank_one():
    """Where the generic theorems and the rank-one classifications
    overlap, the graphs agree exactly."""
    # osp(1|2): integral dominant generic
    fam = Family("osp", 1, 1)
    system = build_root_system(fam)
    b = distinguished_borel(system)
    Lam = weight([], [7])
    assert is_weakly_generic(Lam, b) and is_generic(Lam, b)
    g = generic_poset(b, Lam)
    assert transitive_closure(g).same_order(
        transitive_closure(small_rank_poset(fam, Lam))
    )
    # non-integral
    Lam = weight([], [Fraction(22, 3)])
    assert is_generic(Lam, b)
    g = generic_poset(b, Lam)
    assert transitive_closure(g).same_order(
        transitive_closure(small_rank_poset(fam, Lam))
    )
    # sl(2|1): integral dominant generic
    fam = Family("sl", 2, 1)
    system = build_root_system(fam)
    b = distinguished_borel(system)
    Lam = weight([40, 10], [-50])
    assert is_weakly_generic(Lam, b) and is_generic(Lam, b)
    g = generic_poset(b, Lam)
    assert transitive_closure(g).same_order(
        transitive_closure(small_rank_poset(fam, Lam))
    )


def test_generic_distinctness_and_fd_separation():
    """No equality class merges two weakly generic weights in the same
    chamber, and none contains two distinct dominant regular integral
    weights."""
    rng = random.Random(127)
    for spec in ["q:2", "osp:3,2", "gl:3,1"]:
        system, b, Lam = make_generic_weight(spec, rng)
        g = generic_poset(b, Lam)
        from superweyl.weyl import chamber

        for cls in g.equality_classes():
            chambers = [chamber(system, w) for w in cls]
            assert len(set(chambers)) == len(chambers)
            dom = [w for w in cls if all(s == 1 for s in chamber(system, w))]
            assert len(dom) <= 1


def test_typical_generic_poset_matches_classical():
    """For typical generic weights the graph is the classical one."""
    rng = random.Random(131)
    system, b, Lam = make_generic_weight("gl:2,1", rng)
    from superweyl.typicality import atypicality

    assert atypicality(Lam, b).typical
    g = generic_poset(b, Lam)
    W = weyl_group(system)
    table = kl_table(W)
    for w1 in W:
        for w2 in W:
            assert g.leq(dot_action(w1, Lam, b), dot_action(w2, Lam, b)) == (
                table.left_kl_leq(w1, w2)
            )


def test_json_and_dot_export():
    g = small_rank_poset(Family("sl", 2, 1), weight([0, 0], [0]))
    obj = g.to_json()
    assert set(obj) == {"nodes", "edges"}
    assert len(obj["nodes"]) == 3
    dot = g.to_dot()
    assert dot.startswith("digraph ideals {") and "singly" not in dot
