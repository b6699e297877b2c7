"""KL polynomials via two recursions, the R-identity, left order/cells,
and the Hecke-product oracle for the preorder generators."""

import pytest

from superweyl.rootdata import Family, build_root_system, family
from superweyl.weyl import CoxeterGroup, weyl_group
from superweyl.kl import ONE, Q, IntPoly, KLTable, kl_table
from superweyl.oracles import (
    kl_polynomial_direct,
    kl_polynomial_via_r,
    r_polynomial,
)

from conftest import ORACLE_GROUPS, oracle_group


def group_for(kind, m, n=0) -> CoxeterGroup:
    return weyl_group(build_root_system(Family(kind, m, n)))


S2 = lambda: group_for("gl", 2, 1)
S3 = lambda: group_for("gl", 3, 1)
S4 = lambda: group_for("gl", 4, 1)
B2 = lambda: group_for("osp", 1, 2)
B3 = lambda: group_for("osp", 1, 3)


def test_intpoly_basics():
    p = IntPoly.of([1, 2, 0])
    assert p.coeffs == (1, 2)
    assert (p * Q).coeffs == (0, 1, 2)
    assert (p - p) == IntPoly()
    assert str(IntPoly.of([1, 1])) == "1 + q"
    assert p.reverse(2).coeffs == (0, 2, 1)


def test_p_diagonal_and_zero():
    G = S3()
    t = kl_table(G)
    for w in G:
        assert t.kl_polynomial(w, w) == ONE
    w0 = G.longest_element
    assert t.kl_polynomial(w0, G.identity) == IntPoly()


def test_r_polynomial_rank1():
    G = S2()
    t = kl_table(G)
    e, s = G.identity, G.generators[0]
    assert r_polynomial(t, e, s).coeffs == (-1, 1)  # q - 1
    assert r_polynomial(t, e, e) == ONE


def test_r_inversion_identity_S4_and_B2():
    """sum_z q^(l(y)-l(z)) R_zy(1/q) R_xz(q) = delta_xy."""
    for G in (S4(), B2()):
        t = kl_table(G)
        for x in G:
            for y in G:
                if not G.bruhat_leq(x, y):
                    continue
                acc = IntPoly()
                for z in G:
                    if G.bruhat_leq(x, z) and G.bruhat_leq(z, y):
                        rzy = r_polynomial(t, z, y)
                        rev = rzy.reverse(G.length(y) - G.length(z))
                        acc = acc + rev * r_polynomial(t, x, z)
                want = ONE if x == y else IntPoly()
                assert acc == want, (G.word_of(x), G.word_of(y))


@pytest.mark.parametrize("builder", [S4, B2, B3], ids=["S4", "B2", "B3"])
def test_two_routes_agree(builder):
    G = builder()
    t = kl_table(G)
    for y in G:
        for x in G:
            assert t.kl_polynomial(x, y) == kl_polynomial_via_r(t, x, y), (
                G.word_of(x),
                G.word_of(y),
            )


@pytest.mark.parametrize("builder", [S4, B2, B3], ids=["S4", "B2", "B3"])
def test_small_length_difference_forces_one(builder):
    G = builder()
    t = kl_table(G)
    for x in G:
        for y in G:
            if G.bruhat_leq(x, y) and G.length(y) - G.length(x) <= 2:
                assert t.kl_polynomial(x, y) == ONE


def test_degree_bound():
    G = S4()
    t = kl_table(G)
    for x in G:
        for y in G:
            p = t.kl_polynomial(x, y)
            if p and x != y:
                assert p.degree <= (G.length(y) - G.length(x) - 1) // 2


def test_s4_nontrivial_pairs():
    """1 + q is the unique nontrivial value in S4; it occurs at the six
    classical pairs below the permutations 3412 and 4231."""
    G = S4()
    t = kl_table(G)
    nontrivial = {
        (x.eps_images, y.eps_images): t.kl_polynomial(x, y)
        for x in G
        for y in G
        if t.kl_polynomial(x, y) not in (ONE, IntPoly())
    }
    assert set(nontrivial.values()) == {IntPoly.of([1, 1])}
    e = (1, 2, 3, 4)
    s1, s2, s3 = (2, 1, 3, 4), (1, 3, 2, 4), (1, 2, 4, 3)
    s1s3 = (2, 1, 4, 3)
    w3412 = (3, 4, 1, 2)
    w4231 = (4, 2, 3, 1)
    assert set(nontrivial) == {
        (e, w3412),
        (s2, w3412),
        (e, w4231),
        (s1, w4231),
        (s3, w4231),
        (s1s3, w4231),
    }
    # same conclusion via the independent route
    for x in G:
        for y in G:
            key = (x.eps_images, y.eps_images)
            want = nontrivial.get(key)
            if want is not None:
                assert kl_polynomial_via_r(t, x, y) == want


def test_b2_all_one():
    G = B2()
    t = kl_table(G)
    for x in G:
        for y in G:
            if G.bruhat_leq(x, y):
                assert t.kl_polynomial(x, y) == ONE


def test_mu_values_S3():
    G = S3()
    t = kl_table(G)
    e = G.identity
    s0, s1 = G.generators
    assert t.mu(e, s0) == 1
    assert t.mu(s0, s0.compose(s1)) == 1
    assert t.mu(e, G.longest_element) == 0  # length difference even


def test_left_order_rank1_orientation():
    G = S2()
    t = kl_table(G)
    e, s = G.identity, G.generators[0]
    assert t.left_kl_leq(s, e)
    assert not t.left_kl_leq(e, s)
    assert t.left_cells() == [frozenset({e}), frozenset({s})]


def test_left_cells_S3():
    G = S3()
    t = kl_table(G)
    s0, s1 = G.generators
    e = G.identity
    w0 = G.longest_element
    cells = {frozenset(c) for c in t.left_cells()}
    want = {
        frozenset({e}),
        frozenset({s0, s1.compose(s0)}),
        frozenset({s1, s0.compose(s1)}),
        frozenset({w0}),
    }
    assert cells == want
    # chain structure: w0 below the middle cells below e
    assert t.left_kl_leq(w0, s0) and t.left_kl_leq(s0, e)
    assert not t.left_kl_leq(s0, s1) and not t.left_kl_leq(s1, s0)


def test_mutual_comparability_is_cell():
    G = S3()
    t = kl_table(G)
    for x in G:
        for y in G:
            both = t.left_kl_leq(x, y) and t.left_kl_leq(y, x)
            assert both == (t.cell_of(x) == t.cell_of(y))


def test_left_weak_refines_left_kl():
    for G in (S3(), B2()):
        t = kl_table(G)
        for x in G:
            for y in G:
                if t.left_weak_leq(x, y):
                    assert t.left_kl_leq(x, y)


def hecke_reachable(t: KLTable):
    """Independent generator oracle: expand (T_s + 1) C~_y in the T-basis
    and convert back; z <= y for every z whose C~_z appears."""
    G = t.group
    elements = list(G.elements)

    def c_tilde(y):
        return {x: t.kl_polynomial(x, y) for x in elements if t.kl_polynomial(x, y)}

    def t_mult_left(s, vec):
        out = {}
        for x, p in vec.items():
            sx = s.compose(x)
            if G.length(sx) > G.length(x):
                out[sx] = out.get(sx, IntPoly()) + p
            else:
                out[sx] = out.get(sx, IntPoly()) + p.shift(1)
                out[x] = out.get(x, IntPoly()) + p * IntPoly.of([-1, 1])
        return {k: v for k, v in out.items() if v}

    edges = set()
    for y in elements:
        base = c_tilde(y)
        for s in G.generators:
            vec = t_mult_left(s, base)
            # add C~_y: (T_s + 1) C~_y
            for k, v in base.items():
                vec[k] = vec.get(k, IntPoly()) + v
            vec = {k: v for k, v in vec.items() if v}
            # unitriangular conversion back to the C~ basis
            while vec:
                top = max(vec, key=G.length)
                coeff = vec[top]
                edges.add((top, y))
                for k, v in c_tilde(top).items():
                    new = vec.get(k, IntPoly()) - coeff * v
                    if new:
                        vec[k] = new
                    else:
                        vec.pop(k, None)
    return edges


@pytest.mark.parametrize("builder", [S2, S3, B2], ids=["S2", "S3", "B2"])
def test_preorder_matches_hecke_oracle(builder):
    G = builder()
    t = kl_table(G)
    edges = hecke_reachable(t)
    # closure of the oracle edges equals the implemented preorder
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(G.elements)
    g.add_edges_from((a, b) for a, b in edges if a != b)
    for x in G:
        for y in G:
            oracle = x == y or nx.has_path(g, x, y)
            assert oracle == t.left_kl_leq(x, y), (G.word_of(x), G.word_of(y))


@pytest.mark.parametrize("spec", ORACLE_GROUPS)
def test_columns_match_direct_recursion(spec):
    """Every P_xy, and so every mu, equals the full-scan recursion's."""
    G = oracle_group(spec)
    t = KLTable(G)
    for y in G:
        for x in G:
            assert t.kl_polynomial(x, y) == kl_polynomial_direct(t, x, y), (
                G.word_of(x),
                G.word_of(y),
            )


def all_pairs_preorder(t: KLTable) -> dict:
    """Upper sets of the left preorder generated pair by pair: sy -> y
    when sy > y, and x -> y when mu_sym(x, y) != 0 and x has a left
    descent that y lacks."""
    G = t.group
    succ = {y: set() for y in G}
    for y in G:
        for s in G.generators:
            sy = s.compose(y)
            if G.length(sy) > G.length(y):
                succ[sy].add(y)
        for x in G:
            if x != y and t.mu_sym(x, y) and G.left_descents(x) - G.left_descents(y):
                succ[x].add(y)
    above = {}
    for x in G:
        seen, todo = {x}, [x]
        while todo:
            for z in succ[todo.pop()]:
                if z not in seen:
                    seen.add(z)
                    todo.append(z)
        above[x] = seen
    return above


@pytest.mark.parametrize("spec", ["q:4", "q:5", "gl:4,2", "osp:5,4", "osp:6,4"])
def test_left_kl_above_matches_all_pairs_preorder(spec):
    G = weyl_group(build_root_system(family(spec)))
    t = KLTable(G)
    for x, want in all_pairs_preorder(t).items():
        assert t.left_kl_above(x) == want, G.word_of(x)
