"""Checks that the mathematics supplies without a second implementation:
the symmetries and the inversion formula of the KL polynomials, the
closed-form count of rationally smooth Schubert varieties, and the
number of left cells.  Each holds for any correct KL table, whatever
route computed it.
"""

import pytest

from superweyl.kl import ONE, IntPoly, KLTable
from superweyl.rootdata import build_root_system, family
from superweyl.weyl import weyl_group


def group(spec: str):
    return weyl_group(build_root_system(family(spec)))


# S4, S5, S6, B3 and D3 x C2
S4, S5, S6, B3, D3C2 = "gl:4,1", "q:5", "q:6", "osp:1,6", "osp:6,4"


@pytest.mark.parametrize("spec", [S4, S5, B3, D3C2])
def test_inverse_and_w0_conjugation_symmetries(spec):
    """P_xy = P_{x^-1, y^-1} = P_{w0 x w0, w0 y w0} (Bjorner-Brenti ch. 5)."""
    G = group(spec)
    t = KLTable(G)
    w0 = G.longest_element
    inverse = {w: w.inverse() for w in G}
    conj = {w: w0.compose(w).compose(w0) for w in G}
    for y in G:
        for x in G:
            p = t.kl_polynomial(x, y)
            assert p == t.kl_polynomial(inverse[x], inverse[y]), (x, y)
            assert p == t.kl_polynomial(conj[x], conj[y]), (x, y)


@pytest.mark.parametrize("spec", [S4, B3])
def test_inversion_formula(spec):
    """sum_z (-1)^(l(x)+l(z)) P_xz P_{w0 y, w0 z} = delta_xy
    (Kazhdan-Lusztig, Invent. Math. 53, 1979)."""
    G = group(spec)
    t = KLTable(G)
    w0 = G.longest_element
    flip = {w: w0.compose(w) for w in G}
    for x in G:
        for y in G:
            acc = IntPoly()
            for z in G:
                p = t.kl_polynomial(x, z)
                if not p:
                    continue
                term = p * t.kl_polynomial(flip[y], flip[z])
                sign = (G.length(x) + G.length(z)) % 2
                acc = acc - term if sign else acc + term
            assert acc == (ONE if x == y else IntPoly()), (x, y)


@pytest.mark.parametrize("spec, want", [(S4, 22), (S5, 88), (S6, 366)])
def test_count_of_w_with_p_ew_one(spec, want):
    """P_{e,w} = 1 exactly when w avoids 3412 and 4231
    (Lakshmibai-Sandhya 1990); the counts are OEIS A032351."""
    G = group(spec)
    t = KLTable(G)
    assert sum(t.kl_polynomial(G.identity, w) == ONE for w in G) == want


@pytest.mark.parametrize(
    "spec, want", [(S4, 10), (S5, 26), (S6, 76), (D3C2, 40)]
)
def test_left_cell_counts(spec, want):
    """Left cells of S_n number its involutions; a product of groups
    has the product of the counts (D3 x C2: 10 x 4)."""
    assert len(KLTable(group(spec)).left_cells()) == want
