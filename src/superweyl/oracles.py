"""Independent cross-check oracles.

Each function here recomputes, by a second and usually slower route,
something a production module computes; the tests and the benchmark
compare the two routes, and a disagreement is a bug in one of them.
Production code never imports this module.

- track_highest_weight_cumulative: the cumulative form of the per-step
  transport rule of borel.track_highest_weight.
- is_weakly_generic_enumerated, is_generic_enumerated: the literal
  subset-sum definitions behind the per-coroot tests of generic.
- classical_ideal_leq: the per-pair form of the classical order that
  primposet pulls back once per poset.
- bruhat_leq_subword: the Bruhat order by the subword criterion, as a
  set closure along the canonical word of y, against the bitset
  intervals of weyl.CoxeterGroup.
- kl_polynomial_direct: the KL recursion of kl.KLTable with its z-sum
  scanning every group element, on the subword Bruhat order, against
  the column recursion over nonzero-mu lists.
- kl_polynomial_via_r (with r_polynomial): KL polynomials by inversion
  of the R-polynomial identity
  q^(l(y)-l(x)) P_xy(1/q) - P_xy(q) = sum_z R_xz(q) P_zy(q) over x < z <= y,
  whose degree split determines P_xy uniquely.  It shares nothing with
  the direct recursion of kl.KLTable beyond the group itself.
"""

from __future__ import annotations

import weakref
from typing import Sequence

from .rootdata import (
    ODD,
    Root,
    RootSystem,
    Weight,
    coroot,
    form,
    subset_sums,
    zero_weight,
)
from .borel import BorelSystem
from .generic import gamma_sets, is_weakly_generic
from .kl import ONE, Q, IntPoly, KLTable, kl_table
from .primposet import _component_group
from .weyl import CoxeterGroup, WeylElt, chamber, coset_factor


def track_highest_weight_cumulative(
    lam: Weight, b: BorelSystem, path: Sequence[Root]
) -> Weight:
    """Cumulative form of the tracking rule.

    Picks the subsequence gamma_1, gamma_2, ... of path greedily: the
    next gamma_s is the first remaining path entry with
    <lambda + gamma_1 + ... + gamma_{s-1} + rho, entry> = 0.  The result
    is lambda - sum(path) + sum(chosen).  Agrees with the per-step rule.
    """
    rho = b.rho
    chosen = zero_weight(b.system.family)
    start = 0
    while True:
        hit = None
        for i in range(start, len(path)):
            if form(lam + chosen + rho, path[i].weight) == 0:
                hit = i
                break
        if hit is None:
            break
        chosen = chosen + path[hit].weight
        start = hit + 1
    total = zero_weight(b.system.family)
    for g in path:
        total = total + g.weight
    return lam - total + chosen


# --- genericity -------------------------------------------------------------

def is_weakly_generic_enumerated(lam: Weight, b: BorelSystem) -> bool:
    """lambda + GammaTilde in one open chamber, by enumeration."""
    system = b.system
    sign = None
    for g, _ in gamma_sets(b).gamma_tilde:
        c = chamber(system, lam + g)
        if 0 in c:
            return False
        if sign is None:
            sign = c
        elif c != sign:
            return False
    return True


def is_generic_enumerated(lam: Weight, b: BorelSystem) -> bool:
    """Every point of lambda + Gamma weakly generic, by visiting every
    odd subset sum."""
    system = b.system
    odd_negative = [
        r.weight for r in system.roots if r.parity == ODD and r not in b.odd_positive
    ]
    for g in subset_sums(zero_weight(system.family), odd_negative):
        if not is_weakly_generic(lam + g, b):
            return False
    return True


# --- classical order ----------------------------------------------------------

def classical_ideal_leq(
    system: RootSystem,
    positives: tuple[Root, ...],
    lam: Weight,
    w1: WeylElt,
    w2: WeylElt,
) -> bool:
    """Inclusion order of the even-algebra annihilators at w o lam, one
    pair at a time: the left KL order of the integral Weyl group on the
    integral parts of w1 and w2."""
    int_pos = tuple(
        r for r in positives if form(lam, coroot(r)).denominator == 1
    )
    if not int_pos:
        return True  # trivial integral group: one ideal per block family
    comp = _component_group(system, tuple(positives))
    sub = _component_group(system, int_pos)
    _, u1 = coset_factor(comp, sub, w1)
    _, u2 = coset_factor(comp, sub, w2)
    return kl_table(sub).left_kl_leq(u1, u2)


# --- Bruhat order and KL polynomials, directly -------------------------------

# Per-group subword closures by word, and per-table P values by (x, y).
_BELOW: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_P: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def bruhat_leq_subword(group: CoxeterGroup, x: WeylElt, y: WeylElt) -> bool:
    """x <= y: x is a subword product of the canonical word of y."""
    memo = _BELOW.setdefault(group, {})
    word = group.word_of(y)
    below = memo.get(word)
    if below is None:
        below = {group.identity}
        for i in word:
            s = group.generators[i]
            below |= {z.compose(s) for z in below}
        below = memo[word] = frozenset(below)
    return x in below


def kl_polynomial_direct(table: KLTable, x: WeylElt, y: WeylElt) -> IntPoly:
    """P_xy by the recursion over a left descent s of y, v = sy:
    q^(1-c) P_{sx,v} + q^c P_{x,v} minus mu(z, v) q^((l(y)-l(z))/2) P_xz
    for every z in [x, v) with sz < z, scanning the whole group."""
    return _p_direct(table.group, _P.setdefault(table, {}), x, y)


def _p_direct(G: CoxeterGroup, memo: dict, x: WeylElt, y: WeylElt) -> IntPoly:
    key = (x, y)
    if key in memo:
        return memo[key]
    if x == y:
        out = ONE
    elif not bruhat_leq_subword(G, x, y):
        out = IntPoly()
    else:
        i = min(G.left_descents(y))
        s = G.generators[i]
        v = s.compose(y)  # l(v) = l(y) - 1
        sx = s.compose(x)
        c = 1 if G.length(sx) < G.length(x) else 0
        out = _p_direct(G, memo, sx, v).shift(1 - c) + _p_direct(
            G, memo, x, v
        ).shift(c)
        for z in G.elements:
            if z == v or not (
                bruhat_leq_subword(G, x, z) and bruhat_leq_subword(G, z, v)
            ):
                continue
            if G.length(s.compose(z)) > G.length(z):
                continue
            d = G.length(v) - G.length(z) - 1
            if d < 0 or d % 2 != 0:
                continue
            m = _p_direct(G, memo, z, v).coeff(d // 2)
            if m == 0:
                continue
            k = (G.length(y) - G.length(z)) // 2
            out = out - _p_direct(G, memo, x, z).scale(m).shift(k)
    memo[key] = out
    return out


# --- KL polynomials via R-inversion -----------------------------------------

Q_MINUS_1 = IntPoly((-1, 1))

# Per-table memos: R_xy by (x, y), and solved columns P_.y by y.  Weak
# keys, so that a memo lives exactly as long as its table.
_R: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_COLUMNS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def r_polynomial(table: KLTable, x: WeylElt, y: WeylElt) -> IntPoly:
    """The R-polynomial R_xy of the table's group."""
    return _r(table.group, _R.setdefault(table, {}), x, y)


def _r(G: CoxeterGroup, memo: dict, x: WeylElt, y: WeylElt) -> IntPoly:
    key = (x, y)
    if key in memo:
        return memo[key]
    if x == y:
        out = ONE
    elif not G.bruhat_leq(x, y):
        out = IntPoly()
    else:
        i = next(iter(G.left_descents(y)))
        s = G.generators[i]
        sy, sx = s.compose(y), s.compose(x)
        if G.length(sx) < G.length(x):
            out = _r(G, memo, sx, sy)
        else:
            out = Q_MINUS_1 * _r(G, memo, x, sy) + Q * _r(G, memo, sx, sy)
    memo[key] = out
    return out


def kl_polynomial_via_r(table: KLTable, x: WeylElt, y: WeylElt) -> IntPoly:
    """P_xy by R-inversion; the column P_.y is solved once per table."""
    columns = _COLUMNS.setdefault(table, {})
    if y not in columns:
        columns[y] = _solve_column(table, y)
    return columns[y].get(x, IntPoly())


def _solve_column(table: KLTable, y: WeylElt) -> dict[WeylElt, IntPoly]:
    G = table.group
    r_memo = _R.setdefault(table, {})
    below = [z for z in G.elements if G.bruhat_leq(z, y)]
    below.sort(key=G.length, reverse=True)
    col: dict[WeylElt, IntPoly] = {y: ONE}
    for x in below:
        if x == y:
            continue
        l = G.length(y) - G.length(x)
        f = IntPoly()
        for z in below:
            if z == x or not G.bruhat_leq(x, z):
                continue
            f = f + _r(G, r_memo, x, z) * col[z]
        # q^l P(1/q) - P = f; P holds the low half negated
        limit = (l - 1) // 2
        p = IntPoly.of([-f.coeff(i) for i in range(limit + 1)])
        # upper half of f must mirror p, middle must vanish
        for i in range(limit + 1):
            if f.coeff(l - i) != p.coeff(i):
                raise AssertionError(
                    "R-inversion failed the mirror consistency check"
                )
        for i in range(limit + 1, l - limit):
            if f.coeff(i) != 0:
                raise AssertionError(
                    "R-inversion failed the middle-vanishing check"
                )
        col[x] = p
    return col
