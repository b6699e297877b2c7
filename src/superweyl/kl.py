"""Kazhdan-Lusztig combinatorics on finite Coxeter groups: R- and
KL-polynomials, mu-values, the left preorder and left cells.

The KL polynomials come from the direct canonical-basis recursion.  The
independent route through the R-polynomials, kl_polynomial_via_r in
superweyl.oracles, shares nothing with it beyond the group itself and
is cross-checked against it in the tests.

Orientation of the left order: x <= y when the basis element of x
appears in some product of the algebra with the basis element of y.  In
rank one this puts the reflection below the identity, matching the
inclusion of the annihilator of the infinite-dimensional simple into
that of the finite-dimensional one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import networkx as nx

from .rootdata import CapExceeded
from .weyl import CoxeterGroup, WeylElt


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial in q, coefficients ascending, trailing zeros
    stripped; the zero polynomial is the empty tuple."""

    coeffs: tuple[int, ...] = ()

    @staticmethod
    def of(cs: Sequence[int]) -> "IntPoly":
        cs = list(cs)
        while cs and cs[-1] == 0:
            cs.pop()
        return IntPoly(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly.of(
            [
                (self.coeffs[i] if i < len(self.coeffs) else 0)
                + (other.coeffs[i] if i < len(other.coeffs) else 0)
                for i in range(n)
            ]
        )

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + other.scale(-1)

    def scale(self, c: int) -> "IntPoly":
        return IntPoly.of([c * a for a in self.coeffs])

    def shift(self, k: int) -> "IntPoly":
        """Multiply by q^k."""
        if not self.coeffs:
            return self
        return IntPoly.of((0,) * k + self.coeffs)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if not self or not other:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly.of(out)

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def reverse(self, length: int) -> "IntPoly":
        """q^length * p(1/q) for a polynomial of degree <= length."""
        if self.degree > length:
            raise ValueError("reverse length below degree")
        out = [0] * (length + 1)
        for i, a in enumerate(self.coeffs):
            out[length - i] = a
        return IntPoly.of(out)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            if i == 0:
                parts.append(str(a))
            elif i == 1:
                parts.append(f"{a}q" if a != 1 else "q")
            else:
                parts.append(f"{a}q^{i}" if a != 1 else f"q^{i}")
        return " + ".join(parts).replace("+ -", "- ")


ONE = IntPoly((1,))
Q = IntPoly((0, 1))


class KLTable:
    """KL data for one enumerated Coxeter group (built lazily, cached)."""

    def __init__(self, group: CoxeterGroup, cap: int = 10**4):
        if len(group) > cap:
            raise CapExceeded(f"group of order {len(group)} exceeds cap {cap}")
        self.group = group
        self._p: dict[tuple[WeylElt, WeylElt], IntPoly] = {}
        self._preorder: nx.DiGraph | None = None
        self._above: dict[WeylElt, frozenset[WeylElt]] = {}
        self._cells: list[frozenset[WeylElt]] | None = None
        self._cell_index: dict[WeylElt, frozenset[WeylElt]] | None = None

    # -- KL polynomials, direct recursion -----------------------------

    def kl_polynomial(self, x: WeylElt, y: WeylElt) -> IntPoly:
        key = (x, y)
        if key in self._p:
            return self._p[key]
        G = self.group
        if x == y:
            out = ONE
        elif not G.bruhat_leq(x, y):
            out = IntPoly()
        else:
            i = next(iter(G.left_descents(y)))
            s = G.generators[i]
            v = s.compose(y)  # l(v) = l(y) - 1
            sx = s.compose(x)
            c = 1 if G.length(sx) < G.length(x) else 0
            out = self.kl_polynomial(sx, v).shift(1 - c) + self.kl_polynomial(
                x, v
            ).shift(c)
            for z in G.elements:
                if not (G.bruhat_leq(x, z) and G.bruhat_leq(z, v) and z != v):
                    continue
                if G.length(s.compose(z)) > G.length(z):
                    continue
                m = self.mu(z, v)
                if m == 0:
                    continue
                k = (G.length(y) - G.length(z)) // 2
                out = out - self.kl_polynomial(x, z).scale(m).shift(k)
        self._p[key] = out
        return out

    def mu(self, x: WeylElt, y: WeylElt) -> int:
        """Top-degree coefficient of P_xy at (l(y)-l(x)-1)/2; zero unless
        the length difference is odd and x < y."""
        G = self.group
        d = G.length(y) - G.length(x) - 1
        if d < 0 or d % 2 != 0:
            return 0
        return self.kl_polynomial(x, y).coeff(d // 2)

    def mu_sym(self, x: WeylElt, y: WeylElt) -> int:
        return self.mu(x, y) if self.group.length(x) < self.group.length(y) else self.mu(y, x)

    # -- left preorder and cells ---------------------------------------

    def _build_preorder(self) -> nx.DiGraph:
        if self._preorder is not None:
            return self._preorder
        G = self.group
        g = nx.DiGraph()
        g.add_nodes_from(G.elements)
        for y in G.elements:
            dy = G.left_descents(y)
            for i, s in enumerate(G.generators):
                sy = s.compose(y)
                if G.length(sy) > G.length(y):
                    g.add_edge(sy, y)  # c_{sy} appears in c_s c_y
            for x in G.elements:
                if x == y:
                    continue
                if self.mu_sym(x, y) == 0:
                    continue
                if G.left_descents(x) - dy:
                    g.add_edge(x, y)
        self._preorder = g
        return g

    def left_kl_above(self, x: WeylElt) -> frozenset[WeylElt]:
        """Every y with x <= y in the left preorder, x included; built
        once per element from the preorder graph."""
        above = self._above.get(x)
        if above is None:
            above = frozenset(nx.descendants(self._build_preorder(), x) | {x})
            self._above[x] = above
        return above

    def left_kl_leq(self, x: WeylElt, y: WeylElt) -> bool:
        return x == y or y in self.left_kl_above(x)

    def left_cells(self) -> list[frozenset[WeylElt]]:
        if self._cells is None:
            g = self._build_preorder()
            self._cells = [
                frozenset(c) for c in nx.strongly_connected_components(g)
            ]
            self._cells.sort(
                key=lambda c: min(self.group.word_of(w) for w in c)
            )
        return self._cells

    def cell_of(self, w: WeylElt) -> frozenset[WeylElt]:
        if self._cell_index is None:
            self._cell_index = {x: c for c in self.left_cells() for x in c}
        try:
            return self._cell_index[w]
        except KeyError:
            raise ValueError("element not in group") from None

    # -- left weak order ------------------------------------------------

    def left_weak_leq(self, x: WeylElt, y: WeylElt) -> bool:
        """x = u y with l(x) = l(u) + l(y): x sits below y (same
        orientation as the left KL order, which it refines)."""
        G = self.group
        u = x.compose(y.inverse())
        return G.length(x) == G.length(u) + G.length(y)


@lru_cache(maxsize=None)
def kl_table(group: CoxeterGroup, cap: int = 10**4) -> KLTable:
    return KLTable(group, cap)


def p_table_json(table: KLTable) -> list[dict]:
    """All nonzero KL polynomials, keyed by reduced words."""
    G = table.group
    out = []
    for y in G.elements:
        for x in G.elements:
            p = table.kl_polynomial(x, y)
            if p:
                out.append(
                    {
                        "x": list(G.word_of(x)),
                        "y": list(G.word_of(y)),
                        "coeffs": list(p.coeffs),
                    }
                )
    return out
