"""Kazhdan-Lusztig combinatorics on finite Coxeter groups: R- and
KL-polynomials, mu-values, the left preorder and left cells.

The KL polynomials come from the canonical-basis recursion on the
group's integer tables, with the z-sum restricted to the nonzero mu
values of the shorter element (du Cloux, Experiment. Math. 11, 2002;
Bjorner-Brenti, GTM 231, ch. 5).  Two routes in superweyl.oracles check
it: kl_polynomial_direct, the same recursion scanning every z, and
kl_polynomial_via_r, through the R-polynomials, which shares nothing
with it beyond the group itself.

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

from . import digraph
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
    """KL data for one enumerated Coxeter group (built lazily, cached).

    P is stored by columns: column y maps the index of each x <= y to
    the coefficients of P_xy (every such P is nonzero), and the columns
    are filled in BFS order up to the largest y asked for.  Each filled
    column also leaves the list of its nonzero mu(z, y), which is all
    that later columns and the left preorder read of it.
    """

    def __init__(self, group: CoxeterGroup, cap: int = 10**4):
        if len(group) > cap:
            raise CapExceeded(f"group of order {len(group)} exceeds cap {cap}")
        self.group = group
        self._columns: list[dict[int, tuple[int, ...]]] = []
        self._mu_lists: list[list[tuple[int, int]]] = []
        self._reach: list[int] | None = None
        self._above: dict[WeylElt, frozenset[WeylElt]] = {}
        self._cells: list[frozenset[WeylElt]] | None = None
        self._cell_index: dict[WeylElt, frozenset[WeylElt]] | None = None

    # -- KL polynomials, column by column ------------------------------

    def _column(self, y: int) -> dict[int, tuple[int, ...]]:
        """Column y, filling every earlier column first."""
        columns = self._columns
        while len(columns) <= y:
            self._fill_next()
        return columns[y]

    def _fill_next(self) -> None:
        """P_xy = q^(1-c) P_{sx,v} + q^c P_{x,v}
        - sum over z with sz < z of mu(z, v) q^((l(y)-l(z))/2) P_xz,
        for s the smallest left descent of y, v = sy and c = [sx < x];
        z runs over the nonzero-mu list of v (Kazhdan-Lusztig 1979)."""
        core = self.group._core
        columns, length, left = self._columns, core.length, core.left
        y = len(columns)
        if y == 0:
            col = {0: (1,)}
        else:
            ly = length[y]
            mask = core.descents[y]
            s = (mask & -mask).bit_length() - 1
            v = left[y][s]
            col_v = columns[v]
            acc: dict[int, list[int]] = {}
            for x in core.interval(y):
                sx = left[x][s]
                if length[sx] < length[x]:
                    low, high = col_v.get(sx, ()), col_v.get(x, ())
                else:
                    low, high = col_v.get(x, ()), col_v.get(sx, ())
                # low + q * high
                p = [0] * max(len(low), len(high) + 1)
                for k, a in enumerate(low):
                    p[k] = a
                for k, a in enumerate(high, 1):
                    p[k] += a
                acc[x] = p
            for z, m in self._mu_lists[v]:
                if length[left[z][s]] > length[z]:
                    continue
                shift = (ly - length[z]) // 2
                for x, pz in columns[z].items():
                    p = acc[x]
                    top = shift + len(pz)
                    if len(p) < top:
                        p.extend([0] * (top - len(p)))
                    for k, a in enumerate(pz, shift):
                        p[k] -= m * a
            col = {}
            for x, p in acc.items():
                while p and p[-1] == 0:
                    p.pop()
                if p:
                    col[x] = tuple(p)
        ly = length[y]
        mus = []
        for x, p in col.items():
            d = ly - length[x] - 1
            if d >= 0 and d % 2 == 0 and d // 2 < len(p) and p[d // 2]:
                mus.append((x, p[d // 2]))
        columns.append(col)
        self._mu_lists.append(mus)

    def kl_polynomial(self, x: WeylElt, y: WeylElt) -> IntPoly:
        index = self.group._core.index
        return IntPoly(self._column(index[y]).get(index[x], ()))

    def mu(self, x: WeylElt, y: WeylElt) -> int:
        """Top-degree coefficient of P_xy at (l(y)-l(x)-1)/2; zero unless
        the length difference is odd and x < y."""
        core = self.group._core
        i, j = core.index[x], core.index[y]
        d = core.length[j] - core.length[i] - 1
        if d < 0 or d % 2 != 0:
            return 0
        p = self._column(j).get(i, ())
        return p[d // 2] if d // 2 < len(p) else 0

    def mu_sym(self, x: WeylElt, y: WeylElt) -> int:
        return self.mu(x, y) if self.group.length(x) < self.group.length(y) else self.mu(y, x)

    # -- left preorder and cells ---------------------------------------

    def _build_preorder(self) -> list[list[int]]:
        """Successor lists over element indices: sy -> y for
        l(sy) > l(y), and x -> y for mu(x, y) or mu(y, x) nonzero when x
        has a left descent that y lacks."""
        core = self.group._core
        length, descents = core.length, core.descents
        self._column(len(self.group) - 1)
        succ: list[list[int]] = [[] for _ in range(len(self.group))]
        for y, row in enumerate(core.left):
            for sy in row:
                if length[sy] > length[y]:
                    succ[sy].append(y)  # c_{sy} in c_s c_y
        for v, mus in enumerate(self._mu_lists):
            for z, _ in mus:
                if descents[z] & ~descents[v]:
                    succ[z].append(v)
                if descents[v] & ~descents[z]:
                    succ[v].append(z)
        return succ

    def _reach_bits(self) -> list[int]:
        if self._reach is None:
            self._reach = digraph.reach(self._build_preorder())
        return self._reach

    def left_kl_above(self, x: WeylElt) -> frozenset[WeylElt]:
        """Every y with x <= y in the left preorder, x included; read
        once per element from its reachability bitset."""
        above = self._above.get(x)
        if above is None:
            elements = self.group.elements
            bits = self._reach_bits()[self.group._core.index[x]]
            above = frozenset(elements[i] for i in digraph.members(bits))
            self._above[x] = above
        return above

    def left_kl_leq(self, x: WeylElt, y: WeylElt) -> bool:
        index = self.group._core.index
        return bool(self._reach_bits()[index[x]] >> index[y] & 1)

    def left_cells(self) -> list[frozenset[WeylElt]]:
        if self._cells is None:
            elements = self.group.elements
            self._cells = [
                frozenset(elements[i] for i in c)
                for c in digraph.components(self._build_preorder())
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
    table._column(len(G) - 1)
    words = [list(w.word) for w in G.elements]
    return [
        {"x": words[x], "y": words[y], "coeffs": list(p)}
        for y, col in enumerate(table._columns)
        for x, p in col.items()
    ]
