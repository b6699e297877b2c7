"""Weyl groups as signed-permutation actions on weights.

Elements store the signed images of the basis vectors; reduced words are
assigned by breadth-first closure over the simple reflections, which
makes the canonical word of each element the lexicographically least
among its minimal-length words.  The same machinery drives reflection
subgroups (integral Weyl groups W_lambda) with their own simple systems.
The Bruhat order, and the KL code in superweyl.kl, read integer tables
(element indices, multiplication tables, lower intervals as int bitsets)
that a group builds on first use, so groups used only for their action
never pay for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress
from operator import itemgetter
from typing import Sequence

from .rootdata import (
    CapExceeded,
    Root,
    RootSystem,
    Weight,
    basis_del,
    basis_eps,
    coroot,
    form,
    simple_basis,
)
from .borel import BorelSystem


class LatticeMismatchError(RuntimeError):
    """The two characterisations of the integral Weyl group disagree.

    Membership of w(lambda) - lambda in the root lattice is checked
    against generation by integral reflections; a mismatch is reported
    rather than silently resolved.
    """


@dataclass(frozen=True)
class WeylElt:
    """Signed permutation: eps_images[i] = +-(j+1) means eps_i -> +-eps_j."""

    eps_images: tuple[int, ...]
    del_images: tuple[int, ...]
    word: tuple[int, ...] | None = field(default=None, compare=False)

    def apply(self, w: Weight) -> Weight:
        eps = [Fraction(0)] * len(self.eps_images)
        dels = [Fraction(0)] * len(self.del_images)
        for i, img in enumerate(self.eps_images):
            if img > 0:
                eps[img - 1] += w.eps[i]
            else:
                eps[-img - 1] -= w.eps[i]
        for i, img in enumerate(self.del_images):
            if img > 0:
                dels[img - 1] += w.dels[i]
            else:
                dels[-img - 1] -= w.dels[i]
        return Weight(tuple(eps), tuple(dels))

    def compose(self, other: "WeylElt") -> "WeylElt":
        """self o other (other acts first)."""

        def comp(images_self, images_other):
            out = []
            for img in images_other:
                s = 1 if img > 0 else -1
                t = images_self[abs(img) - 1]
                out.append(s * t)
            return tuple(out)

        return WeylElt(
            comp(self.eps_images, other.eps_images),
            comp(self.del_images, other.del_images),
        )

    def __mul__(self, other: "WeylElt") -> "WeylElt":
        return self.compose(other)

    def inverse(self) -> "WeylElt":
        eps = [0] * len(self.eps_images)
        dels = [0] * len(self.del_images)
        for i, img in enumerate(self.eps_images):
            if img > 0:
                eps[img - 1] = i + 1
            else:
                eps[-img - 1] = -(i + 1)
        for i, img in enumerate(self.del_images):
            if img > 0:
                dels[img - 1] = i + 1
            else:
                dels[-img - 1] = -(i + 1)
        return WeylElt(tuple(eps), tuple(dels))

    @property
    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.eps_images)) and all(
            v == i + 1 for i, v in enumerate(self.del_images)
        )


def identity_elt(system: RootSystem) -> WeylElt:
    fam = system.family
    return WeylElt(
        tuple(range(1, fam.eps_dim + 1)), tuple(range(1, fam.del_dim + 1))
    )


@lru_cache(maxsize=None)
def reflection_elt(system: RootSystem, alpha: Root) -> WeylElt:
    """s_alpha: lambda -> lambda - <lambda, alpha_check> alpha."""
    av = coroot(alpha)
    fam = system.family

    def image_of(basis: Weight) -> tuple[str, int, int]:
        img = basis - alpha.weight * form(basis, av)
        nz = [
            ("e", i, a) for i, a in enumerate(img.eps) if a != 0
        ] + [("d", j, a) for j, a in enumerate(img.dels) if a != 0]
        if len(nz) != 1 or abs(nz[0][2]) != 1:
            raise ValueError(f"{alpha} does not act as a signed permutation")
        kind, idx, a = nz[0]
        return kind, idx, 1 if a > 0 else -1

    eps = []
    for i in range(fam.eps_dim):
        kind, idx, s = image_of(basis_eps(fam, i))
        if kind != "e":
            raise ValueError(f"{alpha} mixes the eps and delta coordinates")
        eps.append(s * (idx + 1))
    dels = []
    for j in range(fam.del_dim):
        kind, idx, s = image_of(basis_del(fam, j))
        if kind != "d":
            raise ValueError(f"{alpha} mixes the eps and delta coordinates")
        dels.append(s * (idx + 1))
    return WeylElt(tuple(eps), tuple(dels))


def simple_reflection(system: RootSystem, alpha: Root) -> WeylElt:
    if alpha not in system.simple_even:
        raise ValueError(f"{alpha} is not a simple even root")
    return reflection_elt(system, alpha)


class CoxeterGroup:
    """A finite reflection group enumerated from chosen simple roots.

    Covers the full Weyl group and its reflection subgroups (integral
    Weyl groups); positive_roots is the positive part of the associated
    root subsystem, used for the root-counting length cross-check.
    """

    def __init__(
        self,
        system: RootSystem,
        simple_roots: Sequence[Root],
        *,
        positive_roots: Sequence[Root] | None = None,
        cap: int = 10**6,
    ):
        self.system = system
        self.simple_roots = tuple(simple_roots)
        self.generators = tuple(
            reflection_elt(system, a) for a in self.simple_roots
        )
        self.positive_roots = tuple(
            positive_roots
            if positive_roots is not None
            else system.even_positive
        )
        self._enumerate(cap)

    def _enumerate(self, cap: int) -> None:
        e = identity_elt(self.system)
        e = WeylElt(e.eps_images, e.del_images, word=())
        words: dict[WeylElt, tuple[int, ...]] = {e: ()}
        order: list[WeylElt] = [e]
        frontier = [e]
        while frontier:
            nxt = []
            for x in sorted(frontier, key=lambda w: words[w]):
                for i, s in enumerate(self.generators):
                    y = x.compose(s)  # append generator on the right
                    if y not in words:
                        if len(words) >= cap:
                            raise CapExceeded(f"group cap {cap} exceeded")
                        y = WeylElt(
                            y.eps_images, y.del_images, words[x] + (i,)
                        )
                        words[y] = y.word
                        order.append(y)
                        nxt.append(y)
            frontier = nxt
        self._words = words
        self.elements: tuple[WeylElt, ...] = tuple(order)
        self._length = {w: len(words[w]) for w in order}
        self.identity = e

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def canonical(self, w: WeylElt) -> WeylElt:
        """The stored copy of w, carrying its canonical reduced word."""
        if w not in self._words:
            raise ValueError("element not in this group")
        return self._intern(w)

    def _intern(self, w: WeylElt) -> WeylElt:
        word = self._words[w]
        return WeylElt(w.eps_images, w.del_images, word)

    def word_of(self, w: WeylElt) -> tuple[int, ...]:
        return self._words[w]

    def length(self, w: WeylElt) -> int:
        return self._length[w]

    def length_by_roots(self, w: WeylElt) -> int:
        """Number of positive roots of the subsystem sent to negatives."""
        neg = {(-r.weight).sort_key() for r in self.positive_roots}
        return sum(
            1 for r in self.positive_roots if w.apply(r.weight).sort_key() in neg
        )

    def from_word(self, word: Sequence[int]) -> WeylElt:
        w = self.identity
        for i in word:
            w = w.compose(self.generators[i])
        return self._intern(w)

    @property
    def longest_element(self) -> WeylElt:
        return max(self.elements, key=self.length)

    def left_descents(self, w: WeylElt) -> frozenset[int]:
        return frozenset(
            i
            for i, s in enumerate(self.generators)
            if self._length[s.compose(w)] < self._length[w]
        )

    def right_descents(self, w: WeylElt) -> frozenset[int]:
        return frozenset(
            i
            for i, s in enumerate(self.generators)
            if self._length[w.compose(s)] < self._length[w]
        )

    def bruhat_leq(self, x: WeylElt, y: WeylElt) -> bool:
        """One bit of the lower Bruhat interval of y."""
        core = self._core
        i = core.index.get(x)
        return i is not None and core.below[core.index[y]] >> i & 1 == 1

    @cached_property
    def _core(self) -> "_CoxeterIndex":
        """Integer tables for Bruhat and KL work, built on first use."""
        return _CoxeterIndex(self)

    def all_reduced_words(self, w: WeylElt) -> list[tuple[int, ...]]:
        """Every reduced word of w (recursion over right descents)."""
        w = self._intern(w)
        memo: dict[WeylElt, list[tuple[int, ...]]] = {}

        def rec(x: WeylElt) -> list[tuple[int, ...]]:
            if self._length[x] == 0:
                return [()]
            if x in memo:
                return memo[x]
            out = []
            for i in self.right_descents(x):
                for pre in rec(x.compose(self.generators[i])):
                    out.append(pre + (i,))
            memo[x] = out
            return out

        return rec(w)


# Int bitsets as bytes, one 0/1 byte per bit from the lowest, and back.
_TO_FLAGS = bytes.maketrans(b"01", b"\x00\x01")
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _flags(bits: int) -> bytes:
    return bin(bits)[:1:-1].encode().translate(_TO_FLAGS)


def _from_flags(flags: bytes) -> int:
    return int(flags[::-1].translate(_TO_DIGITS), 2)


class _CoxeterIndex:
    """A group's elements numbered 0..|W|-1 in BFS order, with integer
    tables: left[i][g] and right[i][g] are the indices of s_g * w_i and
    w_i * s_g, length[i] is l(w_i), descents[i] the bitmask of the left
    descents of w_i, and bit x of below[y] is set exactly when
    w_x <= w_y in the Bruhat order.

    The intervals follow the BFS parent: if y = v s with l(y) = l(v) + 1
    then [e, y] = [e, v] u [e, v] s (subword property).
    """

    def __init__(self, group: CoxeterGroup):
        elements = group.elements
        gens = group.generators
        index = {w: i for i, w in enumerate(elements)}
        self.index = index
        self.left = [tuple(index[s.compose(w)] for s in gens) for w in elements]
        self.right = [tuple(index[w.compose(s)] for s in gens) for w in elements]
        length = [group._length[w] for w in elements]
        self.length = length
        self.descents = [
            sum(1 << g for g, k in enumerate(row) if length[k] < length[i])
            for i, row in enumerate(self.left)
        ]
        n = len(elements)
        # image[g](flags of A) = flags of A s_g, for flags padded to n
        # bytes (_flags stops at the highest set bit)
        image = [
            itemgetter(*(row[g] for row in self.right)) for g in range(len(gens))
        ]
        pad = bytes(n)
        below = [1]
        for y in range(1, n):
            g = elements[y].word[-1]
            v = self.right[y][g]
            moved = bytes(image[g](_flags(below[v]) + pad))
            below.append(below[v] | _from_flags(moved))
        self.below = below

    def interval(self, y: int) -> list[int]:
        """Indices x <= y in the Bruhat order, ascending."""
        flags = _flags(self.below[y])
        return list(compress(range(len(flags)), flags))


@lru_cache(maxsize=None)
def weyl_group(system: RootSystem, cap: int = 10**6) -> CoxeterGroup:
    return CoxeterGroup(system, system.simple_even, cap=cap)


# --- shifted actions ------------------------------------------------------

def dot_action(w: WeylElt, lam: Weight, b: BorelSystem) -> Weight:
    """w . lambda = w(lambda + rho) - rho, rho taken from b."""
    rho = b.rho
    return w.apply(lam + rho) - rho


def circle_action(w: WeylElt, lam: Weight, system: RootSystem) -> Weight:
    """w o lambda = w(lambda + rho0) - rho0."""
    rho0 = system.rho0
    return w.apply(lam + rho0) - rho0


# --- integral Weyl group --------------------------------------------------

def integral_root_system(system: RootSystem, lam: Weight) -> tuple[Root, ...]:
    """Even roots alpha with <lambda, alpha_check> integral."""
    out = [
        r
        for r in system.even_roots
        if form(lam, coroot(r)).denominator == 1
    ]
    return tuple(sorted(out, key=Root.sort_key))


def integral_positive(system: RootSystem, lam: Weight) -> tuple[Root, ...]:
    pos = set(system.even_positive)
    return tuple(r for r in integral_root_system(system, lam) if r in pos)


def integral_simples(system: RootSystem, lam: Weight) -> tuple[Root, ...]:
    """Simple basis Pi_lambda of the integral positive subsystem."""
    return simple_basis(integral_positive(system, lam))


def in_even_root_lattice(system: RootSystem, v: Weight) -> bool:
    """Membership in the Z-span of the even roots.

    This is the lattice for which membership of w(lambda) - lambda
    characterises the integral Weyl group (a statement about the even
    Weyl group, so the even root lattice is the right one; the span of
    all roots is strictly larger for osp(2d+1|2n), where delta_i is an
    odd root, and would not characterise W_lambda).

    gl/sl: integer vectors with both block sums zero.  q: integer, sum
    zero.  osp: the eps block lies in the so(m) root lattice (integers
    for m odd; even-sum integers for m = 2d with d >= 2; zero for
    m <= 2) and the delta block in the sp(2n) one (even-sum integers).
    """
    fam = system.family
    if any(a.denominator != 1 for a in v.eps + v.dels):
        return False
    if fam.kind in ("gl", "sl"):
        return sum(v.eps) == 0 and sum(v.dels) == 0
    if fam.kind == "q":
        return sum(v.eps) == 0
    if sum(v.dels) % 2 != 0:
        return False
    if fam.m % 2 == 1:
        return True
    if fam.eps_dim <= 1:
        return all(a == 0 for a in v.eps)
    return sum(v.eps) % 2 == 0


def integral_weyl_group(
    system: RootSystem,
    lam: Weight,
    *,
    full_group: CoxeterGroup | None = None,
    verify_lattice: bool = True,
    cap: int = 10**6,
) -> CoxeterGroup:
    """W_lambda, generated by reflections at integral roots.

    With verify_lattice the subgroup is compared element-by-element with
    the lattice characterisation {w : w(lambda) - lambda in the even
    root lattice}; disagreement raises LatticeMismatchError instead of
    guessing.
    """
    simples = integral_simples(system, lam)
    sub = CoxeterGroup(
        system,
        simples,
        positive_roots=integral_positive(system, lam),
        cap=cap,
    )
    if verify_lattice:
        W = full_group if full_group is not None else weyl_group(system)
        members = set(sub.elements)
        for w in W:
            lattice_side = in_even_root_lattice(system, w.apply(lam) - lam)
            if lattice_side != (w in members):
                raise LatticeMismatchError(
                    f"integral Weyl group characterisations disagree at {w}"
                )
    return sub


def coset_reps(
    system: RootSystem, lam: Weight, *, full_group: CoxeterGroup | None = None
) -> list[WeylElt]:
    """W^lambda = {w : w(Pi_lambda) positive}; left coset reps of W_lambda."""
    W = full_group if full_group is not None else weyl_group(system)
    simples = integral_simples(system, lam)
    pos_keys = {r.weight.sort_key() for r in system.even_positive}
    out = [
        w
        for w in W
        if all(w.apply(r.weight).sort_key() in pos_keys for r in simples)
    ]
    return out


def coset_factor(
    group: CoxeterGroup, sub: CoxeterGroup, w: WeylElt
) -> tuple[WeylElt, WeylElt]:
    """Unique w = x * u with u in the subgroup and x(Pi_sub) positive."""
    pos_keys = {r.weight.sort_key() for r in group.positive_roots}
    u = sub.identity
    v = w
    changed = True
    while changed:
        changed = False
        for beta, s in zip(sub.simple_roots, sub.generators):
            if v.apply(beta.weight).sort_key() not in pos_keys:
                v = v.compose(s)
                u = s.compose(u)
                changed = True
                break
    return v, sub._intern(u)


# --- chambers -------------------------------------------------------------

def chamber(system: RootSystem, lam: Weight) -> tuple[int, ...]:
    """Signs of <lambda + rho0, alpha_check> over the even positives."""
    shifted = lam + system.rho0
    out = []
    for r in system.even_positive:
        v = form(shifted, coroot(r))
        out.append(0 if v == 0 else (1 if v > 0 else -1))
    return tuple(out)


def is_regular(system: RootSystem, lam: Weight) -> bool:
    return 0 not in chamber(system, lam)


def is_dot_regular(lam: Weight, b: BorelSystem) -> bool:
    """No vanishing <lambda + rho, alpha_check>, rho the super rho of b.

    This is the regularity notion of the shifted dot action; it differs
    from circle-chamber regularity for osp and q, where rho != rho0 on
    some coroots.  For q(n) it reduces to plain-action regularity.
    """
    shifted = lam + b.rho
    return all(form(shifted, coroot(r)) != 0 for r in b.system.even_positive)

