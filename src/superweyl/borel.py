"""Borel systems with fixed even part, odd reflections and highest-weight
transport between adjacent systems.

A Borel system is determined by its set of positive odd roots; the even
part is always the canonical one of the root system.  Flipping an
isotropic simple root gamma to -gamma moves to an adjacent system and
shifts rho by gamma.  Transporting the highest weight of a fixed simple
module along a chain of such flips follows a per-step rule: subtract
gamma unless <lambda + rho, gamma> = 0.  The equivalent cumulative form
is the cross-check oracle superweyl.oracles.track_highest_weight_cumulative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from .rootdata import (
    ODD,
    CapExceeded,
    Root,
    RootSystem,
    Weight,
    _cached_hash,
    coroot,
    form,
    root_to_json,
    root_from_json,
    simple_basis,
    subset_sums,
    zero_weight,
)


class OddReflectionError(ValueError):
    """Attempted odd reflection at a root that is not isotropic simple."""


@dataclass(frozen=True)
class RhoTriple:
    rho0: Weight
    rho1: Weight
    rho: Weight


@_cached_hash
@dataclass(frozen=True)
class BorelSystem:
    system: RootSystem
    odd_positive: frozenset[Root]

    def __post_init__(self):
        odd = {r for r in self.system.roots if r.parity == ODD}
        if not self.odd_positive <= odd:
            raise ValueError("odd_positive must consist of odd roots")
        if 2 * len(self.odd_positive) != len(odd):
            raise ValueError("odd_positive must pick one of each +- pair")
        for r in self.odd_positive:
            if -r in self.odd_positive:
                raise ValueError(f"both {r} and {-r} declared positive")

    @property
    def positive(self) -> tuple[Root, ...]:
        return self.system.even_positive + self.odd_positive_sorted

    @cached_property
    def odd_positive_sorted(self) -> tuple[Root, ...]:
        return tuple(sorted(self.odd_positive, key=Root.sort_key))

    @cached_property
    def simple(self) -> tuple[Root, ...]:
        """Minimal generating basis: positives not a sum of two positives."""
        return simple_basis(self.positive)

    @cached_property
    def simple_isotropic(self) -> tuple[Root, ...]:
        return tuple(r for r in self.simple if r.isotropic)

    @cached_property
    def rho_triple(self) -> RhoTriple:
        rho0 = self.system.rho0
        # rho1 sums over Delta_1^+ intersect -(Delta_1^-); for these
        # families every positive odd root has its negative among the odd
        # negatives, so the literal filter keeps all of Delta_1^+.
        acc = zero_weight(self.system.family)
        for r in self.odd_positive:
            if -r not in self.odd_positive:
                acc = acc + r.weight
        rho1 = acc * Fraction(1, 2)
        return RhoTriple(rho0, rho1, rho0 - rho1)

    @property
    def rho(self) -> Weight:
        return self.rho_triple.rho

    @cached_property
    def genericity_table(
        self,
    ) -> tuple[tuple[Weight, Fraction, Fraction, tuple[Fraction, ...]], ...]:
        """Per even positive root alpha: (alpha_check, lo, hi, sums).

        lo and hi sum the negative and the positive pairings <gamma,
        alpha_check> over all odd roots gamma; sums are the sorted
        distinct subset sums of <gamma, alpha_check> over the odd roots
        negative in this system.  The genericity tests see an odd subset
        sum only through these scalars.
        """
        odd = [r for r in self.system.roots if r.parity == ODD]
        out = []
        for alpha in self.system.even_positive:
            av = coroot(alpha)
            pairings = [form(r.weight, av) for r in odd]
            sums = subset_sums(
                Fraction(0),
                [p for r, p in zip(odd, pairings) if r not in self.odd_positive],
            )
            out.append((
                av,
                sum((p for p in pairings if p < 0), Fraction(0)),
                sum((p for p in pairings if p > 0), Fraction(0)),
                tuple(sorted(sums)),
            ))
        return tuple(out)

    def to_json(self) -> dict:
        return {"odd_positive": [root_to_json(r) for r in self.odd_positive_sorted]}


def borel_from_json(system: RootSystem, obj: dict) -> BorelSystem:
    roots = frozenset(root_from_json(o) for o in obj["odd_positive"])
    return BorelSystem(system, roots)


@lru_cache(maxsize=None)
def distinguished_borel(system: RootSystem) -> BorelSystem:
    """The distinguished positive system.

    gl/sl: eps-before-del order (all eps_i - del_j positive).  osp: the
    convention with simple roots del_1-del_2, ..., del_n - eps_1,
    eps_1-eps_2, ..., ending in eps_d (m odd) or eps_{d-1}+eps_d (m even,
    degenerating to del_n + eps_1 for m = 2).  q(n): the unique system.
    """
    fam = system.family
    odd = [r for r in system.roots if r.parity == ODD]
    if fam.kind in ("gl", "sl"):
        pos = [r for r in odd if sum(r.weight.eps) > 0]
    elif fam.kind == "osp":
        # del_i +- eps_j and (m odd) del_i are all positive.
        pos = [r for r in odd if sum(r.weight.dels) > 0]
    else:  # q(n): odd part mirrors the even positive system
        pos = [r for r in odd if _first_nonzero(r.weight) > 0]
    return BorelSystem(system, frozenset(pos))


def _first_nonzero(w: Weight) -> Fraction:
    for a in w.eps + w.dels:
        if a != 0:
            return a
    return Fraction(0)


def odd_reflection(b: BorelSystem, gamma: Root) -> BorelSystem:
    """Replace the isotropic simple root gamma by -gamma."""
    if not gamma.isotropic:
        raise OddReflectionError(f"{gamma} is not isotropic")
    if gamma not in b.simple:
        raise OddReflectionError(f"{gamma} is not simple in this system")
    new = BorelSystem(b.system, (b.odd_positive - {gamma}) | {-gamma})
    if new.rho != b.rho + gamma.weight:
        raise RuntimeError("rho-shift invariant violated")
    return new


def odd_reflection_path(b: BorelSystem, target: BorelSystem) -> list[Root]:
    """A chain of isotropic roots whose flips carry b to target.

    Greedy: at each step flip the lexicographically least isotropic
    simple root that is negative in the target.  Each step strictly
    shrinks the set of misplaced isotropic roots, so this terminates,
    and a flippable root always exists while systems differ.
    """
    if b.system is not target.system and b.system != target.system:
        raise ValueError("Borel systems belong to different root systems")
    path: list[Root] = []
    cur = b
    while cur.odd_positive != target.odd_positive:
        candidates = [
            g for g in cur.simple_isotropic if -g in target.odd_positive
        ]
        if not candidates:
            raise RuntimeError("no flippable simple root; systems unreachable")
        gamma = min(candidates, key=Root.sort_key)
        path.append(gamma)
        cur = odd_reflection(cur, gamma)
    return path


def reverse_path(path: Sequence[Root]) -> list[Root]:
    return [-g for g in reversed(path)]


def path_rhos(b: BorelSystem, path: Sequence[Root]) -> list[Weight]:
    """rho of each intermediate system: rho shifts by gamma per step."""
    rhos = [b.rho]
    for g in path:
        rhos.append(rhos[-1] + g.weight)
    return rhos


def track_highest_weight(
    lam: Weight,
    b: BorelSystem,
    path: Sequence[Root],
    *,
    rhos: Sequence[Weight] | None = None,
    validate: bool = False,
) -> Weight:
    """Highest weight of the same simple module after the flips in path.

    Per step: keep the weight when <lambda + rho, gamma> = 0, else
    subtract gamma.  Pass precomputed rhos to skip re-deriving them; with
    validate=True each gamma is checked to be isotropic simple in the
    intermediate system it is applied to.
    """
    if validate:
        cur_b = b
        for g in path:
            cur_b = odd_reflection(cur_b, g)  # raises if invalid
    if rhos is None:
        rhos = path_rhos(b, path)
    cur = lam
    for g, rho in zip(path, rhos):
        if form(cur + rho, g.weight) != 0:
            cur = cur - g.weight
    return cur


def enumerate_borels(system: RootSystem, cap: int = 10_000) -> list[BorelSystem]:
    """All positive systems sharing the canonical even part (BFS by flips)."""
    start = distinguished_borel(system)
    seen = {start.odd_positive: start}
    frontier = [start]
    while frontier:
        nxt = []
        for bsys in frontier:
            for g in bsys.simple_isotropic:
                nb = odd_reflection(bsys, g)
                if nb.odd_positive not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded(f"Borel enumeration cap {cap} exceeded")
                    seen[nb.odd_positive] = nb
                    nxt.append(nb)
        frontier = nxt
    return sorted(seen.values(), key=lambda b: tuple(r.sort_key() for r in b.odd_positive_sorted))
