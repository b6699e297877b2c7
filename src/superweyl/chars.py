"""Formal weight multisets of Verma-filtration highest weights.

Restricting a Verma module to the even subalgebra yields a filtration by
even Verma modules whose highest weights are the subset sums of the
negative odd roots added to the highest weight; q-type carries an
overall constant multiplicity that is kept symbolic.  The character
shadow of the reflection twist is the multiset identity
s_alpha o (lambda + Gamma) = s_alpha . lambda + Gamma, checked exactly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .rootdata import (
    ODD,
    CapExceeded,
    Root,
    RootSystem,
    Weight,
    form,
    subset_sums,
    weight_to_json,
    zero_weight,
)
from .borel import BorelSystem
from .generic import is_weakly_generic
from .typicality import bar_root
from .weyl import dot_action, reflection_elt


@dataclass(frozen=True)
class WeightMultiset:
    entries: tuple[tuple[Weight, int], ...]

    @staticmethod
    def from_counter(c: Counter) -> "WeightMultiset":
        items = tuple(
            sorted(
                ((w, m) for w, m in c.items() if m),
                key=lambda kv: kv[0].sort_key(),
            )
        )
        if any(m < 0 for _, m in items):
            raise ValueError("negative multiplicity")
        return WeightMultiset(items)

    def counter(self) -> Counter:
        return Counter(dict(self.entries))

    def shift(self, v: Weight) -> "WeightMultiset":
        return WeightMultiset.from_counter(
            Counter({w + v: m for w, m in self.entries})
        )

    def map(self, f) -> "WeightMultiset":
        c = Counter()
        for w, m in self.entries:
            c[f(w)] += m
        return WeightMultiset.from_counter(c)

    @property
    def total(self) -> int:
        return sum(m for _, m in self.entries)

    def __contains__(self, w: Weight) -> bool:
        return any(w == v for v, _ in self.entries)

    def to_json(self) -> list[dict]:
        return [
            {"weight": weight_to_json(w), "multiplicity": m}
            for w, m in self.entries
        ]


@dataclass(frozen=True)
class VermaRestriction:
    """Highest weights of the even Verma filtration; q-type weights all
    carry one unknown constant multiplicity, recorded symbolically."""

    weights: WeightMultiset
    multiplicity_symbol: Optional[str] = None


def _odd_negatives(b: BorelSystem) -> list[Weight]:
    return [
        r.weight
        for r in b.system.roots
        if r.parity == ODD and r not in b.odd_positive
    ]


@lru_cache(maxsize=64)
def _gamma(b: BorelSystem, cap: int = 24) -> tuple[tuple[Weight, int], ...]:
    """Gamma: the subset sums of the negative odd roots of b, with
    multiplicity, capped on the number of those roots."""
    negatives = _odd_negatives(b)
    if len(negatives) > cap:
        raise CapExceeded(
            f"{len(negatives)} negative odd roots exceed the cap {cap}"
        )
    return tuple(subset_sums(zero_weight(b.system.family), negatives).items())


def verma_restriction_weights(
    lam: Weight, b: BorelSystem, cap: int = 24
) -> VermaRestriction:
    """Multiset {lambda + sum(I) : I over the negative odd roots}."""
    ms = WeightMultiset.from_counter(
        Counter({lam + g: mult for g, mult in _gamma(b, cap)})
    )
    symbol = "k" if b.system.family.kind == "q" else None
    return VermaRestriction(ms, symbol)


def twisted_verma_character_equal(
    lam: Weight, alpha: Root, b: BorelSystem
) -> bool:
    """Exact multiset identity s_alpha o (lambda + Gamma) =
    s_alpha . lambda + Gamma; False signals an implementation bug."""
    system = b.system
    if alpha not in system.simple_even_set:
        raise ValueError(f"{alpha} is not a simple even root")
    s = reflection_elt(system, alpha)
    rho0 = system.rho0
    moved = dot_action(s, lam, b)
    lhs: Counter = Counter()
    rhs: Counter = Counter()
    for g, mult in _gamma(b):
        lhs[s.apply(lam + g + rho0) - rho0] += mult
        rhs[moved + g] += mult
    return lhs == rhs


def generic_restriction_decomposition(
    lam: Weight, b: BorelSystem
) -> WeightMultiset:
    """Candidate summands of the completely reducible restriction of a
    weakly generic simple module: the translate lambda + Gamma (a bound
    with containment semantics, each summand repeated k times)."""
    if not is_weakly_generic(lam, b):
        raise ValueError("decomposition requires a weakly generic weight")
    return verma_restriction_weights(lam, b).weights


def penkov_decomposition_q(
    lam: Weight,
    system: RootSystem,
    *,
    pairing: str = "printed",
    cap: int = 24,
) -> WeightMultiset:
    """q(n) restriction for integral weakly generic weights: the multiset
    {lambda - sum(I) : I subset of S_lambda}.

    S_lambda keeps the positive odd roots with nonzero pairing against
    lambda.  The printed form pairs the root itself; the 'bar' switch
    pairs its bar (the non-atypical roots), the variant under which the
    reflection-equivariance of the decomposition is provable.  The
    printed form is the default.
    """
    from .borel import distinguished_borel

    if system.family.kind != "q":
        raise ValueError("q-type decomposition only")
    if any(a.denominator != 1 for a in lam.eps):
        raise ValueError("integral weight required")
    b = distinguished_borel(system)
    if not is_weakly_generic(lam, b):
        raise ValueError("weakly generic weight required")
    if pairing == "printed":
        key = lambda r: form(r.weight, lam)
    elif pairing == "bar":
        key = lambda r: form(bar_root(r), lam)
    else:
        raise ValueError("pairing must be 'printed' or 'bar'")
    s_roots = [r.weight for r in b.odd_positive_sorted if key(r) != 0]
    if len(s_roots) > cap:
        raise CapExceeded("subset cap exceeded")
    return WeightMultiset.from_counter(subset_sums(lam, [-w for w in s_roots]))
