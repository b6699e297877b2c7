"""Typicality and atypical-root bookkeeping.

Basic classical families: a positive isotropic root gamma is atypical
for lambda when <lambda + rho, gamma> = 0; strong typicality tests every
positive odd root.  q(n): an odd positive root a = eps_i - eps_j is
atypical when <lambda, eps_i + eps_j> = 0; strong typicality for q(n)
is only exposed as the heuristic "typical and all <lambda, eps_i>
nonzero", flagged as approximate because the authoritative definition is
not pinned down here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .rootdata import Root, Weight, form, root_to_json, weight_to_json
from .borel import BorelSystem


@dataclass(frozen=True)
class AtypicalityReport:
    weight: Weight
    atypical_roots: tuple[Root, ...]
    typical: bool
    strongly_typical: Optional[bool]
    # For q(n) the strong flag is a stand-in, not the literature notion.
    strong_is_approximate: bool = False

    def to_json(self) -> dict:
        return {
            "weight": weight_to_json(self.weight),
            "atypical_roots": [root_to_json(r) for r in self.atypical_roots],
            "typical": self.typical,
            "strongly_typical": self.strongly_typical,
            "strong_is_approximate": self.strong_is_approximate,
        }


def bar_root(alpha: Root) -> Weight:
    """For q(n): eps_i - eps_j bars to eps_i + eps_j."""
    return Weight(tuple(abs(a) for a in alpha.weight.eps), alpha.weight.dels)


def atypicality(lam: Weight, b: BorelSystem) -> AtypicalityReport:
    fam = b.system.family
    if fam.kind == "q":
        atyp = tuple(
            r
            for r in b.odd_positive_sorted
            if form(lam, bar_root(r)) == 0
        )
        typical = not atyp
        strong = typical and all(a != 0 for a in lam.eps)
        return AtypicalityReport(lam, atyp, typical, strong, True)
    shifted = lam + b.rho
    atyp = tuple(
        r
        for r in b.odd_positive_sorted
        if r.isotropic and form(shifted, r.weight) == 0
    )
    typical = not atyp
    strong = all(form(shifted, r.weight) != 0 for r in b.odd_positive)
    return AtypicalityReport(lam, atyp, typical, strong, False)


def check_orthogonal_atypicality(lam: Weight, b: BorelSystem) -> bool:
    """A dot-regular weight is never atypical at two non-orthogonal roots.

    Verifier: returns True when the statement holds for lam; the caller
    asserts it on regular inputs.  Regularity here is for the shifted
    dot action (super rho), the notion under which the statement is a
    theorem; circle-regularity is not enough for osp/q.
    """
    from .weyl import is_dot_regular

    if not is_dot_regular(lam, b):
        raise ValueError("check requires a dot-regular weight")
    atyp = atypicality(lam, b).atypical_roots
    for i, g1 in enumerate(atyp):
        for g2 in atyp[i + 1:]:
            if form(g1.weight, g2.weight) != 0:
                return False
    return True


def shifted_atypicality_equal(
    lam: Weight, gamma: Root, sign: int, b: BorelSystem
) -> bool:
    """Shifting by an atypical root preserves the atypical-root set.

    Preconditions: lam and lam + sign*gamma dot-regular, gamma atypical
    for lam.  Returns True when the shifted weight has exactly the same
    atypical roots.
    """
    from .weyl import is_dot_regular

    if sign not in (1, -1):
        raise ValueError("sign must be +-1")
    shifted = lam + gamma.weight * sign
    if not is_dot_regular(lam, b) or not is_dot_regular(shifted, b):
        raise ValueError("both weights must be dot-regular")
    atyp = atypicality(lam, b)
    if gamma not in atyp.atypical_roots:
        raise ValueError(f"{gamma} is not atypical for {lam}")
    return atypicality(shifted, b).atypical_roots == atyp.atypical_roots
