"""Genericity of weights: odd subset-sum displacement sets and chamber
confinement, plus the dominance order used for orbit maximality.

Gamma collects subset sums over the negative odd roots of a Borel;
GammaTilde over all odd roots.  A weight is weakly generic when the
whole translate lambda + GammaTilde sits in one open Weyl chamber, and
generic when every point of lambda + Gamma is weakly generic.  Both
tests are evaluated per positive even coroot, without enumerating
subsets: a subset sum enters only through its pairing with the coroot.
For weak genericity the attainable displacements form an interval whose
endpoints are themselves subset sums, so the two extreme values decide
it.  For genericity each coroot fails on an interval of pairings, and
one bisection in the sorted scalar subset sums of that coroot (the
Borel's genericity_table) decides every point of Gamma at once, so the
cost no longer grows with the 2^k subset sums.  The literal
enumerations are the cross-check oracles is_weakly_generic_enumerated
and is_generic_enumerated in superweyl.oracles.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .rootdata import ODD, CapExceeded, Weight, form, subset_sums, zero_weight
from .borel import BorelSystem
from .weyl import dot_action, weyl_group


@dataclass(frozen=True)
class GammaSets:
    gamma: tuple[tuple[Weight, int], ...]
    gamma_tilde: tuple[tuple[Weight, int], ...]


@lru_cache(maxsize=None)
def gamma_sets(b: BorelSystem, cap: int = 24) -> GammaSets:
    """Exact multisets of odd subset sums for a Borel system."""
    system = b.system
    odd = [r for r in system.roots if r.parity == ODD]
    if len(odd) > cap:
        raise CapExceeded(
            f"|odd roots| = {len(odd)} exceeds the subset-sum cap {cap}"
        )
    zero = zero_weight(system.family)
    negatives = [r.weight for r in odd if r not in b.odd_positive]
    gamma = subset_sums(zero, negatives)
    gamma_tilde = subset_sums(zero, [r.weight for r in odd])

    def pack(c):
        return tuple(sorted(c.items(), key=lambda kv: kv[0].sort_key()))

    return GammaSets(pack(gamma), pack(gamma_tilde))


def is_weakly_generic(lam: Weight, b: BorelSystem) -> bool:
    """lambda + GammaTilde confined to one open chamber.

    Checked per coroot via the extreme attainable displacements; exact
    and equivalent to enumerating the full multiset.
    """
    shifted = lam + b.system.rho0
    for av, lo, hi, _ in b.genericity_table:
        base = form(shifted, av)
        if base + lo <= 0 <= base + hi:
            return False
    return True


def is_generic(lam: Weight, b: BorelSystem) -> bool:
    """Every point of lambda + Gamma is weakly generic.

    lambda + g fails weak genericity at the coroot a exactly when
    -hi - <lambda + rho0, a> <= <g, a> <= -lo - <lambda + rho0, a>, so
    one bisection in the sorted scalar subset sums of a decides every g
    in Gamma at once.
    """
    shifted = lam + b.system.rho0
    for av, lo, hi, sums in b.genericity_table:
        base = form(shifted, av)
        i = bisect_left(sums, -hi - base)
        if i < len(sums) and sums[i] <= -lo - base:
            return False
    return True


def is_generic_orbitwise(lam: Weight, b: BorelSystem, *, cap: int = 10**6) -> bool:
    """is_generic at every w . lambda over the full Weyl group."""
    W = weyl_group(b.system, cap)
    return all(is_generic(dot_action(w, lam, b), b) for w in W)


# --- dominance order ------------------------------------------------------

def span_coefficients(
    target: Weight, roots: Sequence[Weight]
) -> list[Fraction] | None:
    """Solve target = sum c_i roots_i exactly; None when unsolvable.

    The root sets used here (simple systems) are linearly independent,
    so the solution is unique when it exists.
    """
    dim = len(target.eps) + len(target.dels)
    cols = [list(r.eps) + list(r.dels) for r in roots]
    rhs = list(target.eps) + list(target.dels)
    # Gaussian elimination on the augmented [cols | rhs] system.
    rows = [[cols[j][i] for j in range(len(roots))] + [rhs[i]] for i in range(dim)]
    n_cols = len(roots)
    pivot_rows = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, dim) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(dim):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * bb for a, bb in zip(rows[i], rows[r])]
        pivot_rows.append((r, c))
        r += 1
    # inconsistency: zero row with nonzero rhs
    for i in range(dim):
        if all(x == 0 for x in rows[i][:-1]) and rows[i][-1] != 0:
            return None
    coeffs = [Fraction(0)] * n_cols
    for i, c in pivot_rows:
        coeffs[c] = rows[i][-1]
    # verify (guards against underdetermined input)
    acc_e = [Fraction(0)] * len(target.eps)
    acc_d = [Fraction(0)] * len(target.dels)
    for cf, root in zip(coeffs, roots):
        for k, a in enumerate(root.eps):
            acc_e[k] += cf * a
        for k, a in enumerate(root.dels):
            acc_d[k] += cf * a
    if tuple(acc_e) != target.eps or tuple(acc_d) != target.dels:
        return None
    return coeffs


def dominance_leq(
    lower: Weight, upper: Weight, order_roots: Sequence[Weight]
) -> bool:
    """upper >= lower: the difference is a Z>=0 combination of order_roots."""
    coeffs = span_coefficients(upper - lower, order_roots)
    if coeffs is None:
        return False
    return all(c.denominator == 1 and c >= 0 for c in coeffs)


def dominance_lt(lower: Weight, upper: Weight, order_roots: Sequence[Weight]) -> bool:
    return lower != upper and dominance_leq(lower, upper, order_roots)


def default_order_roots(b: BorelSystem) -> list[Weight]:
    """Generating set of the weight order: the simple basis of b.

    Duplicated vectors (q-type parity doubling) are collapsed.
    """
    seen = []
    for r in b.simple:
        if r.weight not in seen:
            seen.append(r.weight)
    return seen


def is_orbit_maximal(
    lam: Weight,
    b: BorelSystem,
    *,
    order_roots: Sequence[Weight] | None = None,
    cap: int = 10**6,
) -> bool:
    """No element of W_lambda moves lambda strictly up in the dot order."""
    from .weyl import integral_weyl_group

    system = b.system
    roots = (
        list(order_roots) if order_roots is not None else default_order_roots(b)
    )
    sub = integral_weyl_group(system, lam, verify_lattice=False, cap=cap)
    for u in sub:
        if dominance_lt(lam, dot_action(u, lam, b), roots):
            return False
    return True
