"""Star actions: deformed reflections obtained by transporting a highest
weight to a Borel system where the reflecting root is simple, applying
the shifted reflection there, and transporting back.

A star action map assigns to each simple even root a Borel system (with
the fixed even part) in which that root, or its half, is simple.  Words
in the simple reflections act through these deformed reflections; only
the involution relation s^2 = 1 is imposed, so words form a free Coxeter
group and orbits may a priori be infinite.  Orbit enumeration therefore
runs a capped BFS with an explicit truncation flag.

q(n) has its own case formula (plain swap when the bar-pairing is
nonzero, rho0-shifted swap when it vanishes) and is handled by separate
entry points.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .rootdata import (
    ODD,
    Root,
    RootSystem,
    Weight,
    coroot,
    form,
    weight_to_json,
)
from .borel import (
    BorelSystem,
    distinguished_borel,
    odd_reflection,
    odd_reflection_path,
    path_rhos,
    reverse_path,
    track_highest_weight,
)
from .typicality import bar_root
from .weyl import chamber, reflection_elt
from .generic import default_order_roots, dominance_lt, is_weakly_generic


class Finiteness(enum.Enum):
    """Whether the simple module is alpha-finite, alpha-free, or the
    implemented criteria do not decide it."""

    FINITE = "finite"
    FREE = "free"
    UNDECIDED = "undecided"


class StarActionError(ValueError):
    pass


@dataclass(frozen=True)
class _TrackPlan:
    path: tuple[Root, ...]
    rhos: tuple[Weight, ...]
    back_path: tuple[Root, ...]
    back_rhos: tuple[Weight, ...]
    rho_hat: Weight


@dataclass(frozen=True)
class StarMap:
    """Assignment of a Borel system to each simple even root."""

    reference: BorelSystem
    assignment: tuple[tuple[Root, BorelSystem], ...]
    name: str = field(default="custom", compare=False)

    def __post_init__(self):
        system = self.reference.system
        keys = {a for a, _ in self.assignment}
        if keys != system.simple_even_set:
            raise StarActionError(
                "star map must assign a Borel to every simple even root"
            )
        for alpha, bhat in self.assignment:
            if bhat.system != system:
                raise StarActionError("assigned Borel from a different system")
            simple_ws = {r.weight for r in bhat.simple}
            half = alpha.weight * Fraction(1, 2)
            if alpha.weight not in simple_ws and half not in simple_ws:
                raise StarActionError(
                    f"{alpha} (or its half) is not simple in the assigned Borel"
                )
        object.__setattr__(self, "_plans", {})

    def borel_for(self, alpha: Root) -> BorelSystem:
        for a, b in self.assignment:
            if a == alpha:
                return b
        raise StarActionError(f"{alpha} is not a simple even root here")

    def plan(self, alpha: Root) -> _TrackPlan:
        plans = self._plans
        if alpha not in plans:
            bhat = self.borel_for(alpha)
            path = tuple(odd_reflection_path(self.reference, bhat))
            rhos = tuple(path_rhos(self.reference, path))
            back = tuple(reverse_path(path))
            back_rhos = tuple(path_rhos(bhat, back))
            plans[alpha] = _TrackPlan(path, rhos, back, back_rhos, rhos[-1])
        return plans[alpha]


def star_map(
    reference: BorelSystem,
    assignment: Mapping[Root, BorelSystem],
    name: str = "custom",
) -> StarMap:
    items = tuple(sorted(assignment.items(), key=lambda kv: kv[0].sort_key()))
    return StarMap(reference, items, name)


def trivial_star_map(b: BorelSystem) -> StarMap:
    """Every simple even root mapped to the reference Borel itself.

    Valid whenever each simple even root (or its half) is simple in b,
    e.g. for the distinguished Borel of a type-I family, where this map
    recovers the usual shifted action, and for osp(1|2n).
    """
    return star_map(
        b, {a: b for a in b.system.simple_even}, name="dot"
    )


def antidistinguished_star_map(system: RootSystem) -> StarMap:
    """gl/sl map sending every simple even root to the Borel with all
    odd positives negated (the delta-before-eps order)."""
    if system.family.kind not in ("gl", "sl"):
        raise StarActionError("antidistinguished map is a gl/sl construction")
    b = distinguished_borel(system)
    anti = BorelSystem(system, frozenset(-r for r in b.odd_positive))
    return star_map(b, {a: anti for a in system.simple_even}, name="example71")


def _osp_bhat(system: RootSystem) -> BorelSystem:
    """The Borel reached from the distinguished one by flipping
    d_n - e_1, ..., d_n - e_d; there 2*d_n (or d_n) is simple."""
    b = distinguished_borel(system)
    fam = system.family
    n, d = fam.del_dim, fam.eps_dim
    cur = b
    for j in range(d):
        gamma = system.find_root(
            Weight(
                tuple(Fraction(-1) if k == j else Fraction(0) for k in range(d)),
                tuple(Fraction(1) if i == n - 1 else Fraction(0) for i in range(n)),
            ),
            ODD,
        )
        cur = odd_reflection(cur, gamma)
    return cur


def _osp_btilde(system: RootSystem) -> BorelSystem:
    """The eps-before-delta Borel: all d_i - e_j flipped."""
    b = distinguished_borel(system)
    flips = frozenset(
        r
        for r in b.odd_positive
        if r.isotropic and sum(r.weight.eps) < 0
    )
    return BorelSystem(system, (b.odd_positive - flips) | {-r for r in flips})


@lru_cache(maxsize=64)
def osp_star_map(system: RootSystem, variant: str) -> StarMap:
    """The two named osp star maps, built once per (system, variant) so
    that the transport plans of the returned map are shared.

    'star_prime' sends every simple even root to the distinguished
    Borel except 2*d_n, which goes to the system where d_n (m odd) or
    2*d_n (m even) is simple.  'star' sends the so(m) simples to the
    distinguished Borel and the sp(2n) simples to the eps-before-delta
    system, giving genuine actions of both factor Weyl groups.
    """
    if system.family.kind != "osp":
        raise StarActionError("osp star maps require an osp family")
    b = distinguished_borel(system)
    fam = system.family
    if variant == "star_prime":
        bhat = _osp_bhat(system)
        assignment = {}
        for a in system.simple_even:
            is_two_dn = a.weight.dels and a.weight.dels[-1] == 2
            assignment[a] = bhat if is_two_dn else b
        return star_map(b, assignment, name="osp-star-prime")
    if variant == "star":
        btilde = _osp_btilde(system)
        assignment = {}
        for a in system.simple_even:
            is_sp = any(x != 0 for x in a.weight.dels)
            assignment[a] = btilde if is_sp else b
        return star_map(b, assignment, name="osp-star")
    raise StarActionError(f"unknown osp star variant {variant!r}")


def star_action(map_: StarMap, alpha: Root, lam: Weight) -> Weight:
    """s_alpha * lambda for a basic classical family."""
    system = map_.reference.system
    if system.family.kind == "q":
        raise StarActionError("use star_action_q for q(n)")
    if alpha not in system.simple_even_set:
        raise StarActionError(f"{alpha} is not a simple even root")
    plan = map_.plan(alpha)
    moved = track_highest_weight(lam, map_.reference, plan.path, rhos=plan.rhos)
    s = reflection_elt(system, alpha)
    reflected = s.apply(moved + plan.rho_hat) - plan.rho_hat
    return track_highest_weight(
        reflected, map_.borel_for(alpha), plan.back_path, rhos=plan.back_rhos
    )


def star_action_q(system: RootSystem, alpha: Root, lam: Weight) -> Weight:
    """q(n): plain reflection when <lambda, bar(alpha)> != 0, else the
    rho0-shifted one (s_alpha lambda - alpha)."""
    if system.family.kind != "q":
        raise StarActionError("star_action_q requires the q family")
    if alpha not in system.simple_even_set:
        raise StarActionError(f"{alpha} is not a simple even root")
    s = reflection_elt(system, alpha)
    out = s.apply(lam)
    if form(lam, bar_root(alpha)) == 0:
        out = out - alpha.weight
    return out


def apply_generator(
    map_or_system: StarMap | RootSystem, alpha: Root, lam: Weight
) -> Weight:
    if isinstance(map_or_system, StarMap):
        return star_action(map_or_system, alpha, lam)
    return star_action_q(map_or_system, alpha, lam)


def star_word_apply(
    map_or_system: StarMap | RootSystem, word: Sequence[Root], lam: Weight
) -> Weight:
    """Apply a word of simple even roots right-to-left."""
    cur = lam
    for alpha in reversed(word):
        cur = apply_generator(map_or_system, alpha, cur)
    return cur


def star_closed_form_osp(b: BorelSystem, lam: Weight) -> Weight:
    """Closed form of s_{2 d_n} *' lambda for weakly generic lambda.

    Cases: no atypical root d_n +- e_i gives the plain dot reflection;
    an atypical d_n - e_i subtracts d_n + e_i afterwards; an atypical
    d_n + e_i subtracts d_n - e_i.  b is the distinguished Borel.
    """
    system = b.system
    if system.family.kind != "osp":
        raise StarActionError("closed form is specific to osp")
    if not is_weakly_generic(lam, b):
        raise StarActionError("closed form requires a weakly generic weight")
    fam = system.family
    n, d = fam.del_dim, fam.eps_dim
    two_dn = next(
        a for a in system.simple_even if a.weight.dels and a.weight.dels[-1] == 2
    )
    from .weyl import dot_action

    s = reflection_elt(system, two_dn)
    base = dot_action(s, lam, b)
    shifted = lam + b.rho
    dn = two_dn.weight * Fraction(1, 2)
    for j in range(d):
        ej = Weight(
            tuple(Fraction(1) if k == j else Fraction(0) for k in range(d)),
            (Fraction(0),) * n,
        )
        if form(shifted, dn - ej) == 0:
            return base - dn - ej
        if form(shifted, dn + ej) == 0:
            return base - dn + ej
    return base


def star_q_closed_form(
    system: RootSystem, word: Sequence[Root], lam: Weight
) -> Weight:
    """Weakly generic q(n) words collapse to one shifted reflection:
    w(lambda + sum of the atypical positives sent negative by w)."""
    if system.family.kind != "q":
        raise StarActionError("closed form is specific to q(n)")
    if not is_weakly_generic(lam, distinguished_borel(system)):
        raise StarActionError("closed form requires a weakly generic weight")
    w = None
    for alpha in word:
        s = reflection_elt(system, alpha)
        w = s if w is None else w.compose(s)
    if w is None:
        return lam
    b = distinguished_borel(system)
    acc = lam
    for r in b.odd_positive_sorted:
        if form(lam, bar_root(r)) != 0:
            continue
        img = w.apply(r.weight)
        if _is_negative_q(img):
            acc = acc + r.weight
    return w.apply(acc)


def _is_negative_q(v: Weight) -> bool:
    for a in v.eps:
        if a != 0:
            return a < 0
    return False


# --- orbits ---------------------------------------------------------------

@dataclass(frozen=True)
class OrbitGraph:
    vertices: tuple[Weight, ...]
    edges: tuple[tuple[Weight, Root, Weight], ...]
    base: Weight
    truncated: bool

    def to_json(self) -> dict:
        return {
            "vertices": [
                weight_to_json(v)
                for v in sorted(self.vertices, key=Weight.sort_key)
            ],
            "edges": [
                {
                    "from": weight_to_json(a),
                    "label": str(alpha.weight),
                    "to": weight_to_json(c),
                }
                for a, alpha, c in sorted(
                    self.edges,
                    key=lambda e: (
                        e[0].sort_key(),
                        e[1].sort_key(),
                        e[2].sort_key(),
                    ),
                )
            ],
            "truncated": self.truncated,
        }

    def to_dot(self, system: RootSystem | None = None) -> str:
        palette = [
            "lightblue", "lightyellow", "lightpink", "lightgreen",
            "lightgrey", "orange", "cyan", "violet", "wheat", "salmon",
        ]
        lines = ["graph star_orbit {"]
        ordered = sorted(self.vertices, key=Weight.sort_key)
        index = {v: i for i, v in enumerate(ordered)}
        for v, i in index.items():
            color = ""
            if system is not None:
                c = chamber(system, v)
                color = f' style=filled fillcolor="{palette[hash(c) % len(palette)]}"'
            lines.append(f'  n{i} [label="{v}"{color}];')
        seen = set()
        for a, alpha, c in sorted(
            self.edges,
            key=lambda e: (e[0].sort_key(), e[1].sort_key(), e[2].sort_key()),
        ):
            key = frozenset((index[a], index[c])), alpha
            if key in seen:
                continue
            seen.add(key)
            lines.append(
                f'  n{index[a]} -- n{index[c]} [label="{alpha.weight}"];'
            )
        lines.append("}")
        return "\n".join(lines)


def star_orbit(
    map_or_system: StarMap | RootSystem, lam: Weight, max_vertices: int = 10_000
) -> OrbitGraph:
    """BFS closure of lambda under all star generators.

    Words act through a free Coxeter group, so the orbit is not a priori
    finite; when the vertex cap is hit the graph is returned with
    truncated=True (a result state, not an error).
    """
    if max_vertices < 1:
        raise ValueError("max_vertices must be at least 1")
    system = (
        map_or_system.reference.system
        if isinstance(map_or_system, StarMap)
        else map_or_system
    )
    gens = list(system.simple_even)
    vertices = {lam}
    order = [lam]
    edges = []
    frontier = [lam]
    truncated = False
    while frontier and not truncated:
        nxt = []
        for v in sorted(frontier, key=Weight.sort_key):
            for alpha in gens:
                w = apply_generator(map_or_system, alpha, v)
                edges.append((v, alpha, w))
                if w not in vertices:
                    if len(vertices) >= max_vertices:
                        truncated = True
                        break
                    vertices.add(w)
                    order.append(w)
                    nxt.append(w)
            if truncated:
                break
        frontier = nxt
    return OrbitGraph(tuple(order), tuple(edges), lam, truncated)


# --- alpha-finiteness -----------------------------------------------------

def alpha_finite(
    lam: Weight,
    alpha: Root,
    b: BorelSystem,
    *,
    order_roots: Sequence[Weight] | None = None,
    moved: Weight | None = None,
) -> Finiteness:
    """Is the simple module with highest weight lam alpha-finite?

    osp: integrality of <lambda, alpha_check> plus s_alpha *' lambda
    strictly below lambda.  q: the same with the q star action.  Type I
    families with the distinguished Borel: the classical criterion
    <lambda + rho, alpha_check> in N (the even simple roots are simple
    in the full system and carry no odd root space, so the classical
    reduction applies in both directions).  Anything else: UNDECIDED.

    A caller that already holds s_alpha *' lambda (osp, the star' map)
    or the q image passes it as moved; otherwise it is computed here.
    """
    system = b.system
    fam = system.family
    if alpha not in system.simple_even_set:
        raise StarActionError(f"{alpha} is not a simple even root")
    roots = list(order_roots) if order_roots is not None else default_order_roots(b)
    if fam.kind == "q":
        if form(lam, coroot(alpha)).denominator != 1:
            return Finiteness.FREE
        if moved is None:
            moved = star_action_q(system, alpha, lam)
        return (
            Finiteness.FINITE
            if dominance_lt(moved, lam, roots)
            else Finiteness.FREE
        )
    if fam.kind == "osp":
        if b != distinguished_borel(system):
            return Finiteness.UNDECIDED
        if form(lam, coroot(alpha)).denominator != 1:
            return Finiteness.FREE
        if moved is None:
            moved = star_action(osp_star_map(system, "star_prime"), alpha, lam)
        return (
            Finiteness.FINITE
            if dominance_lt(moved, lam, roots)
            else Finiteness.FREE
        )
    # gl / sl, type I
    if b != distinguished_borel(system):
        return Finiteness.UNDECIDED
    v = form(lam + b.rho, coroot(alpha))
    if v.denominator != 1:
        return Finiteness.FREE
    return Finiteness.FINITE if v >= 1 else Finiteness.FREE


def alpha_finite_direct(
    lam: Weight, alpha: Root, b: BorelSystem, bhat: BorelSystem
) -> Finiteness:
    """Reduction oracle: transport into a system where alpha (or its
    half) is simple and no odd root space sits at alpha, then apply the
    classical test <lambda_hat + rho_hat, alpha_check> > 0.

    The threshold self-adjusts: the rho_hat pairing is 1 for an sl(2)
    type reduction and 1/2 when alpha/2 is an odd simple root, which
    reproduces the rank-one classifications exactly.
    """
    system = b.system
    if system.family.kind == "q":
        return Finiteness.UNDECIDED  # odd root space at alpha never vanishes
    simple_ws = {r.weight for r in bhat.simple}
    half = alpha.weight * Fraction(1, 2)
    if alpha.weight not in simple_ws and half not in simple_ws:
        raise StarActionError("alpha (or alpha/2) must be simple in bhat")
    if any(r.parity == ODD and r.weight == alpha.weight for r in system.roots):
        return Finiteness.UNDECIDED
    path = odd_reflection_path(b, bhat)
    moved = track_highest_weight(lam, b, path)
    av = coroot(alpha)
    if form(moved, av).denominator != 1:
        return Finiteness.FREE
    return (
        Finiteness.FINITE
        if form(moved + bhat.rho, av) > 0
        else Finiteness.FREE
    )
