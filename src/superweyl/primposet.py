"""Primitive-ideal inclusion graphs.

Nodes are highest weights labelling annihilators of simple highest
weight modules; a directed edge (a, b) asserts the inclusion of the
ideal at a into the ideal at b, tagged with the rule that produced it.
The graph records proven edges only: absence of an edge never asserts
non-inclusion outside the regimes where the generating theorems are
equivalences (small rank, generic region, typical blocks).

Rank-one and rank-two data give the complete small-rank classifications;
star actions produce equality edges at non-integral reflections and
inclusion edges at alpha-finite ones; in the generic region the order is
pulled back from the classical left Kazhdan-Lusztig order of the
integral Weyl group (componentwise over the two factors for osp).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import networkx as nx

from .rootdata import (
    Family,
    Root,
    RootSystem,
    Weight,
    build_root_system,
    coroot,
    form,
    simple_basis,
    weight,
    weight_to_json,
    zero_weight,
)
from .borel import BorelSystem, distinguished_borel
from .generic import is_generic, is_weakly_generic
from .kl import kl_table
from .star import (
    Finiteness,
    StarMap,
    alpha_finite,
    apply_generator,
    osp_star_map,
    star_word_apply,
)
from .typicality import atypicality
from .weyl import (
    CoxeterGroup,
    WeylElt,
    chamber,
    coset_factor,
    dot_action,
    identity_elt,
    is_dot_regular,
    reflection_elt,
    weyl_group,
)


class PosetError(ValueError):
    pass


@dataclass
class InclusionGraph:
    """Edge (a, b, tag): the ideal at a is contained in the ideal at b."""

    nodes: set[Weight] = field(default_factory=set)
    edges: set[tuple[Weight, Weight, str]] = field(default_factory=set)

    def add_node(self, w: Weight) -> None:
        self.nodes.add(w)

    def add_edge(self, a: Weight, b: Weight, tag: str) -> None:
        self.nodes.add(a)
        self.nodes.add(b)
        if a != b:
            self.edges.add((a, b, tag))

    def add_equality(self, a: Weight, b: Weight, tag: str) -> None:
        self.add_edge(a, b, tag)
        self.add_edge(b, a, tag)

    def merge(self, other: "InclusionGraph") -> None:
        self.nodes |= other.nodes
        self.edges |= other.edges

    def digraph(self) -> nx.DiGraph:
        g = nx.DiGraph()
        g.add_nodes_from(self.nodes)
        g.add_edges_from((a, b) for a, b, _ in self.edges)
        return g

    def leq(self, a: Weight, b: Weight) -> bool:
        """Reachability: containment of the ideal at a in the one at b."""
        if a == b:
            return a in self.nodes
        g = self.digraph()
        return g.has_node(a) and g.has_node(b) and nx.has_path(g, a, b)

    def relation(self) -> set[tuple[Weight, Weight]]:
        g = self.digraph()
        out = set()
        for a in self.nodes:
            for b in nx.descendants(g, a):
                out.add((a, b))
            out.add((a, a))
        return out

    def same_order(self, other: "InclusionGraph") -> bool:
        """Equal node sets and equal reflexive-transitive closures."""
        return self.nodes == other.nodes and self.relation() == other.relation()

    def equality_classes(self) -> list[tuple[Weight, ...]]:
        comps = nx.strongly_connected_components(self.digraph())
        out = [tuple(sorted(c, key=Weight.sort_key)) for c in comps]
        return sorted(out, key=lambda c: c[0].sort_key())

    def to_json(self) -> dict:
        nodes = sorted(self.nodes, key=Weight.sort_key)
        return {
            "nodes": [weight_to_json(w) for w in nodes],
            "edges": [
                {
                    "from": weight_to_json(a),
                    "to": weight_to_json(b),
                    "rule": tag,
                }
                for a, b, tag in sorted(
                    self.edges, key=lambda e: (e[0].sort_key(), e[1].sort_key(), e[2])
                )
            ],
        }

    def to_dot(self) -> str:
        nodes = sorted(self.nodes, key=Weight.sort_key)
        index = {w: i for i, w in enumerate(nodes)}
        lines = ["digraph ideals {"]
        for w, i in index.items():
            lines.append(f'  n{i} [label="{w}"];')
        for a, b, tag in sorted(
            self.edges, key=lambda e: (e[0].sort_key(), e[1].sort_key(), e[2])
        ):
            lines.append(f'  n{index[a]} -> n{index[b]} [label="{tag}"];')
        lines.append("}")
        return "\n".join(lines)


def transitive_closure(g: InclusionGraph) -> InclusionGraph:
    out = InclusionGraph(set(g.nodes), set(g.edges))
    closed = nx.transitive_closure(g.digraph(), reflexive=False)
    have = {(a, b) for a, b, _ in g.edges}
    for a, b in closed.edges:
        if (a, b) not in have:
            out.edges.add((a, b, "closure"))
    return out


def hasse(g: InclusionGraph) -> InclusionGraph:
    """Collapse equality classes and drop transitively implied edges.

    Nodes of the result are class representatives (least member); kept
    cover edges carry the rule tags of the original edges they came
    from, joined when several rules produced the same cover.
    """
    classes = g.equality_classes()
    rep = {}
    for cls in classes:
        for w in cls:
            rep[w] = cls[0]
    dag = nx.DiGraph()
    dag.add_nodes_from(cls[0] for cls in classes)
    tags: dict[tuple[Weight, Weight], set[str]] = {}
    for a, b, tag in g.edges:
        if rep[a] != rep[b]:
            dag.add_edge(rep[a], rep[b])
            tags.setdefault((rep[a], rep[b]), set()).add(tag)
    reduced = nx.transitive_reduction(dag)
    out = InclusionGraph(set(reduced.nodes), set())
    for a, b in reduced.edges:
        label = ",".join(sorted(tags.get((a, b), set()))) or "hasse"
        out.edges.add((a, b, label))
    return out


# --- small rank -----------------------------------------------------------

def small_rank_poset(fam: Family, lam: Weight) -> InclusionGraph:
    """The complete rank-one classifications, on the orbit(s) of lam."""
    system = build_root_system(fam)
    b = distinguished_borel(system)
    system.check_weight(lam)
    g = InclusionGraph()
    if fam.kind == "osp" and fam.m == 1 and fam.n == 1:
        alpha = system.simple_even[0]
        s = reflection_elt(system, alpha)
        other = dot_action(s, lam, b)
        g.add_node(lam)
        g.add_node(other)
        if form(lam, coroot(alpha)).denominator != 1:
            g.add_equality(lam, other, "nonintegral-equality")
            return g
        dom = lam if form(lam + b.rho, coroot(alpha)) > 0 else other
        low = other if dom == lam else lam
        if low != dom:
            g.add_edge(low, dom, "orbit-inclusion")
        return g
    if fam.kind == "q" and fam.m == 2:
        alpha = system.simple_even[0]
        other = apply_generator(system, alpha, lam)
        g.add_node(lam)
        g.add_node(other)
        if form(lam, coroot(alpha)).denominator != 1:
            g.add_equality(lam, other, "nonintegral-equality")
            return g
        dom = next(
            (m for m in (lam, other) if _q2_dominant(m)),
            None,
        )
        if dom is not None:
            low = other if dom == lam else lam
            if low != dom:
                g.add_edge(low, dom, "orbit-inclusion")
        return g
    if fam.kind == "sl" and fam.m == 2 and fam.n == 1:
        alpha = system.simple_even[0]
        s = reflection_elt(system, alpha)
        other = dot_action(s, lam, b)
        g.add_node(lam)
        g.add_node(other)
        if form(lam, coroot(alpha)).denominator != 1:
            g.add_equality(lam, other, "nonintegral-equality")
        else:
            pairing = form(lam + b.rho, coroot(alpha))
            dom = lam if pairing > 0 else other
            low = other if dom == lam else lam
            if low != dom:
                g.add_edge(low, dom, "orbit-inclusion")
        special_low = weight([0, 1], [-1])
        special_top = zero_weight(fam)
        if g.nodes & {special_low, special_top}:
            g.add_edge(special_low, special_top, "bridge-inclusion")
        return g
    raise PosetError(f"no small-rank classification for {fam}")


def _q2_dominant(lam: Weight) -> bool:
    diff = lam.eps[0] - lam.eps[1]
    return (diff.denominator == 1 and diff >= 1) or lam.is_zero


# --- star-generated edges ---------------------------------------------------

def star_inclusion_edges(
    maps: Sequence[StarMap | RootSystem],
    lams: Iterable[Weight],
    *,
    order_roots: Sequence[Weight] | None = None,
) -> tuple[InclusionGraph, list[tuple[Weight, Root, str]]]:
    """Equality edges at non-integral reflections, inclusion edges at
    alpha-finite ones; undecidable combinations are recorded, not
    guessed."""
    g = InclusionGraph()
    skipped: list[tuple[Weight, Root, str]] = []
    for m in maps:
        system = m.reference.system if isinstance(m, StarMap) else m
        b = (
            m.reference
            if isinstance(m, StarMap)
            else distinguished_borel(system)
        )
        # alpha_finite judges osp by the star' image and q by its own
        # action; when m is that action, it reuses the image made here.
        # For any other map the image is needed only for an edge.
        reuse = not isinstance(m, StarMap) or (
            system.family.kind == "osp"
            and m == osp_star_map(system, "star_prime")
        )
        for lam in lams:
            g.add_node(lam)
            for alpha in system.simple_even:
                if form(lam, coroot(alpha)).denominator != 1:
                    moved = apply_generator(m, alpha, lam)
                    g.add_equality(lam, moved, "star-equality")
                    continue
                moved = apply_generator(m, alpha, lam) if reuse else None
                fin = alpha_finite(
                    lam, alpha, b, order_roots=order_roots, moved=moved
                )
                if fin is Finiteness.FINITE:
                    if moved is None:
                        moved = apply_generator(m, alpha, lam)
                    g.add_edge(moved, lam, "star-inclusion")
                elif fin is Finiteness.UNDECIDED:
                    skipped.append((lam, alpha, "undecidable"))
    return g, skipped


# --- classical order ------------------------------------------------------

_component_groups: dict = {}


def _component_group(
    system: RootSystem, positives: tuple[Root, ...]
) -> CoxeterGroup:
    key = (system, positives)
    if key not in _component_groups:
        _component_groups[key] = CoxeterGroup(
            system, simple_basis(positives), positive_roots=positives
        )
    return _component_groups[key]


def _classical_order(
    system: RootSystem,
    positives: tuple[Root, ...],
    lam: Weight,
    elements: Iterable[WeylElt],
):
    """Inclusion order of the even-algebra annihilators at w o lam,
    restricted to elements, as a pair test.

    Reduction: the ideal at w o lam equals the one at u o lam for the
    integral part u of w = x u, and within the integral block the order
    is the left Kazhdan-Lusztig order of the integral Weyl group.  The
    integral positives, the groups, the integral part u(w) of each
    element and the left-KL upper set of each u(w) are computed once, so
    a pair costs two dict lookups and a set membership.  The per-pair
    form is the oracle superweyl.oracles.classical_ideal_leq.
    """
    int_pos = tuple(
        r for r in positives if form(lam, coroot(r)).denominator == 1
    )
    if not int_pos:
        return lambda w1, w2: True
    comp = _component_group(system, tuple(positives))
    sub = _component_group(system, int_pos)
    table = kl_table(sub)
    part = {w: coset_factor(comp, sub, w)[1] for w in set(elements)}
    above = {u: table.left_kl_above(u) for u in set(part.values())}
    return lambda w1, w2: part[w2] in above[part[w1]]


def _component_split(system: RootSystem, w: WeylElt) -> tuple[WeylElt, WeylElt]:
    e = identity_elt(system)
    return (
        WeylElt(w.eps_images, e.del_images),
        WeylElt(e.eps_images, w.del_images),
    )


def _component_positives(system: RootSystem):
    eps_pos = tuple(
        r for r in system.even_positive if all(a == 0 for a in r.weight.dels)
    )
    del_pos = tuple(
        r for r in system.even_positive if all(a == 0 for a in r.weight.eps)
    )
    return eps_pos, del_pos


# --- generic region ---------------------------------------------------------

def generic_poset(
    b: BorelSystem,
    Lam: Weight,
    *,
    mode: str = "proved",
    cap: int = 10**4,
) -> InclusionGraph:
    """Inclusion graph on the star orbit of a dominant generic weight.

    q(n) integral: the left KL order of the symmetric group.  q(n)
    non-integral: in 'proved' mode the sufficient coset condition
    (cell-mates comparable in the left weak order inside the integral
    Weyl group); in 'conjectural-left-order' mode the left KL order of
    the integral Weyl group.  osp(m|2n): the classical order compared
    componentwise over the two factors, on the orbit of the named star
    action (whose sp-side words transport exactly to the shifted orbit
    of the eps-before-delta Borel; degenerate components for m <= 2 drop
    out).  gl/sl: the classical order of the full even Weyl group on the
    dot orbit, which in the generic region is the star orbit of every
    map.
    """
    system = b.system
    fam = system.family
    W = weyl_group(system, cap)
    _validate_generic_dominant(b, Lam, W)

    if fam.kind == "q":
        node = _star_nodes(system, b, Lam, W, action="q")
        int_pos = tuple(
            r
            for r in system.even_positive
            if form(Lam, coroot(r)).denominator == 1
        )
        if len(int_pos) == len(system.even_positive):
            table = kl_table(W)
            above = {w: table.left_kl_above(w) for w in W}
            return _order_graph(
                W, node, lambda w1, w2: w2 in above[w1], "classical-order"
            )
        return _q_nonintegral_graph(system, b, Lam, W, node, mode)

    if fam.kind == "osp":
        node = _star_nodes(system, b, Lam, W, action="osp")
        eps_pos, del_pos = _component_positives(system)
        split = {w: _component_split(system, w) for w in W}
        eps_leq = _classical_order(
            system, eps_pos, Lam, (a for a, _ in split.values())
        )
        del_leq = _classical_order(
            system, del_pos, Lam, (c for _, c in split.values())
        )

        def leq(w1, w2):
            a1, c1 = split[w1]
            a2, c2 = split[w2]
            return eps_leq(a1, a2) and del_leq(c1, c2)

        return _order_graph(W, node, leq, "classical-order")

    # gl / sl: type I with the distinguished Borel, star orbit = dot orbit
    node = {w: dot_action(w, Lam, b) for w in W}
    leq = _classical_order(system, system.even_positive, Lam, W)
    return _order_graph(W, node, leq, "classical-order")


def _validate_generic_dominant(b: BorelSystem, Lam: Weight, W) -> None:
    system = b.system
    if not is_weakly_generic(Lam, b):
        raise PosetError("the base weight must be weakly generic")
    if not all(s == 1 for s in chamber(system, Lam)):
        raise PosetError("the base weight must be dominant (all-plus chamber)")
    w0 = W.longest_element
    if system.family.kind == "q":
        low = star_word_apply(system, _word_roots(W, w0), Lam)
    elif system.family.kind == "osp":
        m = osp_star_map(system, "star")
        low = star_word_apply(m, _word_roots(W, w0), Lam)
    else:
        low = dot_action(w0, Lam, b)
    if not is_generic(low, b):
        raise PosetError("the opposite orbit point must be generic")


def _word_roots(W: CoxeterGroup, w: WeylElt) -> list[Root]:
    return [W.simple_roots[i] for i in W.word_of(w)]


def _star_nodes(system, b, Lam, W, action: str) -> dict[WeylElt, Weight]:
    out = {}
    m = osp_star_map(system, "star") if action == "osp" else None
    for w in W:
        word = _word_roots(W, w)
        if action == "q":
            out[w] = star_word_apply(system, word, Lam)
        else:
            out[w] = star_word_apply(m, word, Lam)
    return out


def _order_graph(W, node: Mapping[WeylElt, Weight], leq, tag: str) -> InclusionGraph:
    g = InclusionGraph()
    for w in W:
        g.add_node(node[w])
    for w1 in W:
        for w2 in W:
            if w1 is w2:
                continue
            if leq(w1, w2):
                g.add_edge(node[w1], node[w2], tag)
    return g


def _q_nonintegral_graph(system, b, Lam, W, node, mode: str) -> InclusionGraph:
    int_pos = tuple(
        r for r in system.even_positive if form(Lam, coroot(r)).denominator == 1
    )
    if not int_pos:
        g = InclusionGraph()
        ws = list(W)
        for w in ws:
            g.add_node(node[w])
        for i, w1 in enumerate(ws):
            for w2 in ws[i + 1:]:
                g.add_equality(node[w1], node[w2], "coset-equality")
        return g
    if mode == "conjectural-left-order":
        leq = _classical_order(system, system.even_positive, Lam, W)
        return _order_graph(W, node, leq, "coset-order")
    if mode != "proved":
        raise PosetError(f"unknown mode {mode!r}")
    # proved: some cell-mates of u(w1) and u(w2) are comparable in the
    # left weak order; decided once per ordered pair of cells
    sub = _component_group(system, int_pos)
    table = kl_table(sub)
    cell = {w: table.cell_of(coset_factor(W, sub, w)[1]) for w in W}
    memo: dict[tuple[frozenset, frozenset], bool] = {}

    def leq(w1, w2):
        key = (cell[w1], cell[w2])
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = any(
                table.left_weak_leq(v1, v2) for v1 in key[0] for v2 in key[1]
            )
        return hit

    return _order_graph(W, node, leq, "coset-order")


# --- extra inclusions at singly atypical weights ---------------------------

def extra_inclusions_singly_atypical(
    lam: Weight, b: BorelSystem
) -> InclusionGraph:
    """Edges J(lam + gamma) into J(lam) for a regular singly atypical
    weight whose shift hits a wall of a dominant-direction simple
    reflection."""
    system = b.system
    fam = system.family
    if not (fam.kind in ("gl", "sl") or (fam.kind == "osp" and fam.m == 2)):
        raise PosetError("rule applies to gl/sl and osp(2|2n) only")
    if b != distinguished_borel(system):
        raise PosetError("rule is stated for the distinguished Borel")
    if not is_dot_regular(lam, b):
        raise PosetError("weight must be dot-regular")
    rep = atypicality(lam, b)
    if len(rep.atypical_roots) != 1:
        raise PosetError("weight must be singly atypical")
    gamma = rep.atypical_roots[0]
    g = InclusionGraph()
    shifted = lam + gamma.weight
    for alpha in system.simple_even:
        v = form(lam + b.rho, coroot(alpha))
        if v.denominator != 1 or v < 1:
            continue
        if form(shifted + b.rho, alpha.weight) == 0:
            g.add_edge(shifted, lam, "singly-atypical")
    return g
