"""Named property suites: randomized and exhaustive checks wired to the
CLI verify subcommand and reused (at full scale) by the acceptance
tests.  Every suite returns (passed, messages) and is deterministic for
a fixed seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Sequence

from .rootdata import (
    EVEN,
    Family,
    RootSystem,
    Weight,
    build_root_system,
    family,
    weight,
)
from .borel import BorelSystem, distinguished_borel
from .chars import twisted_verma_character_equal
from .generic import is_generic, is_weakly_generic
from .primposet import (
    small_rank_poset,
    star_inclusion_edges,
    transitive_closure,
)
from .star import (
    alpha_finite,
    alpha_finite_direct,
    antidistinguished_star_map,
    apply_generator,
    osp_star_map,
    star_orbit,
    star_q_closed_form,
    star_word_apply,
    trivial_star_map,
    _osp_bhat,
)
from .typicality import (
    atypicality,
    check_orthogonal_atypicality,
    shifted_atypicality_equal,
)
from .weyl import (
    chamber,
    coset_reps,
    dot_action,
    is_dot_regular,
    weyl_group,
)

ACCEPTANCE_FAMILIES = ["gl:2,1", "gl:3,2", "osp:3,2", "osp:4,2", "q:3"]


def random_weight(
    rng: random.Random, fam: Family, *, span=8, dens=(1, 2, 3)
) -> Weight:
    def coord():
        return Fraction(rng.randint(-span, span), rng.choice(dens))

    eps = [coord() for _ in range(fam.eps_dim)]
    dels = [coord() for _ in range(fam.del_dim)]
    if fam.kind == "sl":
        if dels:
            dels[-1] = -sum(eps) - sum(dels[:-1])
        else:
            eps[-1] = -sum(eps[:-1])
    return weight(eps, dels)


def generate_generic_weight(
    system: RootSystem, rng: random.Random, *, integral: bool = True
) -> Weight:
    """A dominant generic weight with generic full orbit, found by
    spreading positive descending coordinates and verifying exactly."""
    b = distinguished_borel(system)
    fam = system.family
    gap = 30
    total = fam.eps_dim + fam.del_dim
    for _ in range(500):
        vals = []
        v = gap * (total + 2) + rng.randint(0, 9)
        for _i in range(total):
            vals.append(Fraction(v))
            v -= gap + rng.randint(0, 4)
        if not integral:
            vals = [x + Fraction(1, 3) for x in vals]
        eps, dels = vals[: fam.eps_dim], vals[fam.eps_dim :]
        if fam.kind == "sl":
            dels = [-sum(eps) - sum(dels[:-1])] if dels else dels
        lam = weight(eps, dels)
        if not all(s == 1 for s in chamber(system, lam)):
            continue
        if is_weakly_generic(lam, b) and is_generic(lam, b):
            return lam
    raise RuntimeError(f"failed to generate a generic weight for {fam}")


def star_maps_for(system: RootSystem, b: BorelSystem):
    fam = system.family
    if fam.kind in ("gl", "sl"):
        return [trivial_star_map(b), antidistinguished_star_map(system)]
    if fam.kind == "osp":
        if fam.m == 1:
            return [trivial_star_map(b), osp_star_map(system, "star_prime")]
        return [osp_star_map(system, "star_prime"), osp_star_map(system, "star")]
    return [system]  # q: the single star action


def suite_involution(seed: int = 0, n: int = 60) -> tuple[bool, list[str]]:
    """s_alpha * s_alpha * lambda = lambda across families and maps."""
    msgs = []
    ok = True
    for spec in ACCEPTANCE_FAMILIES:
        system = build_root_system(family(spec))
        b = distinguished_borel(system)
        rng = random.Random(seed)
        for m in star_maps_for(system, b):
            for _ in range(n):
                lam = random_weight(rng, system.family)
                for alpha in system.simple_even:
                    twice = apply_generator(
                        m, alpha, apply_generator(m, alpha, lam)
                    )
                    if twice != lam:
                        ok = False
                        msgs.append(f"{spec}: involution broken at {lam}")
        msgs.append(f"{spec}: involution held on {n} weights per map")
    return ok, msgs


def suite_coset_words(seed: int = 0) -> tuple[bool, list[str]]:
    """All reduced words of coset representatives act identically, for
    every tested map."""
    msgs = []
    ok = True
    cases = [
        ("gl:3,2", weight([Fraction(1, 2), 0, 0], [0, 0])),
        ("gl:3,2", weight([Fraction(1, 3), 0, -5], [2, Fraction(5, 2)])),
        ("q:3", weight([Fraction(1, 2), 0, -3])),
        ("q:3", weight([Fraction(7, 3), 4, -1])),
    ]
    for spec, lam in cases:
        system = build_root_system(family(spec))
        b = distinguished_borel(system)
        W = weyl_group(system)
        reps = coset_reps(system, lam, full_group=W)
        if len(reps) <= 1:
            ok = False
            msgs.append(f"{spec}: test weight has trivial coset set")
            continue
        for w in reps:
            results = set()
            for m in star_maps_for(system, b):
                for word in W.all_reduced_words(w):
                    roots = [W.simple_roots[i] for i in word]
                    results.add(star_word_apply(m, roots, lam))
            if len(results) != 1:
                ok = False
                msgs.append(f"{spec}: words or maps disagree at {w}")
        msgs.append(f"{spec}: {len(reps)} coset reps word- and map-independent")
    return ok, msgs


def suite_generic_orbits(
    seed: int = 0, n: int = 3, word_len: int = 8, word_samples: int = 12
) -> tuple[bool, list[str]]:
    """Generic orbits are regular: |W| vertices, one per open chamber,
    word- and map-independent; q matches its closed form."""
    msgs = []
    ok = True
    for spec in ACCEPTANCE_FAMILIES:
        system = build_root_system(family(spec))
        b = distinguished_borel(system)
        W = weyl_group(system)
        rng = random.Random(seed)
        maps = star_maps_for(system, b)
        for i in range(n):
            lam = generate_generic_weight(system, rng, integral=(i % 2 == 0))
            orbits = []
            for m in maps:
                g = star_orbit(m, lam, max_vertices=4 * len(W))
                if g.truncated or len(g.vertices) != len(W):
                    ok = False
                    msgs.append(f"{spec}: orbit size {len(g.vertices)} != {len(W)}")
                chambers = {chamber(system, v) for v in g.vertices}
                if len(chambers) != len(W):
                    ok = False
                    msgs.append(f"{spec}: orbit misses chambers at {lam}")
                orbits.append(frozenset(g.vertices))
            if len(set(orbits)) != 1:
                ok = False
                msgs.append(f"{spec}: maps disagree on the orbit of {lam}")
            # word independence on non-reduced words
            gens = list(system.simple_even)
            for m in maps:
                for _ in range(word_samples):
                    word = [rng.choice(gens) for _ in range(rng.randint(0, word_len))]
                    target = star_word_apply(m, word, lam)
                    elt = None
                    from .weyl import reflection_elt, identity_elt

                    elt = identity_elt(system)
                    for a in word:
                        elt = elt.compose(reflection_elt(system, a))
                    canon = W.canonical(elt)
                    roots = [W.simple_roots[j] for j in canon.word]
                    if star_word_apply(m, roots, lam) != target:
                        ok = False
                        msgs.append(f"{spec}: word dependence at {lam}")
                    if system.family.kind == "q":
                        if star_q_closed_form(system, word, lam) != target:
                            ok = False
                            msgs.append(f"{spec}: closed form mismatch at {lam}")
        msgs.append(f"{spec}: {n} generic orbits regular")
    return ok, msgs


def suite_alpha_finiteness(
    grid: Sequence[Fraction] | None = None,
) -> tuple[bool, list[str]]:
    """osp(3|2) grid: star criterion versus the transport-and-reduce
    criterion, for both simple even roots."""
    msgs = []
    ok = True
    system = build_root_system(family("osp:3,2"))
    b = distinguished_borel(system)
    bhat = _osp_bhat(system)
    two_d1 = system.find_root(weight([0], [2]), EVEN)
    e1 = system.find_root(weight([1], [0]), EVEN)
    if grid is None:
        grid = [Fraction(k, 2) for k in range(-10, 11)]
    mismatches = 0
    for a in grid:
        for c in grid:
            lam = weight([c], [a])
            if alpha_finite(lam, two_d1, b) != alpha_finite_direct(
                lam, two_d1, b, bhat
            ):
                mismatches += 1
            if alpha_finite(lam, e1, b) != alpha_finite_direct(lam, e1, b, b):
                mismatches += 1
    if mismatches:
        ok = False
        msgs.append(f"osp(3|2): {mismatches} grid mismatches")
    else:
        msgs.append(
            f"osp(3|2): star and direct criteria agree on the {len(grid)}x{len(grid)} grid"
        )
    return ok, msgs


def suite_twisted_characters(seed: int = 0, n: int = 40) -> tuple[bool, list[str]]:
    """Multiset identity for the reflection twist of the Verma
    restriction, all families, all simple even roots."""
    msgs = []
    ok = True
    for spec in ACCEPTANCE_FAMILIES:
        system = build_root_system(family(spec))
        b = distinguished_borel(system)
        rng = random.Random(seed)
        for _ in range(n):
            lam = random_weight(rng, system.family)
            for alpha in system.simple_even:
                if not twisted_verma_character_equal(lam, alpha, b):
                    ok = False
                    msgs.append(f"{spec}: character identity failed at {lam}")
        msgs.append(f"{spec}: character identity held on {n} weights")
    return ok, msgs


def suite_small_rank() -> tuple[bool, list[str]]:
    """Star-generated edges reproduce the small-rank classifications."""
    msgs = []
    ok = True

    # osp(1|2)
    system = build_root_system(Family("osp", 1, 1))
    b = distinguished_borel(system)
    maps = [trivial_star_map(b), osp_star_map(system, "star_prime")]
    s = weyl_group(system).generators[0]
    for lam in [weight([], [3]), weight([], [0]), weight([], [Fraction(1, 3)])]:
        other = dot_action(s, lam, b)
        got, _ = star_inclusion_edges(maps, [lam, other])
        want = small_rank_poset(Family("osp", 1, 1), lam)
        if not transitive_closure(got).same_order(transitive_closure(want)):
            ok = False
            msgs.append(f"osp(1|2): mismatch at {lam}")
    # q(2)
    system = build_root_system(Family("q", 2))
    alpha = system.simple_even[0]
    for lam in [weight([3, 1]), weight([0, 0]), weight([3, -3]),
                weight([Fraction(1, 2), 0])]:
        other = apply_generator(system, alpha, lam)
        got, _ = star_inclusion_edges([system], [lam, other])
        want = small_rank_poset(Family("q", 2), lam)
        got_rel = {
            (a, c)
            for a, c in transitive_closure(got).relation()
            if a in want.nodes and c in want.nodes
        }
        if got_rel != transitive_closure(want).relation():
            ok = False
            msgs.append(f"q(2): mismatch at {lam}")
    # sl(2|1) with the bridge
    system = build_root_system(Family("sl", 2, 1))
    b = distinguished_borel(system)
    maps = [trivial_star_map(b), antidistinguished_star_map(system)]
    zero = weight([0, 0], [0])
    nodes = [zero, weight([-1, 1], [0]), weight([0, 1], [-1])]
    got, _ = star_inclusion_edges(maps, nodes)
    want = small_rank_poset(Family("sl", 2, 1), zero)
    if not transitive_closure(got).same_order(transitive_closure(want)):
        ok = False
        msgs.append("sl(2|1): mismatch at 0")
    if ok:
        msgs.append("small-rank classifications reproduced edge-for-edge")
    return ok, msgs


def suite_atypicality_lemmas(seed: int = 0, n: int = 200) -> tuple[bool, list[str]]:
    """The two shift-lemma verifiers hold on random dot-regular inputs."""
    msgs = []
    ok = True
    for spec in ACCEPTANCE_FAMILIES:
        system = build_root_system(family(spec))
        b = distinguished_borel(system)
        rng = random.Random(seed)
        checked = shift_checked = 0
        tries = 0
        while checked < n and tries < 60 * n:
            tries += 1
            lam = random_weight(rng, system.family)
            if not is_dot_regular(lam, b):
                continue
            if not check_orthogonal_atypicality(lam, b):
                ok = False
                msgs.append(f"{spec}: orthogonality lemma failed at {lam}")
            checked += 1
            for gamma in atypicality(lam, b).atypical_roots:
                for sign in (1, -1):
                    if is_dot_regular(lam + gamma.weight * sign, b):
                        if not shifted_atypicality_equal(lam, gamma, sign, b):
                            ok = False
                            msgs.append(f"{spec}: shift lemma failed at {lam}")
                        shift_checked += 1
        msgs.append(
            f"{spec}: {checked} orthogonality checks, {shift_checked} shift checks"
        )
    return ok, msgs


# Each suite at its default size, called with the seed; the two
# deterministic suites ignore it.
SUITES: dict[str, Callable[[int], tuple[bool, list[str]]]] = {
    "involution": suite_involution,
    "prop7.2": suite_coset_words,
    "thm7.3": suite_generic_orbits,
    "lemma8.1": lambda seed: suite_alpha_finiteness(),
    "charverma": suite_twisted_characters,
    "smallrank": lambda seed: suite_small_rank(),
    "lemma6.5": suite_atypicality_lemmas,
}


def run_suite(name: str, seed: int = 0) -> tuple[bool, list[str]]:
    if name == "all":
        ok = True
        msgs = []
        for key in SUITES:
            good, out = run_suite(key, seed)
            ok = ok and good
            msgs.extend(f"[{key}] {line}" for line in out)
        return ok, msgs
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](seed)
