"""Acceptance criteria, one test per criterion, exact tolerances.

Each test prints a single PASS line on success (run with -s to see them
inline); a failing assertion is the FAIL signal.  All checks are exact
rational arithmetic; there are no tolerances anywhere.
"""

import random
import time

from fractions import Fraction

from superweyl.rootdata import EVEN, Family, build_root_system, family, weight
from superweyl.borel import distinguished_borel
from superweyl.kl import ONE, kl_table
from superweyl.oracles import kl_polynomial_via_r
from superweyl.primposet import generic_poset, small_rank_poset
from superweyl.star import antidistinguished_star_map, star_action
from superweyl.verify import (
    generate_generic_weight,
    suite_alpha_finiteness,
    suite_atypicality_lemmas,
    suite_coset_words,
    suite_generic_orbits,
    suite_involution,
    suite_small_rank,
    suite_twisted_characters,
)
from superweyl.weyl import dot_action, weyl_group


def report(name: str, detail: str, t0: float) -> None:
    print(f"{name} PASS ({time.time() - t0:.1f}s): {detail}")


def test_a1_star_involution():
    t0 = time.time()
    ok, msgs = suite_involution(seed=1, n=1000)
    assert ok, msgs
    report("A1", "star involution, 1000 weights x 5 families x >=2 maps", t0)


def test_a2_worked_star_values():
    t0 = time.time()
    system = build_root_system(family("gl:2,1"))
    m = antidistinguished_star_map(system)
    alpha = system.find_root(weight([1, -1], [0]), EVEN)
    for k in range(-3, 4):
        lam = weight([k, k], [-k])
        assert star_action(m, alpha, lam) == weight([k, k + 1], [-(k + 1)])
    report("A2", "deformed reflection of k(e1+e2)-k d1 for k in -3..3", t0)


def test_a3_reduced_word_independence_on_cosets():
    t0 = time.time()
    ok, msgs = suite_coset_words(seed=1)
    assert ok, msgs
    report("A3", "all reduced words of all coset reps, gl(3|2) and q(3)", t0)


def test_a4_generic_orbits_regular():
    t0 = time.time()
    ok, msgs = suite_generic_orbits(seed=1, n=100, word_len=8, word_samples=4)
    assert ok, msgs
    report(
        "A4",
        "100 generic weights per family: |W| vertices, one per chamber, "
        "word- and map-independent, q closed form",
        t0,
    )


def test_a5_small_rank_posets():
    t0 = time.time()
    ok, msgs = suite_small_rank()
    assert ok, msgs
    # the bridge edge is present explicitly
    g = small_rank_poset(Family("sl", 2, 1), weight([0, 0], [0]))
    assert (weight([0, 1], [-1]), weight([0, 0], [0]), "bridge-inclusion") in g.edges
    report("A5", "osp(1|2), q(2), sl(2|1) classifications edge-for-edge", t0)


def test_a6_kl_cross_oracle():
    t0 = time.time()
    groups = {
        "S4": weyl_group(build_root_system(Family("gl", 4, 1))),
        "B2": weyl_group(build_root_system(Family("osp", 1, 2))),
        "B3": weyl_group(build_root_system(Family("osp", 1, 3))),
    }
    for name, G in groups.items():
        table = kl_table(G)
        for x in G:
            for y in G:
                direct = table.kl_polynomial(x, y)
                via_r = kl_polynomial_via_r(table, x, y)
                assert direct == via_r, (name, G.word_of(x), G.word_of(y))
                if G.bruhat_leq(x, y) and G.length(y) - G.length(x) <= 2:
                    assert direct == ONE
    # S3 left cells: the four-cell partition
    G3 = weyl_group(build_root_system(Family("gl", 3, 1)))
    t3 = kl_table(G3)
    s0, s1 = G3.generators
    want = {
        frozenset({G3.identity}),
        frozenset({s0, s1.compose(s0)}),
        frozenset({s1, s0.compose(s1)}),
        frozenset({G3.longest_element}),
    }
    assert set(t3.left_cells()) == want
    report("A6", "two KL routes agree on S4, B2, B3; S3 cells match", t0)


def test_a7_alpha_finiteness_grid():
    t0 = time.time()
    grid = [Fraction(k, 2) for k in range(-10, 11)]  # 21 values
    ok, msgs = suite_alpha_finiteness(grid=grid)
    assert ok, msgs
    report("A7", "osp(3|2) 21x21 grid: star and direct criteria agree", t0)


def test_a8_twisted_character_identity():
    t0 = time.time()
    ok, msgs = suite_twisted_characters(seed=1, n=1000)
    assert ok, msgs
    report("A8", "restriction multiset identity, 1000 weights per family", t0)


def test_a9_atypicality_shift_lemmas():
    t0 = time.time()
    ok, msgs = suite_atypicality_lemmas(seed=1, n=10_000)
    assert ok, msgs
    report("A9", "orthogonality and shift verifiers on 10000 regular inputs", t0)


def test_a10_type_one_generic_poset():
    t0 = time.time()
    system = build_root_system(Family("sl", 3, 1))
    b = distinguished_borel(system)
    rng = random.Random(1)
    Lam = generate_generic_weight(system, rng, integral=True)
    g = generic_poset(b, Lam)
    W = weyl_group(system)
    table = kl_table(W)
    for w1 in W:
        for w2 in W:
            assert g.leq(dot_action(w1, Lam, b), dot_action(w2, Lam, b)) == (
                table.left_kl_leq(w1, w2)
            ), (W.word_of(w1), W.word_of(w2))
    assert len(g.nodes) == 6 and len(g.equality_classes()) == 4
    report("A10", "sl(3|1) generic poset equals the S3 left order", t0)
