"""Seeded request lists for the three benchmark workloads.

Generation is pure Python and never imports the library: the worker
receives only the generated requests.  The same seed always gives the
same list.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("kl-tables", "generic-posets", "weight-scan")

# kl-tables: one `kl` request per family, in this order for every seed.
# The tables of earlier requests stay in the library's caches, so the
# order moves the garbage collector's work and the peak RSS: permuting it
# by the seed moved peak RSS by 17% and the median request by 24% across
# five seeds, noise that no code change causes.  Ascending size puts
# every cached table in front of B4, which sets the peak.  q:6 (S6, 720)
# is left out on purpose: at about 48 s per request it would not fit the
# run budget.
KL_LADDER = ("q:5", "gl:4,3", "osp:6,4", "gl:5,2", "osp:1,8")

# generic-posets: (family, eps shifts, delta shifts).  The shifts fix the
# integrality pattern of each slot, so every seed asks for the same
# amount of work: q:4 has mixed integrality (two integral, two 1/3-shifted
# coordinates) and takes the non-integral coset path; gl:3,2 has its eps
# block 1/3-shifted (even roots stay integral, odd pairings do not); the
# rest are integral.
_T = Fraction(1, 3)
POSET_SLOTS = (
    ("q:4", (0, 0, _T, _T), ()),
    ("q:5", (0, 0, 0, 0, 0), ()),
    ("gl:3,2", (_T, _T, _T), (0, 0)),
    ("gl:4,2", (0, 0, 0, 0), (0, 0)),
    ("osp:4,4", (0, 0), (0, 0)),
    ("osp:5,4", (0, 0), (0, 0)),
)

# weight-scan: every (family, query) pair appears equally often, so the
# mix is the same for every seed and only the weights and order change.
SCAN_FAMILIES = ("gl:2,1", "gl:3,2", "sl:2,1", "osp:3,2", "osp:4,2", "q:3", "q:4")
SCAN_QUERIES = (
    "atypicality",
    "genericity",
    "orbit-maximal",
    "star-orbit",
    "inclusion",
    "chars",
)
SCAN_ROUNDS = {"full": 120, "tiny": 2}


def block_dims(spec: str) -> tuple[int, int]:
    """(eps count, delta count) of a family literal such as 'osp:5,4'."""
    kind, _, params = spec.partition(":")
    nums = [int(p) for p in params.split(",")]
    if kind == "q":
        return nums[0], 0
    if kind == "osp":
        return nums[0] // 2, nums[1] // 2
    return nums[0], nums[1]


def weight_literal(eps, dels) -> str:
    text = ",".join(str(Fraction(a)) for a in eps)
    if dels:
        text += "|" + ",".join(str(Fraction(a)) for a in dels)
    return text


def _dominant_generic(rng: random.Random, spec: str, eps_shift, del_shift):
    """Coordinates drawn as one increasing chain, each term at least three
    times the one before plus a gap of 3(d+n) to 6(d+n), dealt out to the
    two blocks by the seed.

    No sum of coordinates with coefficients in [-2, 2] then comes within
    the gap of zero, which keeps the weight, its whole star orbit and
    every odd subset-sum translate off the walls.  Pairwise gaps alone are
    not enough: osp:5,4 at 30,13|61,48 fails, since 61 - 48 = 13.
    """
    d, n = block_dims(spec)
    gap = 3 * (d + n)
    chain, cur = [], 0
    for _ in range(d + n):
        cur = 3 * cur + rng.randint(gap, 2 * gap)
        chain.append(cur)
    chain.reverse()
    eps_pos = set(rng.sample(range(d + n), d))
    eps = [Fraction(c) for i, c in enumerate(chain) if i in eps_pos]
    dels = [Fraction(c) for i, c in enumerate(chain) if i not in eps_pos]
    eps = [a + Fraction(s) for a, s in zip(eps, eps_shift)]
    dels = [a + Fraction(s) for a, s in zip(dels, del_shift)]
    return weight_literal(eps, dels)


# Denominator of the shifted coordinates, cycled over the rounds so that
# every (family, query) pair gets the same share of each kind: this
# share, more than the coordinates, sets how large a star orbit gets.
SCAN_DENOMINATORS = (1, 2, 1, 3)


def _random_weight(rng: random.Random, spec: str, denom: int) -> str:
    """Small coordinates; with denom > 1 about half of them are shifted
    by a multiple of 1/denom, so every query meets typical, atypical,
    generic, non-generic, integral and non-integral inputs."""
    d, n = block_dims(spec)

    def coord() -> Fraction:
        a = Fraction(rng.randint(-6, 6))
        if denom > 1 and rng.random() < 0.5:
            a += Fraction(rng.randint(1, denom - 1), denom)
        return a

    eps = [coord() for _ in range(d)]
    dels = [coord() for _ in range(n)]
    if spec.startswith("sl:"):
        dels[-1] = -(sum(eps) + sum(dels[:-1]))
    return weight_literal(eps, dels)


def generate(workload: str, seed: int, size: str = "full") -> list[dict]:
    """The request list of one workload.  size='tiny' is a few requests
    for the benchmark's self-test."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "kl-tables":
        ladder = KL_LADDER if size == "full" else KL_LADDER[:2]
        return [
            {"id": i, "family": fam, "argv": ["kl", "--family", fam]}
            for i, fam in enumerate(ladder)
        ]
    if workload == "generic-posets":
        slots = POSET_SLOTS if size == "full" else POSET_SLOTS[:1]
        out = []
        for fam, eps_shift, del_shift in slots:
            lit = _dominant_generic(rng, fam, eps_shift, del_shift)
            base = ["prim-poset", "--family", fam, f"--weight={lit}", "--rule", "generic"]
            for argv in (base, base + ["--hasse"]):
                out.append({"id": len(out), "family": fam, "argv": argv})
        return out
    if workload == "weight-scan":
        cells = [
            (fam, query, SCAN_DENOMINATORS[r % len(SCAN_DENOMINATORS)])
            for r in range(SCAN_ROUNDS[size])
            for fam in SCAN_FAMILIES
            for query in SCAN_QUERIES
        ]
        rng.shuffle(cells)
        return [
            {"id": i, "family": fam, "query": query, "weight": _random_weight(rng, fam, denom)}
            for i, (fam, query, denom) in enumerate(cells)
        ]
    raise ValueError(f"unknown workload {workload!r}")
