import random

import pytest
from fractions import Fraction

from superweyl.rootdata import Family, Weight

# The acceptance families: gl(2|1), gl(3|2), osp(3|2), osp(4|2), q(3).
FAMILIES = [
    Family("gl", 2, 1),
    Family("gl", 3, 2),
    Family("osp", 3, 1),
    Family("osp", 4, 1),
    Family("q", 3),
]


@pytest.fixture(params=FAMILIES, ids=str)
def any_family(request):
    return request.param


def random_weight(rng: random.Random, fam: Family, *, span=8, dens=(1, 2, 3)):
    """Random exact-rational weight with small denominators."""
    def coord():
        return Fraction(rng.randint(-span, span), rng.choice(dens))

    eps = [coord() for _ in range(fam.eps_dim)]
    dels = [coord() for _ in range(fam.del_dim)]
    if fam.kind == "sl":
        # restore the coordinate-sum-zero constraint on the last slot
        total = sum(eps) + sum(dels[:-1]) if dels else sum(eps[:-1])
        if dels:
            dels[-1] = -total
        else:
            eps[-1] = -total
    return Weight(tuple(eps), tuple(dels))


def random_integral_weight(rng: random.Random, fam: Family, *, span=8):
    eps = [Fraction(rng.randint(-span, span)) for _ in range(fam.eps_dim)]
    dels = [Fraction(rng.randint(-span, span)) for _ in range(fam.del_dim)]
    return Weight(tuple(eps), tuple(dels))


# Groups on which the integer-indexed Bruhat and KL code is compared with
# the oracles on every pair: S4, B3, D3 x C2, S5, and an integral Weyl
# group whose simple roots d2-d3, d2+d3 are not simple in W (B1 x D3 in
# osp(3|6) at a half-integral weight).
ORACLE_GROUPS = ("gl:4,1", "osp:1,6", "osp:6,4", "q:5", "osp:3,6 at 1/2|1/2,3/2,7/2")


def oracle_group(spec: str):
    from superweyl.rootdata import build_root_system, family
    from superweyl.weyl import integral_weyl_group, weyl_group

    name, _, lam = spec.partition(" at ")
    system = build_root_system(family(name))
    if not lam:
        return weyl_group(system)
    eps, dels = lam.split("|")
    weight = Weight(
        tuple(Fraction(a) for a in eps.split(",")),
        tuple(Fraction(a) for a in dels.split(",")),
    )
    return integral_weyl_group(system, weight)
