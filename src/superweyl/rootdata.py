"""Root data for the families gl(m|n), sl(m|n), osp(m|2n) and q(n).

Weights live in the even Cartan dual and are stored as exact rational
coordinate vectors in the epsilon/delta basis.  The invariant bilinear
form is fixed once and for all as

    <eps_i, eps_j> = delta_ij,   <del_i, del_j> = -delta_ij,
    <eps_i, del_j> = 0,

which for q(n) (no delta block) restricts to the positive-definite form
on the epsilon coordinates.  No floating point appears anywhere.

The value types Weight, Root and RootSystem (and borel.BorelSystem) are
frozen dataclasses whose hashes are memoised per instance by the private
class decorator _cached_hash: the dataclass field hash is computed on
first use and kept under _hash in the instance __dict__.  Equality, repr
and dataclasses.replace stay field-based, and pickling drops the stored
hash, because Root's hash includes its parity string and string hashes
are seeded per process.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Sequence, Union

RatLike = Union[int, str, Fraction]

EVEN = "even"
ODD = "odd"


class FamilyError(ValueError):
    """Invalid family parameters (e.g. sl(n|n), osp with n=0)."""


class CapExceeded(RuntimeError):
    """A configurable enumeration cap was hit."""


def _rat(x: RatLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


@dataclass(frozen=True, order=True)
class Family:
    """One of the supported families.

    kind is 'gl', 'sl', 'osp' or 'q'.  For gl/sl, m and n count the
    epsilon and delta coordinates.  For osp(m|2n), m is the orthogonal
    dimension (epsilon count is floor(m/2)) and n the symplectic rank,
    i.e. the delta count; Family('osp', 3, 1) is osp(3|2).  For q(n) the
    rank is stored in m and n is 0.
    """

    kind: str
    m: int
    n: int = 0

    def __post_init__(self):
        if self.kind not in ("gl", "sl", "osp", "q"):
            raise FamilyError(f"unknown family kind {self.kind!r}")
        if self.m < 1:
            raise FamilyError("m must be a positive integer")
        if self.n < 0:
            raise FamilyError("n must be non-negative")
        if self.kind == "sl" and self.m == self.n:
            raise FamilyError("sl(n|n) is not supported")
        if self.kind == "osp" and self.n < 1:
            raise FamilyError("osp(m|2n) requires n >= 1")
        if self.kind == "q" and self.n != 0:
            raise FamilyError("q(n) takes a single rank parameter")

    @property
    def eps_dim(self) -> int:
        if self.kind == "osp":
            return self.m // 2
        return self.m

    @property
    def del_dim(self) -> int:
        return 0 if self.kind == "q" else self.n

    def __str__(self) -> str:
        if self.kind == "q":
            return f"q({self.m})"
        if self.kind == "osp":
            return f"osp({self.m}|{2 * self.n})"
        return f"{self.kind}({self.m}|{self.n})"


def family(spec: str) -> Family:
    """Parse 'gl:2,1', 'osp:3,2', 'q:3' style family descriptors.

    For osp the second number is the symplectic dimension 2n (so
    'osp:3,2' is osp(3|2), which has a single delta coordinate).
    """
    try:
        kind, _, params = spec.partition(":")
        nums = [int(p) for p in params.split(",") if p != ""]
    except ValueError as exc:
        raise FamilyError(f"cannot parse family {spec!r}") from exc
    if kind == "q":
        if len(nums) != 1:
            raise FamilyError("q takes one parameter, e.g. q:3")
        return Family("q", nums[0])
    if len(nums) != 2:
        raise FamilyError(f"{kind} takes two parameters, e.g. {kind}:2,1")
    if kind == "osp":
        if nums[1] % 2 != 0:
            raise FamilyError("osp:m,k needs even k (the symplectic dimension)")
        return Family("osp", nums[0], nums[1] // 2)
    return Family(kind, nums[0], nums[1])


def _cached_hash(cls):
    """Memoise the dataclass-generated field hash of a frozen dataclass.

    Apply on top of @dataclass(frozen=True): a mixin would not do, since
    @dataclass overwrites an inherited __hash__.  The hash is stored under
    _hash in the instance __dict__, outside the fields, and __getstate__
    leaves it out of pickles and copies.
    """
    field_hash = cls.__hash__

    def __hash__(self):
        d = self.__dict__
        try:
            return d["_hash"]
        except KeyError:
            h = d["_hash"] = field_hash(self)
            return h

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_hash", None)
        return state

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


@_cached_hash
@dataclass(frozen=True)
class Weight:
    """Exact rational coordinate vector: eps block then delta block."""

    eps: tuple[Fraction, ...]
    dels: tuple[Fraction, ...] = ()

    def __add__(self, other: "Weight") -> "Weight":
        self._check(other)
        return Weight(
            tuple(a + b for a, b in zip(self.eps, other.eps)),
            tuple(a + b for a, b in zip(self.dels, other.dels)),
        )

    def __sub__(self, other: "Weight") -> "Weight":
        self._check(other)
        return Weight(
            tuple(a - b for a, b in zip(self.eps, other.eps)),
            tuple(a - b for a, b in zip(self.dels, other.dels)),
        )

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.eps), tuple(-a for a in self.dels))

    def __mul__(self, c: RatLike) -> "Weight":
        c = _rat(c)
        return Weight(tuple(c * a for a in self.eps), tuple(c * a for a in self.dels))

    __rmul__ = __mul__

    def _check(self, other: "Weight") -> None:
        if len(self.eps) != len(other.eps) or len(self.dels) != len(other.dels):
            raise ValueError("weight dimension mismatch")

    @property
    def is_zero(self) -> bool:
        return all(a == 0 for a in self.eps) and all(a == 0 for a in self.dels)

    def sort_key(self):
        return (self.eps, self.dels)

    def __str__(self) -> str:
        eps = ",".join(str(a) for a in self.eps)
        dels = ",".join(str(a) for a in self.dels)
        return f"{eps}|{dels}" if self.dels else eps


def weight(eps: Sequence[RatLike], dels: Sequence[RatLike] = ()) -> Weight:
    return Weight(tuple(_rat(a) for a in eps), tuple(_rat(a) for a in dels))


def zero_weight(fam: Family) -> Weight:
    return Weight((Fraction(0),) * fam.eps_dim, (Fraction(0),) * fam.del_dim)


def basis_eps(fam: Family, i: int) -> Weight:
    w = [Fraction(0)] * fam.eps_dim
    w[i] = Fraction(1)
    return Weight(tuple(w), (Fraction(0),) * fam.del_dim)


def basis_del(fam: Family, j: int) -> Weight:
    w = [Fraction(0)] * fam.del_dim
    w[j] = Fraction(1)
    return Weight((Fraction(0),) * fam.eps_dim, tuple(w))


def form(x: Weight, y: Weight) -> Fraction:
    """The invariant bilinear form; positive on eps, negative on dels."""
    x._check(y)
    s = sum((a * b for a, b in zip(x.eps, y.eps)), Fraction(0))
    s -= sum((a * b for a, b in zip(x.dels, y.dels)), Fraction(0))
    return s


@_cached_hash
@dataclass(frozen=True)
class Root:
    """A root: weight plus parity tag and isotropy flag.

    For q(n) every root vector occurs twice, once with each parity;
    root identity is (weight, parity).
    """

    weight: Weight
    parity: str
    isotropic: bool

    def __neg__(self) -> "Root":
        return Root(-self.weight, self.parity, self.isotropic)

    def sort_key(self):
        return (self.parity, self.weight.sort_key())

    def __str__(self) -> str:
        return f"{_root_vector_str(self.weight)}[{self.parity}]"


def _root_vector_str(w: Weight) -> str:
    terms = []
    for i, a in enumerate(w.eps):
        if a:
            terms.append(_term(a, f"e{i + 1}"))
    for j, a in enumerate(w.dels):
        if a:
            terms.append(_term(a, f"d{j + 1}"))
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += t if t.startswith("-") else "+" + t
    return out


def _term(c: Fraction, sym: str) -> str:
    if c == 1:
        return sym
    if c == -1:
        return "-" + sym
    return f"{c}{sym}"


@_cached_hash
@dataclass(frozen=True)
class RootSystem:
    """Full root datum with the canonical even positive system."""

    family: Family
    roots: tuple[Root, ...]
    even_positive: tuple[Root, ...]
    simple_even: tuple[Root, ...]

    @property
    def even_roots(self) -> tuple[Root, ...]:
        return tuple(r for r in self.roots if r.parity == EVEN)

    @cached_property
    def simple_even_set(self) -> frozenset[Root]:
        return frozenset(self.simple_even)

    @property
    def rho0(self) -> Weight:
        return _rho0(self)

    def check_weight(self, w: Weight) -> Weight:
        """Validate dimensions (and the trace-zero constraint for sl)."""
        fam = self.family
        if len(w.eps) != fam.eps_dim or len(w.dels) != fam.del_dim:
            raise ValueError(
                f"weight has shape {len(w.eps)}|{len(w.dels)}, expected "
                f"{fam.eps_dim}|{fam.del_dim} for {fam}"
            )
        if fam.kind == "sl":
            if sum(w.eps) + sum(w.dels) != 0:
                raise ValueError(f"sl weight must have coordinate sum 0: {w}")
        return w

    def find_root(self, w: Weight, parity: str | None = None) -> Root:
        for r in self.roots:
            if r.weight == w and (parity is None or r.parity == parity):
                return r
        raise ValueError(f"{_root_vector_str(w)} is not a root of {self.family}")


@lru_cache(maxsize=None)
def _rho0(system: RootSystem) -> Weight:
    acc = zero_weight(system.family)
    for r in system.even_positive:
        acc = acc + r.weight
    return acc * Fraction(1, 2)


@lru_cache(maxsize=1024)
def coroot(alpha: Root) -> Weight:
    """2*alpha / <alpha, alpha>; defined for non-isotropic even roots."""
    if alpha.parity != EVEN:
        raise ValueError(f"coroot is defined for even roots, got {alpha}")
    norm = form(alpha.weight, alpha.weight)
    if norm == 0:
        raise ValueError(f"coroot undefined for isotropic root {alpha}")
    return alpha.weight * (Fraction(2) / norm)


def _with_negatives(positives: Iterable[Root]) -> list[Root]:
    out = []
    for r in positives:
        out.append(r)
        out.append(-r)
    return out


@lru_cache(maxsize=None)
def build_root_system(fam: Family) -> RootSystem:
    """Construct the root system of a family, with canonical conventions.

    gl/sl(m|n): even roots eps_i - eps_j and del_i - del_j, odd isotropic
    roots +-(eps_i - del_j).  osp(2d+r|2n): even +-eps_i+-eps_j, +-del_i
    +-del_j, +-2del_i (plus +-eps_i when r=1); odd +-del_i+-eps_j
    isotropic (plus non-isotropic +-del_i when r=1).  q(n): eps_i - eps_j
    in both parities, none isotropic.
    """
    kind = fam.kind
    d, n = fam.eps_dim, fam.del_dim
    ev_pos: list[Root] = []
    odd_pos: list[Root] = []

    def ev(w: Weight) -> Root:
        return Root(w, EVEN, False)

    def od(w: Weight) -> Root:
        return Root(w, ODD, form(w, w) == 0)

    e = lambda i: basis_eps(fam, i)
    dl = lambda j: basis_del(fam, j)

    if kind in ("gl", "sl"):
        for i, j in itertools.combinations(range(d), 2):
            ev_pos.append(ev(e(i) - e(j)))
        for i, j in itertools.combinations(range(n), 2):
            ev_pos.append(ev(dl(i) - dl(j)))
        for i in range(d):
            for j in range(n):
                odd_pos.append(od(e(i) - dl(j)))
    elif kind == "osp":
        odd_m = fam.m % 2 == 1
        for i, j in itertools.combinations(range(d), 2):
            ev_pos.append(ev(e(i) - e(j)))
            ev_pos.append(ev(e(i) + e(j)))
        if odd_m:
            for i in range(d):
                ev_pos.append(ev(e(i)))
        for i, j in itertools.combinations(range(n), 2):
            ev_pos.append(ev(dl(i) - dl(j)))
            ev_pos.append(ev(dl(i) + dl(j)))
        for i in range(n):
            ev_pos.append(ev(dl(i) * 2))
        for i in range(n):
            for j in range(d):
                odd_pos.append(od(dl(i) - e(j)))
                odd_pos.append(od(dl(i) + e(j)))
            if odd_m:
                odd_pos.append(od(dl(i)))
    else:  # q(n)
        for i, j in itertools.combinations(range(d), 2):
            ev_pos.append(ev(e(i) - e(j)))
            odd_pos.append(od(e(i) - e(j)))

    roots = tuple(_with_negatives(ev_pos) + _with_negatives(odd_pos))
    even_positive = tuple(sorted(ev_pos, key=Root.sort_key))
    simple = tuple(sorted(simple_basis(ev_pos), key=Root.sort_key))
    for r in roots:
        if r.isotropic != (form(r.weight, r.weight) == 0):
            raise RuntimeError(f"isotropy flag of {r} disagrees with the form")
    return RootSystem(fam, roots, even_positive, simple)


def simple_basis(positives: Sequence[Root]) -> tuple[Root, ...]:
    """The roots of a positive system that are not a sum of two of its
    roots, in the order given: the simple roots of a Borel, the simple
    even roots, and Pi_lambda of an integral Weyl group."""
    vectors = {r.weight for r in positives}
    sums = {a + b for a, b in itertools.combinations_with_replacement(vectors, 2)}
    return tuple(r for r in positives if r.weight not in sums)


def subset_sums(start, vectors: Sequence) -> Counter:
    """The multiset {start + sum(I) : I a subset of vectors}.

    Works for weights and for scalars alike; the odd subset sums behind
    Gamma, GammaTilde and the Verma filtration all come from here.
    """
    sums = Counter({start: 1})
    for v in vectors:
        nxt = Counter()
        for w, mult in sums.items():
            nxt[w] += mult
            nxt[w + v] += mult
        sums = nxt
    return sums


# --- JSON encoding -------------------------------------------------------

def weight_to_json(w: Weight) -> dict:
    return {
        "eps": [str(a) for a in w.eps],
        "del": [str(a) for a in w.dels],
    }


def weight_from_json(obj: dict) -> Weight:
    return Weight(
        tuple(Fraction(s) for s in obj.get("eps", [])),
        tuple(Fraction(s) for s in obj.get("del", [])),
    )


def root_to_json(r: Root) -> dict:
    return {
        "weight": weight_to_json(r.weight),
        "parity": r.parity,
        "isotropic": r.isotropic,
    }


def root_from_json(obj: dict) -> Root:
    return Root(weight_from_json(obj["weight"]), obj["parity"], obj["isotropic"])
