"""Output checks that need no library code: result digests, reference
digests for the default seeds, and closed-form counts.

The checks that call back into the library (KL polynomials by the
R-inversion route, genericity by literal enumeration) run in the worker
after its timed loop; see worker.py.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import re
from fractions import Fraction
from pathlib import Path

from workloads import block_dims

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# weight-scan keeps 16 bits per request so its reference file stays small.
SCAN_DIGEST_BYTES = 2


def digest(outcome: str, text: str) -> str:
    return hashlib.sha256(f"{outcome}\n{text}".encode()).hexdigest()


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, seed: int):
    """Per-request reference digests for this seed, or None when the seed
    has none.  kl-tables output does not depend on the seed, so its
    reference is keyed by family."""
    path = reference_path(workload)
    if not path.is_file():
        return None
    data = json.loads(path.read_text())
    if workload == "kl-tables":
        return data
    entry = data.get(str(seed))
    if entry is None:
        return None
    if workload == "weight-scan":
        raw = base64.b64decode(entry)
        n = SCAN_DIGEST_BYTES
        return [raw[i : i + n].hex() for i in range(0, len(raw), n)]
    return entry


def reference_matches(workload: str, reference, request: dict, full_digest: str) -> bool | None:
    """None when no reference covers the request."""
    if reference is None:
        return None
    if workload == "kl-tables":
        want = reference.get(request["family"])
        return None if want is None else want == full_digest
    return full_digest.startswith(reference[request["id"]])


def pack_scan_reference(digests: list[str]) -> str:
    raw = b"".join(bytes.fromhex(d[: 2 * SCAN_DIGEST_BYTES]) for d in digests)
    return base64.b64encode(raw).decode()


# --- closed forms ---------------------------------------------------------

def _so_order(m: int) -> int:
    d = m // 2
    if m % 2 == 1:
        return 2**d * math.factorial(d)
    return 2 ** (d - 1) * math.factorial(d) if d >= 2 else 1


def weyl_order(spec: str) -> int:
    """Order of the even Weyl group: S_m x S_n for gl/sl(m|n), S_n for
    q(n), W(so(m)) x W(C_n) for osp(m|2n)."""
    kind, _, params = spec.partition(":")
    nums = [int(p) for p in params.split(",")]
    if kind == "q":
        return math.factorial(nums[0])
    if kind == "osp":
        n = nums[1] // 2
        return _so_order(nums[0]) * 2**n * math.factorial(n)
    return math.factorial(nums[0]) * math.factorial(nums[1])


def involutions(k: int) -> int:
    """Involutions in S_k, the number of left cells of S_k (Robinson-Schensted)."""
    a, b = 1, 1
    for i in range(2, k + 1):
        a, b = b, b + (i - 1) * a
    return b


# Left-cell counts of the rank <= 3 orthogonal/symplectic factors met here.
_SO_CELLS = {1: 1, 2: 1, 3: 2, 4: 4, 5: 4, 6: 10}
_SP_CELLS = {1: 2, 2: 4}


def left_cell_count(spec: str, weight: str) -> int | None:
    """Number of left cells of the even Weyl group when the weight is
    integral for every even root (so the generic poset's equality classes
    are the left cells), else None."""
    kind = spec.partition(":")[0]
    eps_txt, _, del_txt = weight.partition("|")
    eps = [Fraction(t) for t in eps_txt.split(",") if t]
    dels = [Fraction(t) for t in del_txt.split(",") if t]
    if kind in ("gl", "sl", "q"):
        blocks = (eps, dels)
        if any((a - blk[0]).denominator != 1 for blk in blocks for a in blk):
            return None
        m, n = block_dims(spec)
        return involutions(m) * involutions(n)
    if any(a.denominator != 1 for a in eps + dels):
        return None
    m = int(spec.partition(":")[2].split(",")[0])
    n = len(dels)
    if m not in _SO_CELLS or n not in _SP_CELLS:
        return None
    return _SO_CELLS[m] * _SP_CELLS[n]


# --- kl output --------------------------------------------------------------

_ORDER = re.compile(r'"order":\s*(\d+)')
_ENTRY = re.compile(
    r'"x":\s*\[([^\]]*)\],\s*"y":\s*\[([^\]]*)\],\s*"coeffs":\s*\[([^\]]*)\]'
)


def _ints(text: str) -> list[int]:
    return [int(t) for t in re.findall(r"-?\d+", text)]


def kl_order(text: str) -> int | None:
    m = _ORDER.search(text)
    return int(m.group(1)) if m else None


def sample_kl_entries(text: str, rng, k: int) -> list[tuple[list[int], list[int], list[int]]]:
    """k emitted (x word, y word, coefficients) entries, each found by
    searching forward from a random offset of the JSON text."""
    out = []
    for _ in range(k):
        m = _ENTRY.search(text, rng.randrange(len(text))) or _ENTRY.search(text)
        if m is not None:
            out.append((_ints(m.group(1)), _ints(m.group(2)), _ints(m.group(3))))
    return out


def poset_nodes(text: str) -> int:
    return len(json.loads(text)["nodes"])
