"""Command-line surface.

Every subcommand maps onto one library operation and prints JSON on
stdout; diagnostics go to stderr.  Exit codes: 1 parse error, 2
precondition violation, 3 cap exceeded, 4 verification failure.

Weight literals are comma-separated eps coordinates, then '|', then
comma-separated delta coordinates, rationals as p/q ('3,-1/2|0'); q(n)
weights omit the bar.  Root literals combine signed eps/delta terms as
in 'e1-e2', '2d1', 'd1+e1'.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .rootdata import (
    EVEN,
    ODD,
    CapExceeded,
    FamilyError,
    Root,
    RootSystem,
    Weight,
    build_root_system,
    family,
    root_to_json,
    weight_to_json,
)
from .borel import (
    BorelSystem,
    OddReflectionError,
    borel_from_json,
    distinguished_borel,
    odd_reflection,
    track_highest_weight,
)
from .chars import (
    penkov_decomposition_q,
    twisted_verma_character_equal,
    verma_restriction_weights,
)
from .generic import (
    is_generic,
    is_orbit_maximal,
    is_weakly_generic,
)
from .kl import kl_table, p_table_json
from .primposet import (
    PosetError,
    extra_inclusions_singly_atypical,
    generic_poset,
    hasse,
    small_rank_poset,
    star_inclusion_edges,
    transitive_closure,
)
from .star import (
    StarActionError,
    StarMap,
    antidistinguished_star_map,
    apply_generator,
    osp_star_map,
    star_map,
    star_orbit,
    trivial_star_map,
)
from .typicality import atypicality
from .weyl import chamber, weyl_group

EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_CAP = 3
EXIT_VERIFY = 4


class CliParseError(ValueError):
    pass


def parse_weight(system: RootSystem, literal: str) -> Weight:
    fam = system.family
    try:
        if "|" in literal:
            eps_part, del_part = literal.split("|", 1)
        else:
            eps_part, del_part = literal, ""
        eps = [Fraction(t) for t in eps_part.split(",") if t.strip() != ""]
        dels = [Fraction(t) for t in del_part.split(",") if t.strip() != ""]
    except (ValueError, ZeroDivisionError) as exc:
        raise CliParseError(f"cannot parse weight {literal!r}: {exc}") from exc
    w = Weight(tuple(eps), tuple(dels))
    try:
        system.check_weight(w)
    except ValueError as exc:
        raise CliParseError(str(exc)) from exc
    return w


_TERM = re.compile(r"([+-]?)(\d*)([ed])(\d+)")


def parse_root_vector(system: RootSystem, literal: str) -> Weight:
    fam = system.family
    eps = [Fraction(0)] * fam.eps_dim
    dels = [Fraction(0)] * fam.del_dim
    pos = 0
    cleaned = literal.replace(" ", "")
    for m in _TERM.finditer(cleaned):
        if m.start() != pos:
            raise CliParseError(f"cannot parse root {literal!r} at {pos}")
        pos = m.end()
        sign = -1 if m.group(1) == "-" else 1
        coef = int(m.group(2)) if m.group(2) else 1
        idx = int(m.group(4)) - 1
        block = eps if m.group(3) == "e" else dels
        if idx < 0 or idx >= len(block):
            raise CliParseError(f"index out of range in root {literal!r}")
        block[idx] += sign * coef
    if pos != len(cleaned):
        raise CliParseError(f"cannot parse root {literal!r} at {pos}")
    return Weight(tuple(eps), tuple(dels))


def parse_root(system: RootSystem, literal: str, parity: str | None = None) -> Root:
    vec = parse_root_vector(system, literal)
    try:
        return system.find_root(vec, parity)
    except ValueError as exc:
        raise CliParseError(str(exc)) from exc


def default_map_name(system: RootSystem) -> str:
    if system.family.kind == "q":
        return "q"
    if system.family.kind == "osp":
        return "osp-star-prime"
    return "dot"


def named_star_map(system: RootSystem, name: str) -> StarMap | RootSystem:
    b = distinguished_borel(system)
    if name == "default":
        name = default_map_name(system)
    if system.family.kind == "q":
        if name not in ("q", "dot"):
            raise CliParseError("q(n) has a single star action; use --map q")
        return system
    if name == "dot":
        return trivial_star_map(b)
    if name == "example71":
        return antidistinguished_star_map(system)
    if name == "osp-star":
        return osp_star_map(system, "star")
    if name == "osp-star-prime":
        return osp_star_map(system, "star_prime")
    if name.startswith("@"):
        path = name[1:]
        try:
            with open(path) as fh:
                spec = json.load(fh)
        except OSError as exc:
            raise CliParseError(f"cannot read star map {path!r}: {exc.strerror}")
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise CliParseError(f"star map {path!r} is not JSON: {exc}")
        if not isinstance(spec, dict):
            raise CliParseError(
                f"star map {path!r} must be a JSON object from roots to Borels"
            )
        assignment = {}
        for key, borel_obj in spec.items():
            alpha = parse_root(system, key, EVEN)
            try:
                assignment[alpha] = borel_from_json(system, borel_obj)
            except (KeyError, TypeError, AttributeError) as exc:
                raise CliParseError(
                    f"star map {path!r}: malformed Borel for {key!r} ({exc!r})"
                )
        return star_map(b, assignment, name="custom")
    raise CliParseError(f"unknown star map {name!r}")


def emit(obj, args) -> None:
    print(json.dumps(obj, indent=None if args.compact else 2, sort_keys=False))


def write_dot(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="superweyl",
        description="Exact weight combinatorics for classical Lie superalgebras",
    )
    p.add_argument("--compact", action="store_true", help="single-line JSON")
    sub = p.add_subparsers(dest="command", required=True)

    def add_compact(sp):
        # SUPPRESS: an absent subcommand flag leaves the top-level value
        sp.add_argument(
            "--compact",
            action="store_true",
            default=argparse.SUPPRESS,
            help="single-line JSON",
        )

    def add(name, help_, *, fam=True, wt=False):
        sp = sub.add_parser(name, help=help_)
        add_compact(sp)
        if fam:
            sp.add_argument("--family", required=True, help="e.g. gl:2,1 osp:3,2 q:3")
        if wt:
            sp.add_argument("--weight", required=True, help="weight literal a,b|c")
        return sp

    add("roots", "dump the root system")

    sp = add("borel", "distinguished Borel system (optionally after flips)")
    sp.add_argument("--path", default="", help="semicolon-separated odd roots")

    sp = add("odd-reflect", "apply one odd reflection")
    sp.add_argument("--gamma", required=True, help="isotropic simple root")
    sp.add_argument("--path", default="", help="flips applied beforehand")

    sp = add("track", "transport a highest weight along odd reflections", wt=True)
    sp.add_argument("--path", required=True, help="semicolon-separated odd roots")

    sp = add("rho", "rho triple of a Borel system")
    sp.add_argument("--path", default="")

    sp = add("star", "one deformed reflection", wt=True)
    sp.add_argument("--map", default="default", help="dot, example71, osp-star, osp-star-prime, q, or @file.json")
    sp.add_argument("--alpha", required=True, help="simple even root")

    sp = add("star-orbit", "closure of a weight under the star action", wt=True)
    sp.add_argument("--map", default=None)
    sp.add_argument("--max-vertices", type=int, default=10_000)
    sp.add_argument("--dot", default=None, help="write DOT to this file")

    add("typicality", "atypical roots and typicality flags", wt=True)

    sp = add("generic", "weak genericity / genericity / orbit maximality", wt=True)
    sp.add_argument("--orbitwise", action="store_true")

    add("chamber", "chamber sign vector and regularity", wt=True)

    sp = add("kl", "Kazhdan-Lusztig polynomial table of the even Weyl group")
    sp.add_argument("--cap", type=int, default=10**4)

    sp = add("prim-poset", "primitive-ideal inclusion graph", wt=True)
    sp.add_argument(
        "--rule",
        required=True,
        choices=["small-rank", "generic", "star", "extra"],
    )
    sp.add_argument("--mode", default="proved", help="generic q(n): proved or conjectural-left-order")
    sp.add_argument("--maps", default="default", help="comma-separated maps for --rule star")
    sp.add_argument("--hasse", action="store_true", help="emit the reduced diagram")
    sp.add_argument("--dot", default=None)

    sp = add("chars", "Verma-filtration weight multisets", wt=True)
    sp.add_argument(
        "--op", default="verma", choices=["verma", "penkov", "twist-check"]
    )
    sp.add_argument("--alpha", default=None)
    sp.add_argument("--pairing", default="printed", choices=["printed", "bar"])

    sp = sub.add_parser("verify", help="run a named property suite")
    add_compact(sp)
    sp.add_argument("suite", help="involution prop7.2 thm7.3 lemma8.1 charverma smallrank lemma6.5 or all")
    sp.add_argument("--seed", type=int, default=0)
    return p


def run(args) -> int:
    if args.command == "verify":
        from .verify import run_suite

        ok, msgs = run_suite(args.suite, seed=args.seed)
        for m in msgs:
            print(m, file=sys.stderr)
        print(json.dumps({"suite": args.suite, "passed": ok}))
        return 0 if ok else EXIT_VERIFY

    system = build_root_system(family(args.family))
    b = distinguished_borel(system)

    if args.command == "roots":
        emit(
            {
                "family": str(system.family),
                "roots": [root_to_json(r) for r in system.roots],
                "even_positive": [root_to_json(r) for r in system.even_positive],
                "simple_even": [root_to_json(r) for r in system.simple_even],
            },
            args,
        )
        return 0

    def borel_after(path_literal: str) -> BorelSystem:
        cur = b
        for tok in [t for t in path_literal.split(";") if t.strip()]:
            cur = odd_reflection(cur, parse_root(system, tok, ODD))
        return cur

    if args.command == "borel":
        cur = borel_after(args.path)
        out = cur.to_json()
        out["simple"] = [root_to_json(r) for r in cur.simple]
        emit(out, args)
        return 0

    if args.command == "odd-reflect":
        cur = borel_after(args.path)
        gamma = parse_root(system, args.gamma, ODD)
        nb = odd_reflection(cur, gamma)
        out = nb.to_json()
        out["simple"] = [root_to_json(r) for r in nb.simple]
        emit(out, args)
        return 0

    if args.command == "rho":
        cur = borel_after(args.path)
        t = cur.rho_triple
        emit(
            {
                "rho0": weight_to_json(t.rho0),
                "rho1": weight_to_json(t.rho1),
                "rho": weight_to_json(t.rho),
            },
            args,
        )
        return 0

    if args.command == "track":
        lam = parse_weight(system, args.weight)
        path = [parse_root(system, t, ODD) for t in args.path.split(";") if t.strip()]
        out = track_highest_weight(lam, b, path, validate=True)
        emit({"weight": weight_to_json(out), "literal": str(out)}, args)
        return 0

    if args.command == "star":
        lam = parse_weight(system, args.weight)
        m = named_star_map(system, args.map)
        alpha = parse_root(system, args.alpha, EVEN)
        out = apply_generator(m, alpha, lam)
        emit({"weight": weight_to_json(out), "literal": str(out)}, args)
        return 0

    if args.command == "star-orbit":
        lam = parse_weight(system, args.weight)
        m = named_star_map(system, args.map or default_map_name(system))
        g = star_orbit(m, lam, max_vertices=args.max_vertices)
        emit(g.to_json(), args)
        write_dot(g.to_dot(system), args.dot)
        return 0

    if args.command == "typicality":
        lam = parse_weight(system, args.weight)
        emit(atypicality(lam, b).to_json(), args)
        return 0

    if args.command == "generic":
        lam = parse_weight(system, args.weight)
        out = {
            "weakly_generic": is_weakly_generic(lam, b),
            "generic": is_generic(lam, b),
            "orbit_maximal": is_orbit_maximal(lam, b),
        }
        if args.orbitwise:
            from .generic import is_generic_orbitwise

            out["generic_orbitwise"] = is_generic_orbitwise(lam, b)
        emit(out, args)
        return 0

    if args.command == "chamber":
        lam = parse_weight(system, args.weight)
        c = chamber(system, lam)
        emit({"chamber": list(c), "regular": 0 not in c}, args)
        return 0

    if args.command == "kl":
        W = weyl_group(system, args.cap)
        emit({"order": len(W), "polynomials": p_table_json(kl_table(W, args.cap))}, args)
        return 0

    if args.command == "prim-poset":
        lam = parse_weight(system, args.weight)
        if args.rule == "small-rank":
            g = small_rank_poset(system.family, lam)
        elif args.rule == "generic":
            g = generic_poset(b, lam, mode=args.mode)
        elif args.rule == "extra":
            g = extra_inclusions_singly_atypical(lam, b)
        else:
            maps = [named_star_map(system, n) for n in args.maps.split(",")]
            W = weyl_group(system)
            orbit = star_orbit(maps[0], lam, max_vertices=4 * len(W))
            g, skipped = star_inclusion_edges(maps, list(orbit.vertices))
            for lam_s, alpha, why in skipped:
                print(f"skipped {lam_s} at {alpha}: {why}", file=sys.stderr)
        if args.hasse:
            g = hasse(transitive_closure(g))
        emit(g.to_json(), args)
        write_dot(g.to_dot(), args.dot)
        return 0

    if args.command == "chars":
        lam = parse_weight(system, args.weight)
        if args.op == "verma":
            vr = verma_restriction_weights(lam, b)
            emit(
                {
                    "weights": vr.weights.to_json(),
                    "multiplicity_symbol": vr.multiplicity_symbol,
                },
                args,
            )
        elif args.op == "penkov":
            ms = penkov_decomposition_q(lam, system, pairing=args.pairing)
            emit({"weights": ms.to_json(), "pairing": args.pairing}, args)
        else:
            if not args.alpha:
                raise CliParseError("--alpha required for twist-check")
            alpha = parse_root(system, args.alpha, EVEN)
            emit({"equal": twisted_verma_character_equal(lam, alpha, b)}, args)
        return 0

    raise CliParseError(f"unhandled command {args.command}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        return run(args)
    except (CliParseError, FamilyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (
        OddReflectionError,
        StarActionError,
        PosetError,
        ValueError,
    ) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
