"""Command-line front end.

One command per library operation; input is a file argument or stdin,
output is canonical text on stdout (or JSON with --json).  Exit codes:
0 success, 1 unit/improper result where a proper object was requested,
2 parse or usage error, 3 internal failure (an exhausted computation
budget or a violated internal certificate), which is no answer.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import binomial as binomial_mod
from . import laurent as laurent_mod
from . import saturation, textio
from .constants import SigmaConfig
from .laurent import is_unit
from .zx_lattice import DimensionError, ghnf, gker

BOOL_COMMANDS = {
    "is-prime": laurent_mod.is_prime,
    "is-reflexive": laurent_mod.is_reflexive,
    "is-wellmixed": laurent_mod.is_wellmixed,
    "is-perfect": laurent_mod.is_perfect,
}
CLOSURE_COMMANDS = {
    "charset": laurent_mod.make_character,
    "reflexive-closure": laurent_mod.reflexive_closure,
    "wellmixed-closure": laurent_mod.wellmixed_closure,
    "perfect-closure": laurent_mod.perfect_closure,
}
SAT_COMMANDS = ("satx", "satz", "satm", "satp")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigma-binomial",
        description="Exact computations with Z[x]-lattices and binomial "
        "difference ideals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, **kwargs):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", nargs="?", default="-",
                       help="input file ('-' or omitted for stdin)")
        p.add_argument("--sigma", choices=["id", "conj"], default="id",
                       help="transforming automorphism on constants")
        p.add_argument("--json", action="store_true", help="JSON output")
        p.add_argument("--nvars", type=int, default=None,
                       help="ambient number of variables (default: inferred)")
        for flag, opts in kwargs.items():
            p.add_argument(flag, **opts)
        return p

    add("ghnf", "generalized Hermite normal form of a matrix")
    add("kernel", "generators of the Z[x]-kernel of a matrix")
    add("satx", "x-saturation of a lattice")
    add("satz", "Z-saturation of a lattice, with column multipliers")
    add("satm", "M-saturation of a lattice")
    add("satp", "P-saturation of a lattice")
    add("is-saturated", "decide x-/Z-/M-/P-saturation of a lattice",
        **{"--kind": {"choices": ["x", "z", "m", "p"], "required": True}})
    add("charset", "characteristic set of a Laurent binomial system")
    add("member", "membership of a binomial in a Laurent binomial ideal",
        **{"--query": {"required": True, "help": "binomial to test"}})
    add("reflexive-closure", "reflexive closure of a Laurent binomial ideal")
    add("wellmixed-closure", "well-mixed closure of a Laurent binomial ideal")
    add("perfect-closure", "perfect closure of a Laurent binomial ideal")
    add("is-prime", "primality of a Laurent binomial ideal")
    add("is-reflexive", "reflexivity of a Laurent binomial ideal")
    add("is-wellmixed", "well-mixedness of a Laurent binomial ideal")
    add("is-perfect", "perfectness of a Laurent binomial ideal")
    add("dec-laurent", "decomposition into reflexive prime Laurent ideals")
    add("dec-binomial", "decomposition of a binomial ideal into components")
    add("dimension", "difference dimension of a reflexive prime ideal")
    return parser


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit_ghnf(basis, as_json: bool, multipliers=None) -> None:
    if as_json:
        payload = {
            "n": basis.n,
            "rank": basis.rank,
            "columns": [[str(e) for e in c.entries] for c in basis.columns],
            "blocks": [
                {
                    "pivot_row": b.pivot_row,
                    "size": b.size,
                    "degrees": list(b.degrees),
                    "leading_coeffs": list(b.leading_coeffs),
                }
                for b in basis.blocks
            ],
        }
        if multipliers is not None:
            payload["multipliers"] = list(multipliers)
        print(json.dumps(payload))
    else:
        print(textio.ghnf_to_str(basis, multipliers))


def _emit_bool(value: bool, as_json: bool) -> int:
    print(json.dumps({"value": value}) if as_json else ("true" if value else "false"))
    return 0


def _emit_unit(as_json: bool) -> int:
    print(json.dumps({"unit": True}) if as_json else "unit")
    return 1


def _emit_chain(rho, as_json: bool) -> int:
    if as_json:
        print(json.dumps({"binomials": [str(b) for b in rho.binomials]}))
    else:
        out = textio.laurent_system_to_str(rho.binomials)
        print(out if out else "# trivial ideal (empty chain)")
    return 0


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.nvars is not None and args.nvars < 0:
        print("error: --nvars must be at least 0, got %d" % args.nvars, file=sys.stderr)
        return 2
    sigma = SigmaConfig.IDENTITY if args.sigma == "id" else SigmaConfig.CONJUGATION
    try:
        text = _read_input(args.input)
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    try:
        return _dispatch(args, sigma, text)
    except (ValueError, ArithmeticError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (RuntimeError, AssertionError) as exc:
        print("error: internal failure: %s" % exc, file=sys.stderr)
        return 3


def _dispatch(args, sigma: SigmaConfig, text: str) -> int:
    cmd = args.command

    if cmd in ("ghnf", "kernel", "is-saturated") or cmd in SAT_COMMANDS:
        cols = textio.parse_matrix(text)
        n = args.nvars if args.nvars is not None else (cols[0].n if cols else 0)
        if any(c.n != n for c in cols):
            raise DimensionError("mixed dimensions in generators")
        if cmd == "ghnf":
            _emit_ghnf(ghnf(cols, n), args.json)
            return 0
        if cmd == "kernel":
            gens = gker(cols)
            if args.json:
                print(json.dumps(
                    {"generators": [[str(e) for e in g.entries] for g in gens]}
                ))
            else:
                print("# kernel generators: %d" % len(gens))
                if gens:
                    print(textio.matrix_to_str(gens))
            return 0
        if cmd == "is-saturated":
            basis = ghnf(cols, n)
            return _emit_bool(saturation.is_saturated(basis, args.kind, sigma), args.json)
        if cmd == "satx":
            _emit_ghnf(saturation.sat_x(cols, n), args.json)
            return 0
        if cmd == "satz":
            tracked = saturation.sat_z(cols, n)
            _emit_ghnf(tracked.basis, args.json, tracked.multipliers)
            return 0
        if cmd == "satm":
            _emit_ghnf(saturation.sat_m(cols, sigma, n), args.json)
            return 0
        if cmd == "satp":
            _emit_ghnf(saturation.sat_p(cols, sigma, n), args.json)
            return 0

    if cmd in CLOSURE_COMMANDS:
        system, n = textio.parse_laurent_system(text, args.nvars)
        result = CLOSURE_COMMANDS[cmd](system, sigma, n)
        if is_unit(result):
            return _emit_unit(args.json)
        return _emit_chain(result, args.json)

    if cmd in BOOL_COMMANDS or cmd in ("member", "dimension"):
        system, n = textio.parse_laurent_system(text, args.nvars)
        rho = laurent_mod.make_character(system, sigma, n)
        if is_unit(rho):
            return _emit_unit(args.json)
        if cmd == "member":
            query = textio.parse_laurent_binomial(args.query, n)
            return _emit_bool(laurent_mod.member(query, rho), args.json)
        if cmd == "dimension":
            value = laurent_mod.dimension(rho)
            print(json.dumps({"value": value}) if args.json else str(value))
            return 0
        return _emit_bool(BOOL_COMMANDS[cmd](rho), args.json)

    if cmd == "dec-laurent":
        system, n = textio.parse_laurent_system(text, args.nvars)
        components = laurent_mod.dec_laurent(system, sigma, n)
        if not components:
            return _emit_unit(args.json)
        if args.json:
            print(json.dumps(
                {"components": [[str(b) for b in c.binomials] for c in components]}
            ))
        else:
            print(textio.laurent_components_to_str(components))
        return 0

    if cmd == "dec-binomial":
        system, n = textio.parse_plain_system(text, args.nvars)
        components = binomial_mod.dec_binomial(system, sigma, n)
        if not components:
            return _emit_unit(args.json)
        if args.json:
            print(json.dumps({
                "components": [
                    {
                        "zero": sorted(i + 1 for i in c.zero_vars),
                        "nonzero": sorted(i + 1 for i in c.nonzero_vars),
                        "chain": [str(b) for b in c.chain],
                    }
                    for c in components
                ]
            }))
        else:
            print(textio.binomial_components_to_str(components))
        return 0

    raise AssertionError("unhandled command %r" % cmd)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
