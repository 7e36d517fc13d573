"""Command-line front end.

Usage: sigma-binomial COMMAND [INPUT] [--sigma {id,conj}] [--json]
                      [--nvars N] [--kind {x,z,m,p}] [--query BINOMIAL]

One command per library operation, listed by ``-h``.  INPUT is a file
('-' or omitted for stdin); options may come before or after it.
``--kind`` belongs to ``is-saturated`` and ``--query`` to ``member``,
and each is required there.  Output is canonical text on stdout (or
JSON with --json).  Exit codes: 0 success, 1 unit/improper result where
a proper object was requested, 2 parse or usage error, an unreadable
input or a failed write of the result, 3 internal failure (an exhausted
computation budget or a violated internal certificate), which is no
answer.

The parser is built once per process, on the first ``run`` call, and
its usage line is formatted then, so it is wrapped at the terminal width
(``COLUMNS``) of that first call.  ``run`` is not meant for concurrent
threads: ``parse_intermixed_args`` edits the shared parser while it
parses.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import binomial as binomial_mod
from . import laurent as laurent_mod
from . import saturation, textio, zx_lattice
from .binomial import Component
from .constants import SigmaConfig
from .laurent import PartialCharacter, is_unit
from .saturation import TrackedBasis
from .zx_lattice import GhnfBasis

# Input kinds: a matrix, a Laurent binomial system, that system's
# characteristic set, and a plain binomial system.
MATRIX, LAURENT, CHARACTER, PLAIN = "matrix", "laurent", "character", "plain"


# name -> (help line, input kind, op[, required option]), where
# op(x, n, sigma, args) gives the result for the parsed input x.
# Library functions are looked up through their modules at call time,
# so that wrapping them there (as the benchmark's tracer does) reaches
# these calls too.
COMMANDS = {
    "ghnf": ("generalized Hermite normal form of a matrix", MATRIX,
             lambda x, n, sigma, args: zx_lattice.ghnf(x, n)),
    "kernel": ("GHNF of the Z[x]-kernel of a matrix", MATRIX,
               lambda x, n, sigma, args: zx_lattice.gker(x)),
    "satx": ("x-saturation of a lattice", MATRIX,
             lambda x, n, sigma, args: saturation.sat_x(x, n)),
    "satz": ("Z-saturation of a lattice, with column multipliers", MATRIX,
             lambda x, n, sigma, args: saturation.sat_z(x, n)),
    "satm": ("M-saturation of a lattice", MATRIX,
             lambda x, n, sigma, args: saturation.sat_m(x, sigma, n)),
    "satp": ("P-saturation of a lattice", MATRIX,
             lambda x, n, sigma, args: saturation.sat_p(x, sigma, n)),
    "is-saturated": (
        "decide x-/Z-/M-/P-saturation of a lattice", MATRIX,
        lambda x, n, sigma, args: saturation.is_saturated(zx_lattice.ghnf(x, n), args.kind, sigma),
        "kind"),
    "charset": ("characteristic set of a Laurent binomial system", CHARACTER,
                lambda x, n, sigma, args: x),
    "member": (
        "membership of a binomial in a Laurent binomial ideal", CHARACTER,
        lambda x, n, sigma, args: laurent_mod.member(args.query, x),
        "query"),
    "reflexive-closure": ("reflexive closure of a Laurent binomial ideal", LAURENT,
                          lambda x, n, sigma, args: laurent_mod.reflexive_closure(x, sigma, n)),
    "wellmixed-closure": ("well-mixed closure of a Laurent binomial ideal", LAURENT,
                          lambda x, n, sigma, args: laurent_mod.wellmixed_closure(x, sigma, n)),
    "perfect-closure": ("perfect closure of a Laurent binomial ideal", LAURENT,
                        lambda x, n, sigma, args: laurent_mod.perfect_closure(x, sigma, n)),
    "is-prime": ("primality of a Laurent binomial ideal", CHARACTER,
                 lambda x, n, sigma, args: laurent_mod.is_prime(x)),
    "is-reflexive": ("reflexivity of a Laurent binomial ideal", CHARACTER,
                     lambda x, n, sigma, args: laurent_mod.is_reflexive(x)),
    "is-wellmixed": ("well-mixedness of a Laurent binomial ideal", CHARACTER,
                     lambda x, n, sigma, args: laurent_mod.is_wellmixed(x)),
    "is-perfect": ("perfectness of a Laurent binomial ideal", CHARACTER,
                   lambda x, n, sigma, args: laurent_mod.is_perfect(x)),
    "dec-laurent": (
        "decomposition into reflexive prime Laurent ideals", LAURENT,
        lambda x, n, sigma, args: laurent_mod.dec_laurent(x, sigma, n) or laurent_mod.UNIT),
    "dec-binomial": (
        "decomposition of a binomial ideal into components", PLAIN,
        lambda x, n, sigma, args: binomial_mod.dec_binomial(x, sigma, n) or laurent_mod.UNIT),
    "dimension": ("difference dimension of a reflexive prime ideal", CHARACTER,
                  lambda x, n, sigma, args: laurent_mod.dimension(x)),
}


def _nvars(text: str) -> int:
    """The --nvars value: an int of at least 0, else a usage error."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError("must be at least 0, got %d" % n)
    return n


_nvars.__name__ = "int"  # argparse names the type in "invalid int value: 'x'"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigma-binomial",
        description="Exact computations with Z[x]-lattices and binomial "
        "difference ideals.",
        epilog="commands:\n" + "\n".join(
            "  %-18s %s" % (name, help_line) for name, (help_line, *_) in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=COMMANDS, metavar="COMMAND",
                        help="one of the commands listed below")
    parser.add_argument("input", nargs="?", default="-", metavar="INPUT",
                        help="input file ('-' or omitted for stdin)")
    parser.add_argument("--sigma", choices=["id", "conj"], default="id",
                        help="transforming automorphism on constants")
    parser.add_argument("--json", action="store_true", help="JSON output")
    parser.add_argument("--nvars", type=_nvars,
                        help="ambient number of variables (default: inferred)")
    parser.add_argument("--kind", choices=["x", "z", "m", "p"],
                        help="saturation to decide (is-saturated only)")
    parser.add_argument("--query", help="binomial to test (member only)")
    # parse_intermixed_args formats the usage line on every call that
    # finds none set; setting it here formats it once.
    parser.usage = parser.format_usage()[len("usage: "):]
    return parser


def _read(kind: str, path: str, nvars: int | None):
    """The input of one kind (a characteristic set as its system) and its number of variables."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    if kind == MATRIX:
        cols = textio.parse_matrix(text)
        return cols, zx_lattice._dimension(cols, nvars)
    if kind == PLAIN:
        return textio.parse_plain_system(text, nvars)
    return textio.parse_laurent_system(text, nvars)


def _form(result, as_json: bool):
    """The JSON payload or the text of a result, picked by its type."""
    if is_unit(result):
        return {"unit": True} if as_json else "unit"
    if isinstance(result, int):  # a decision (printed true/false) or a dimension
        return {"value": result} if as_json else str(result).lower()
    if isinstance(result, (GhnfBasis, TrackedBasis)):
        basis, multipliers = ((result.basis, result.multipliers)
                              if isinstance(result, TrackedBasis) else (result, None))
        if not as_json:
            return textio.ghnf_to_str(basis, multipliers)
        payload = {"n": basis.n, "rank": basis.rank,
                   "columns": [[str(e) for e in c.entries] for c in basis.columns],
                   "blocks": [{"pivot_row": b.pivot_row, "size": b.size, "degrees": list(b.degrees),
                               "leading_coeffs": list(b.leading_coeffs)} for b in basis.blocks]}
        if multipliers is not None:
            payload["multipliers"] = list(multipliers)
        return payload
    if isinstance(result, PartialCharacter):
        if as_json:
            return {"binomials": [str(b) for b in result.binomials]}
        return textio.system_to_str(result.binomials) or "# trivial ideal (empty chain)"
    # a list: components (never empty, an empty decomposition is the unit
    # ideal) or kernel generators
    if result and isinstance(result[0], PartialCharacter):
        if as_json:
            return {"components": [[str(b) for b in c.binomials] for c in result]}
        return textio.laurent_components_to_str(result)
    if result and isinstance(result[0], Component):
        if as_json:
            return {"components": [{"zero": sorted(i + 1 for i in c.zero_vars),
                                    "nonzero": sorted(i + 1 for i in c.nonzero_vars),
                                    "chain": [str(b) for b in c.chain]} for c in result]}
        return textio.binomial_components_to_str(result)
    if as_json:
        return {"generators": [[str(e) for e in g.entries] for g in result]}
    head = "# kernel generators: %d" % len(result)
    return head + "\n" + textio.matrix_to_str(result) if result else head


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_intermixed_args(argv)
        _, kind, op, *required = COMMANDS[args.command]
        for flag in ("kind", "query"):
            if (getattr(args, flag) is None) == (flag in required):
                parser.error("%s %s --%s" % (
                    args.command, "requires" if flag in required else "takes no", flag))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    sigma = SigmaConfig(args.sigma)
    try:
        data, n = _read(kind, args.input, args.nvars)
        if args.query is not None:  # before make_character, which may answer unit
            args.query = textio.parse_laurent_binomial(args.query, n)
        if kind == CHARACTER:
            data = laurent_mod.make_character(data, sigma, n)
        result = data if is_unit(data) else op(data, n, sigma, args)
        form = _form(result, args.json)
    except (OSError, ValueError, ArithmeticError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (RuntimeError, AssertionError, MemoryError) as exc:
        print("error: internal failure: %s" % (str(exc) or type(exc).__name__), file=sys.stderr)
        return 3
    try:
        print(json.dumps(form) if args.json else form)
        sys.stdout.flush()
    except OSError as exc:
        # The interpreter flushes stdout again on exit; pointing it at
        # devnull lets that flush succeed instead of raising once more.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: cannot write the result: %s" % exc, file=sys.stderr)
        return 2
    return 1 if is_unit(result) else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
