"""Text formats: matrices, monomials, binomials, and component listings.

All formats are line oriented; '#'-prefixed lines and blank lines are
ignored on input.  Printing is canonical, and parsing a printed value
returns an equal value.

A system lists one binomial per line.  A component listing is a run of
blocks, a blank line apart.  Each block is a 'component:' line followed
by its binomials, one per line; in a plain decomposition, a 'zero:' and
a 'nonzero:' line, each naming variables (as in 'zero: y1 y3'), come
first.  A listing's number of variables n is the one given, or else the
largest y-index on its lines, comments stripped.

The component readers build each block's character (``make_character``)
and reject what a component cannot hold: a block whose binomials present
the unit ideal, a plain chain line that is a monomial, and a 'zero:' or
'nonzero:' name that is none of y1..yn.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .constants import FieldConst, const_from_str, const_to_str
from .polyzx import IntPoly, poly_from_str, poly_to_str
from .zx_lattice import GhnfBasis, LatVec
from .laurent import LaurentBinomial, is_unit, make_character, normalize_binomial
from .binomial import Component, PlainBinomial, to_laurent, to_plain

_VAR_RE = re.compile(r"^y(\d+)(?:\^\((.*)\))?$")
_BARE_POWER_RE = re.compile(r"^(y\d+)\^([^(].*)$")
# shared, as IntPoly is immutable: the exponent of a bare y<i>, and of an absent one
_ONE_EXP, _ZERO_EXP = IntPoly.const(1), IntPoly()


def strip_comments(text: str) -> list[str]:
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def _split_top(s: str, seps: str) -> list[str]:
    """Split on separators outside parentheses; the separators are kept, at
    odd indices.  One right after '^' stays in its piece: an exponent's sign."""
    parts = []
    depth = start = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced parentheses in %r" % s)
        elif depth == 0 and ch in seps and s[i - 1:i] != "^":
            parts += (s[start:i], ch)
            start = i + 1
    if depth:
        raise ValueError("unbalanced parentheses in %r" % s)
    parts.append(s[start:])
    return parts


# ---------------------------------------------------------------------------
# Matrices: one column per line, entries comma separated.


def parse_matrix(text: str) -> list[LatVec]:
    cols = []
    n = None
    for line in strip_comments(text):
        entries = [poly_from_str(part) for part in line.split(",")]
        if n is None:
            n = len(entries)
        elif len(entries) != n:
            raise ValueError("ragged matrix line %r" % line)
        cols.append(LatVec(entries))
    return cols


def vector_to_str(v: LatVec) -> str:
    return ", ".join(poly_to_str(e) for e in v.entries)


def matrix_to_str(cols) -> str:
    return "\n".join(vector_to_str(c) for c in cols)


def ghnf_to_str(basis: GhnfBasis, multipliers=None) -> str:
    lines = ["# ghnf n=%d rank=%d columns=%d" % (basis.n, basis.rank, len(basis.columns))]
    if multipliers is not None:
        lines.append("# multipliers: " + " ".join(str(m) for m in multipliers))
    for b in basis.blocks:
        lines.append(
            "# block pivot_row=%d size=%d degrees=%s leading_coeffs=%s"
            % (b.pivot_row, b.size, list(b.degrees), list(b.leading_coeffs))
        )
    for c in basis.columns:
        lines.append(vector_to_str(c))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Monomials and binomials.


def _term_to_parts(term: str) -> tuple[FieldConst, dict[int, IntPoly]]:
    """A term is '*'-joined constant factors and y<i>[^(poly)] factors."""
    factors = [f for f in _split_top(term, "*")[::2] if f]
    coeff_parts = []
    exps: dict[int, IntPoly] = {}
    for f in factors:
        m = _VAR_RE.match(f)
        if m:
            idx = int(m.group(1)) - 1
            if idx < 0:
                raise ValueError("variable index must start at 1: %r" % f)
            e = _ONE_EXP if m.group(2) is None else poly_from_str(m.group(2))
            exps[idx] = exps[idx] + e if idx in exps else e
            continue
        if re.match(r"y\d", f):
            bare = _BARE_POWER_RE.match(f)
            hint = ": write %s^(%s)" % bare.groups() if bare else ""
            raise ValueError("malformed variable power %r%s" % (f, hint))
        coeff_parts.append(f)
    coeff = const_from_str("*".join(coeff_parts)) if coeff_parts else FieldConst.one()
    return coeff, exps


def _exps_to_vec(exps: dict[int, IntPoly], n: int) -> LatVec:
    """The exponent vector over y1..yn; a variable past yn is an error."""
    if exps and max(exps) >= n:
        raise ValueError("variable y%d is past the last of n = %d variables" % (max(exps) + 1, n))
    return LatVec(exps.get(i, _ZERO_EXP) for i in range(n))


def binomial_terms(text: str) -> list[tuple[FieldConst, dict[int, IntPoly]]]:
    """Split a binomial line into (signed coefficient, exponents) terms."""
    s = "".join(text.split())
    parts = _split_top(s, "+-")
    terms = []
    # pieces sit at even indices, each after its sign; an empty piece
    # past the first is a sign with no term, repeated or trailing
    for k in range(0, len(parts), 2):
        if parts[k]:
            coeff, exps = _term_to_parts(parts[k])
            negative = k and parts[k - 1] == "-"
            terms.append((coeff * FieldConst.root_of_unity(2) if negative else coeff, exps))
        elif k:
            raise ValueError("dangling sign in %r" % text)
    return terms


def max_var_index(lines: list[str]) -> int:
    """Largest y-index in the lines of a binomial listing, comments
    stripped (0 when none)."""
    return max((int(m) for line in lines for m in re.findall(r"y(\d+)", line)), default=0)


def _lines_and_n(text: str, n: int | None) -> tuple[list[str], int]:
    """A listing's lines, comments stripped, and its n: as given, or else
    the largest y-index."""
    lines = strip_comments(text)
    return lines, max_var_index(lines) if n is None else n


def system_to_str(items) -> str:
    """One binomial per line, Laurent or plain."""
    return "\n".join(str(b) for b in items)


def parse_laurent_binomial(text: str, n: int) -> LaurentBinomial:
    terms = binomial_terms(text)
    if len(terms) != 2:
        raise ValueError("expected exactly two terms in %r" % text)
    (a, e1), (b, e2) = terms
    return normalize_binomial(a, _exps_to_vec(e1, n), b, _exps_to_vec(e2, n))


def monomial_to_str(v: LatVec) -> str:
    parts = []
    for i, e in enumerate(v.entries):
        if not e:
            continue
        if e == _ONE_EXP:
            parts.append("y%d" % (i + 1))
        else:
            parts.append("y%d^(%s)" % (i + 1, poly_to_str(e)))
    return "*".join(parts) if parts else "1"


def _binomial_to_str(plus: str, constant: FieldConst, minus: str) -> str:
    """'plus - constant*minus', from the printed sides: '+' and the
    constant's negation when its turn is 1/2, and a factor 1 left out."""
    sign = "-"
    if constant.turn == Fraction(1, 2):
        constant, sign = FieldConst(constant.factors, 0), "+"
    if constant.is_one():
        tail = minus
    elif minus == "1":
        tail = const_to_str(constant)
    else:
        tail = "%s*%s" % (const_to_str(constant), minus)
    return "%s %s %s" % (plus, sign, tail)


def laurent_binomial_to_str(b: LaurentBinomial) -> str:
    return _binomial_to_str(monomial_to_str(b.support), b.constant, "1")


def parse_laurent_system(text: str, n: int | None = None):
    lines, n = _lines_and_n(text, n)
    return [parse_laurent_binomial(line, n) for line in lines], n


# ---------------------------------------------------------------------------
# Plain (non-Laurent) binomials.


def parse_plain_binomial(text: str, n: int):
    terms = binomial_terms(text)
    for _, exps in terms:
        for e in exps.values():
            if any(c < 0 for c in e.coeffs):
                raise ValueError("plain binomial exponents must be in N[x]: %r" % text)
    if len(terms) == 1:
        _, exps = terms[0]
        if not exps:
            raise ValueError("a constant alone is not a monomial: %r" % text)
        return PlainBinomial(_exps_to_vec(exps, n), LatVec.zero(n), None)
    if len(terms) != 2:
        raise ValueError("expected one or two terms in %r" % text)
    (a, e1), (b, e2) = terms
    v1, v2 = _exps_to_vec(e1, n), _exps_to_vec(e2, n)
    if v1 == v2:
        raise ValueError("the two terms share one monomial: %r" % text)
    for row, (p, q) in enumerate(zip(v1.entries, v2.entries)):
        for k, (c1, c2) in enumerate(zip(p.coeffs, q.coeffs)):
            if c1 and c2:
                raise ValueError(
                    "terms share the factor y%d^(x^%d); factor it out first: %r"
                    % (row + 1, k, text)
                )
    # With no monomial shared, v1 and v2 are the positive and negative
    # parts of the support, in one order or the other.
    return to_plain(normalize_binomial(a, v1, b, v2))


def plain_binomial_to_str(b) -> str:
    if b.is_monomial:
        return monomial_to_str(b.fplus)
    return _binomial_to_str(monomial_to_str(b.fplus), b.constant, monomial_to_str(b.fminus))


def parse_plain_system(text: str, n: int | None = None):
    lines, n = _lines_and_n(text, n)
    return [parse_plain_binomial(line, n) for line in lines], n


# ---------------------------------------------------------------------------
# Component listings.


def _listing(blocks) -> str:
    """Each block's lines under a 'component:' marker, a blank line apart."""
    return "\n\n".join("\n".join(["component:", *lines]) for lines in blocks)


def _groups(lines: list[str]) -> list[list[str]]:
    """The lines under each 'component:' marker."""
    groups: list[list[str]] = []
    for line in lines:
        if line == "component:":
            groups.append([])
        elif groups:
            groups[-1].append(line)
        else:
            raise ValueError("%r comes before the first 'component:' marker" % line)
    return groups


def laurent_components_to_str(components) -> str:
    return _listing(map(laurent_binomial_to_str, rho.binomials) for rho in components)


def _proper(rho, block: list[str]):
    """A block's character; a block presenting the unit ideal is no component."""
    if is_unit(rho):
        raise ValueError("component block %r presents the unit ideal" % block)
    return rho


def parse_laurent_components(text: str, sigma, n: int | None = None):
    lines, n = _lines_and_n(text, n)
    return [_proper(make_character([parse_laurent_binomial(line, n) for line in grp], sigma, n), grp)
            for grp in _groups(lines)]


def _vars_to_str(vars_set) -> str:
    return " ".join("y%d" % (i + 1) for i in sorted(vars_set))


def _vars_from_str(names: str, n: int) -> frozenset[int]:
    """The indices of the variables a 'zero:' or 'nonzero:' line names."""
    out = set()
    for name in names.split():
        m = re.fullmatch(r"y(\d+)", name)
        if not m or not 1 <= int(m.group(1)) <= n:
            raise ValueError("%r is none of the variables y1..y%d" % (name, n))
        out.add(int(m.group(1)) - 1)
    return frozenset(out)


def binomial_components_to_str(components) -> str:
    return _listing([("zero: %s" % _vars_to_str(comp.zero_vars)).rstrip(),
                     ("nonzero: %s" % _vars_to_str(comp.nonzero_vars)).rstrip(),
                     *map(plain_binomial_to_str, comp.chain)] for comp in components)


def parse_binomial_components(text: str, sigma, n: int | None = None):
    lines, n = _lines_and_n(text, n)
    out = []
    for grp in _groups(lines):
        sides = {"zero": frozenset(), "nonzero": frozenset()}
        chain = []
        for line in grp:
            key, _, names = line.partition(":")
            if key in sides:
                sides[key] = _vars_from_str(names, n)
            else:
                chain.append(to_laurent(parse_plain_binomial(line, n)))
        out.append(Component(sides["zero"], sides["nonzero"], _proper(make_character(chain, sigma, n), grp)))
    return out
