"""Text formats: matrices, monomials, binomials, and component listings.

All formats are line oriented; '#'-prefixed lines and blank lines are
ignored on input.  Printing is canonical, and parsing a printed value
returns an equal value.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .constants import FieldConst, const_from_str, const_to_str
from .polyzx import IntPoly, poly_from_str, poly_to_str
from .zx_lattice import GhnfBasis, LatVec
from .laurent import LaurentBinomial, make_character, normalize_binomial

_VAR_RE = re.compile(r"^y(\d+)(?:\^\((.*)\))?$")


def strip_comments(text: str) -> list[str]:
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def _split_top(s: str, seps: str) -> list[str]:
    """Split on separators outside parentheses; the separators are kept, at odd indices."""
    parts = []
    depth = 0
    cur = ""
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced parentheses in %r" % s)
        if depth == 0 and ch in seps:
            parts.append(cur)
            parts.append(ch)
            cur = ""
        else:
            cur += ch
    if depth:
        raise ValueError("unbalanced parentheses in %r" % s)
    parts.append(cur)
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
            e = IntPoly.const(1) if m.group(2) is None else poly_from_str(m.group(2))
            exps[idx] = exps.get(idx, IntPoly()) + e
            continue
        coeff_parts.append(f)
    coeff = const_from_str("*".join(coeff_parts)) if coeff_parts else FieldConst.one()
    return coeff, exps


def _exps_to_vec(exps: dict[int, IntPoly], n: int) -> LatVec:
    """The exponent vector over y1..yn; a variable past yn is an error."""
    if exps and max(exps) >= n:
        raise ValueError("variable y%d is past the last of n = %d variables" % (max(exps) + 1, n))
    return LatVec(exps.get(i, IntPoly()) for i in range(n))


def binomial_terms(text: str) -> list[tuple[FieldConst, dict[int, IntPoly]]]:
    """Split a binomial line into (signed coefficient, exponents) terms."""
    s = re.sub(r"\s+", "", text)
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
        if e == IntPoly.const(1):
            parts.append("y%d" % (i + 1))
        else:
            parts.append("y%d^(%s)" % (i + 1, poly_to_str(e)))
    return "*".join(parts) if parts else "1"


def _negate_real(c: FieldConst) -> FieldConst | None:
    """c written as -d with d free of the sign factor, when turn is 1/2."""
    if c.turn == Fraction(1, 2):
        return FieldConst(c.factors, 0)
    return None


def laurent_binomial_to_str(b: LaurentBinomial) -> str:
    mono = monomial_to_str(b.support)
    neg = _negate_real(b.constant)
    if neg is not None:
        return "%s + %s" % (mono, const_to_str(neg))
    return "%s - %s" % (mono, const_to_str(b.constant))


def parse_laurent_system(text: str, n: int | None = None):
    lines = strip_comments(text)
    if n is None:
        n = max_var_index(lines)
    return [parse_laurent_binomial(line, n) for line in lines], n


def laurent_system_to_str(binomials) -> str:
    return "\n".join(laurent_binomial_to_str(b) for b in binomials)


# ---------------------------------------------------------------------------
# Plain (non-Laurent) binomials and component listings.


def parse_plain_binomial(text: str, n: int):
    from .binomial import PlainBinomial, to_plain

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
    if not v1 - v2:
        raise ValueError("the two terms share one monomial: %r" % text)
    for row in range(n):
        for k in range(max(len(v1.entries[row].coeffs), len(v2.entries[row].coeffs))):
            if v1.entries[row].coeff(k) and v2.entries[row].coeff(k):
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
    neg = _negate_real(b.constant)
    if neg is not None:
        c, sep = neg, "+"
    else:
        c, sep = b.constant, "-"
    rhs = monomial_to_str(b.fminus)
    if c.is_one():
        tail = rhs
    elif rhs == "1":
        tail = const_to_str(c)
    else:
        tail = "%s*%s" % (const_to_str(c), rhs)
    return "%s %s %s" % (monomial_to_str(b.fplus), sep, tail)


def parse_plain_system(text: str, n: int | None = None):
    lines = strip_comments(text)
    if n is None:
        n = max_var_index(lines)
    return [parse_plain_binomial(line, n) for line in lines], n


def plain_system_to_str(items) -> str:
    return "\n".join(plain_binomial_to_str(b) for b in items)


# ---------------------------------------------------------------------------
# Component listings.


def laurent_components_to_str(components) -> str:
    blocks = []
    for i, rho in enumerate(components, 1):
        lines = ["component:"]
        lines.extend(laurent_binomial_to_str(b) for b in rho.binomials)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def parse_laurent_components(text: str, sigma, n: int | None = None):
    lines = strip_comments(text)
    if n is None:
        n = max_var_index(lines)
    groups: list[list[str]] = []
    for line in lines:
        if line == "component:":
            groups.append([])
        elif groups:
            groups[-1].append(line)
        else:
            raise ValueError("binomial line before any 'component:' marker")
    out = []
    for grp in groups:
        rho = make_character([parse_laurent_binomial(l, n) for l in grp], sigma, n)
        out.append(rho)
    return out


def _vars_to_str(vars_set) -> str:
    return " ".join("y%d" % (i + 1) for i in sorted(vars_set))


def binomial_components_to_str(components) -> str:
    blocks = []
    for comp in components:
        lines = ["component:"]
        lines.append(("zero: %s" % _vars_to_str(comp.zero_vars)).rstrip())
        lines.append(("nonzero: %s" % _vars_to_str(comp.nonzero_vars)).rstrip())
        lines.extend(plain_binomial_to_str(b) for b in comp.chain)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def parse_binomial_components(text: str, n: int):
    from .binomial import Component

    lines = strip_comments(text)
    raw: list[dict] = []
    for line in lines:
        if line == "component:":
            raw.append({"zero": frozenset(), "nonzero": frozenset(), "chain": []})
            continue
        if not raw:
            raise ValueError("content before any 'component:' marker")
        if line.startswith("zero:"):
            raw[-1]["zero"] = frozenset(
                int(tok[1:]) - 1 for tok in line[5:].split()
            )
        elif line.startswith("nonzero:"):
            raw[-1]["nonzero"] = frozenset(
                int(tok[1:]) - 1 for tok in line[8:].split()
            )
        else:
            raw[-1]["chain"].append(parse_plain_binomial(line, n))
    return [
        Component(n, r["zero"], tuple(r["chain"]), r["nonzero"]) for r in raw
    ]
