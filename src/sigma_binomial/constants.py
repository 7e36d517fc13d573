"""A computable multiplicative group of difference-field constants.

A constant is a product of positive prime-radical factors p^(a/b) and a
root of unity e^(2*pi*i*turn).  The group is closed under
multiplication, inversion, k-th roots, and the two automorphisms we
model: the identity and complex conjugation (which fixes the radical
part and inverts every root of unity).  Negative rationals are encoded
through turn = 1/2.
"""

from __future__ import annotations

import enum
import math
import re
import sys
from fractions import Fraction

from .polyzx import DegenerateInput, IntPoly, prime_factors


class SigmaConfig(enum.Enum):
    """The transforming automorphism acting on constants."""

    IDENTITY = "id"
    CONJUGATION = "conj"


class FieldConst:
    """An element of the constant group: prod p^e_p times e^(2*pi*i*turn)."""

    __slots__ = ("factors", "turn")

    def __init__(self, factors=(), turn: Fraction | int = 0):
        if isinstance(factors, dict):
            factors = factors.items()
        cleaned = {}
        for p, e in factors:
            e = Fraction(e)
            if e:
                cleaned[p] = cleaned.get(p, Fraction(0)) + e
        self.factors: tuple[tuple[int, Fraction], ...] = tuple(
            (p, e) for p, e in sorted(cleaned.items()) if e
        )
        self.turn: Fraction = Fraction(turn) % 1

    @classmethod
    def one(cls) -> "FieldConst":
        return cls()

    @classmethod
    def from_rational(cls, q) -> "FieldConst":
        q = Fraction(q)
        if q == 0:
            raise DegenerateInput("0 is not in the multiplicative group")
        turn = Fraction(0)
        if q < 0:
            q, turn = -q, Fraction(1, 2)
        factors = {}
        for value, sign in ((q.numerator, 1), (q.denominator, -1)):
            for p in prime_factors(value):
                while value % p == 0:
                    factors[p] = factors.get(p, 0) + sign
                    value //= p
        return cls(factors, turn)

    @classmethod
    def root_of_unity(cls, m: int, k: int = 1) -> "FieldConst":
        if m < 1:
            raise DegenerateInput("root-of-unity order must be positive")
        return cls((), Fraction(k, m))

    def is_one(self) -> bool:
        return not self.factors and self.turn == 0

    def __bool__(self) -> bool:
        return True

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldConst)
            and self.factors == other.factors
            and self.turn == other.turn
        )

    def __hash__(self) -> int:
        return hash((self.factors, self.turn))

    def __mul__(self, other: "FieldConst") -> "FieldConst":
        return FieldConst(self.factors + other.factors, self.turn + other.turn)

    def __truediv__(self, other: "FieldConst") -> "FieldConst":
        inv = tuple((p, -e) for p, e in other.factors)
        return FieldConst(self.factors + inv, self.turn - other.turn)

    def __pow__(self, k: int) -> "FieldConst":
        return FieldConst(((p, e * k) for p, e in self.factors), self.turn * k)

    def scale_exponents(self, q: Fraction) -> "FieldConst":
        return FieldConst(((p, e * q) for p, e in self.factors), self.turn * q)

    def __repr__(self) -> str:
        return "FieldConst(%r)" % const_to_str(self)

    def __str__(self) -> str:
        return const_to_str(self)


def sigma_inv_pow(c: FieldConst, k: int, sigma: SigmaConfig) -> FieldConst:
    """sigma^(-k) of c; conjugation is an involution, so parity decides."""
    if sigma is SigmaConfig.IDENTITY or k % 2 == 0:
        return c
    return FieldConst(c.factors, -c.turn)


def pow_zx(c: FieldConst, e: IntPoly, sigma: SigmaConfig) -> FieldConst:
    """c raised to a Z[x]-exponent: prod over j of sigma^j(c)^e_j.

    Under the identity this is c^e(1); under conjugation the radical part
    is raised to e(1) while the turn picks up the factor e(-1).
    """
    e1 = e(1)
    if sigma is SigmaConfig.IDENTITY:
        return FieldConst(((p, exp * e1) for p, exp in c.factors), c.turn * e1)
    return FieldConst(((p, exp * e1) for p, exp in c.factors), c.turn * e(-1))


def principal_root(c: FieldConst, k: int) -> FieldConst:
    """The k-th root with every exponent and the turn divided by k."""
    if k < 1:
        raise DegenerateInput("root order must be positive")
    return FieldConst(((p, e / k) for p, e in c.factors), c.turn / k)


def kth_roots(c: FieldConst, k: int) -> list[FieldConst]:
    """All k-th roots: the principal root times the k-th roots of unity."""
    principal = principal_root(c, k)
    return [
        FieldConst(principal.factors, principal.turn + Fraction(l, k))
        for l in range(k)
    ]


def o_m(m: int, sigma: SigmaConfig) -> int:
    """The m-th transforming degree of unity: sigma(zeta_m) = zeta_m^o_m."""
    if m < 1:
        raise DegenerateInput("order must be positive")
    if m == 1:
        return 0
    return 1 if sigma is SigmaConfig.IDENTITY else m - 1


# ---------------------------------------------------------------------------
# Text format: '*'-separated factors INT^(RAT), zeta(INT)[^INT], or a bare
# rational, e.g. "2^(1/2)*zeta(8)^3", "-3", "1/3", "1".

_RADICAL_RE = re.compile(r"^(\d+)\^\((-?\d+(?:/\d+)?)\)$")
_ZETA_RE = re.compile(r"^zeta\((\d+)\)(?:\^(-?\d+))?$")
_RAT_RE = re.compile(r"^-?\d+(?:/\d+)?$")


def const_from_str(text: str) -> FieldConst:
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ValueError("empty constant")
    out = FieldConst.one()
    for factor in s.split("*"):
        m = _RADICAL_RE.match(factor)
        if m:
            base = int(m.group(1))
            if base < 2:
                raise ValueError("radical base must be at least 2: %r" % factor)
            out = out * FieldConst.from_rational(base).scale_exponents(
                Fraction(m.group(2))
            )
            continue
        m = _ZETA_RE.match(factor)
        if m:
            order = int(m.group(1))
            if order < 1:
                raise ValueError("zeta order must be positive: %r" % factor)
            power = int(m.group(2)) if m.group(2) else 1
            out = out * FieldConst.root_of_unity(order, power)
            continue
        if _RAT_RE.match(factor):
            out = out * FieldConst.from_rational(Fraction(factor))
            continue
        raise ValueError("malformed constant factor %r" % factor)
    return out


# Python's default limit on the decimal digits of an int it prints.
_MAX_DIGITS = sys.int_info.default_max_str_digits


def _over_digit_limit(powers) -> bool:
    """Whether the product of p^e over (p, e), all e > 0, has more than
    _MAX_DIGITS decimal digits.  The float sum of e*log10(p) decides
    unless it is within one digit of the limit; only then is the product,
    of at most about _MAX_DIGITS + 1 digits, built and compared exactly.
    """
    # 2^(4*limit) > 10^limit, so such an exponent decides alone.
    if any(e > 4 * _MAX_DIGITS for _, e in powers):
        return True
    digits = sum(e * math.log10(p) for p, e in powers)
    if abs(digits - _MAX_DIGITS) > 1:
        return digits > _MAX_DIGITS
    return math.prod(p**e for p, e in powers) >= 10**_MAX_DIGITS


def const_to_str(c: FieldConst) -> str:
    """Canonical text.  Integer-exponent primes are multiplied out into one
    rational, unless its numerator or denominator would be too long to
    print; then, like the others, each prime prints as p^(e)."""
    whole = [(p, e.numerator) for p, e in c.factors if e.denominator == 1]
    multiply = not (_over_digit_limit([(p, e) for p, e in whole if e > 0])
                    or _over_digit_limit([(p, -e) for p, e in whole if e < 0]))
    rational = Fraction(1)
    parts = []
    for p, e in c.factors:
        if multiply and e.denominator == 1:
            rational *= Fraction(p) ** e.numerator
        else:
            parts.append("%d^(%s)" % (p, e))
    if rational != 1 or not parts and not c.turn:
        parts.insert(0, str(rational))
    if c.turn:
        if c.turn.numerator == 1:
            parts.append("zeta(%d)" % c.turn.denominator)
        else:
            parts.append("zeta(%d)^%d" % (c.turn.denominator, c.turn.numerator))
    return "*".join(parts) if parts else "1"
