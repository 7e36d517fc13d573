"""Exact univariate polynomial arithmetic over Z and over the rings Z_m.

Polynomials are dense coefficient sequences indexed by degree, with
trailing zeros trimmed.  One dense core, ``_DensePoly``, holds the ring
operations; its two subclasses fix the coefficient ring: ``IntPoly``
over Z, and ``ModPoly`` over Z_m, which reduces every coefficient mod m
and refuses to mix moduli.  Everything here is immutable and uses
Python's arbitrary-precision integers; degrees at the scale this library
targets are tiny, so no fast multiplication is attempted.
"""

from __future__ import annotations

import itertools
import re
from math import gcd, isqrt
from typing import Iterable, Iterator


class ExactDivisionError(ArithmeticError):
    """Raised when an exact division over Z does not come out exact."""


class DegenerateInput(ValueError):
    """Raised for inputs outside an operation's domain, e.g. gcd(0, 0)."""


class DivisionByZero(ZeroDivisionError):
    """Raised on division by the zero polynomial."""


class NonUnit(ArithmeticError):
    """No inverse of a mod m; ``factor`` is gcd(a, m), proper if a is nonzero mod m."""

    def __init__(self, factor: int, m: int):
        super().__init__("no inverse mod %d: gcd %d" % (m, factor))
        self.factor = factor


def inverse_mod(a: int, m: int) -> int:
    """The inverse of a mod m; raises NonUnit when gcd(a, m) > 1."""
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NonUnit(gcd(a, m), m) from None


NEG_INF = float("-inf")


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, u, v) with g = gcd(a, b) > 0 and g = u*a + v*b."""
    if a == 0 and b == 0:
        raise DegenerateInput("gcd(0, 0) is undefined")
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


_TRIAL_LIMIT = 1000
_SMALL_PRIMES = tuple(
    p for p in range(2, _TRIAL_LIMIT) if all(p % d for d in range(2, isqrt(p) + 1))
)
# The smallest strong pseudoprime to all prime bases up to 41 is this
# bound (Sorenson and Webster 2015); the one for the bases up to 37 is
# 318665857834031151167461, so 41 is needed.  Above the bound: BPSW.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981
# Squarings one rho search may spend over all its restarts.  Rho's time
# grows with the square root of the least prime factor, so no bound on
# the size of n bounds it; this one stops it within a few seconds.
_RHO_BUDGET = 1 << 22


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin round: whether odd n > 2 is a strong probable prime to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters, for odd n > 2.

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1; P = 1 and
    Q = (1 - D)/4.  Writing n + 1 = d*2^s, n passes when U_d = 0 or
    V_(d*2^r) = 0 for some r < s.
    """
    if isqrt(n) ** 2 == n:
        return False  # no suitable D exists for a square
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    P, Q = 1, (1 - D) // 4

    def half(x: int) -> int:
        x %= n
        return (x + n if x & 1 else x) // 2

    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    U, V, Qk = 1, P, Q % n  # U_1, V_1, Q^1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(P * U + V), half(D * U + P * V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _is_prime(n: int) -> bool:
    """Primality of n: exact below 3.3*10^24, BPSW above.

    No composite is known to pass BPSW, and none exists below 2^64.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if p * p > n:
            return True
        if n % p == 0:
            return n == p
    if n < _TRIAL_LIMIT * _TRIAL_LIMIT:
        return True  # no factor below 1000
    if n < _MR_LIMIT:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _pollard_brent(n: int) -> int:
    """A proper factor of the odd composite n, by Brent's variant of rho.

    Raises RuntimeError, naming n, once ``_RHO_BUDGET`` squarings are
    spent: an exhausted budget, not a malformed input.
    """
    budget = _RHO_BUDGET
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            budget -= 2 * r  # at most r squarings for x, r more for the batches
            if budget < 0:
                raise RuntimeError("cannot factor %d within %d rho steps" % (n, _RHO_BUDGET))
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # the batched product overshot: step back one by one
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def _trial_divide(n: int) -> tuple[list[int], int]:
    """(the primes below 1000 divided out of |n|, ascending; the cofactor).

    The cofactor is 1, a prime larger than every listed prime, or a
    number with no prime factor below 1000.
    """
    n = abs(n)
    small = []
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            small.append(p)
            while n % p == 0:
                n //= p
    return small, n


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of |n|, ascending.

    Primes below 1000 are divided out; the cofactor is split by
    Pollard-Brent rho, each part tested by ``_is_prime``.  A part that rho
    cannot split within its budget raises RuntimeError.
    """
    out, n = _trial_divide(n)
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if _is_prime(m):
            out.append(m)
            continue
        f = _pollard_brent(m)
        stack.extend((f, m // f))
    return sorted(set(out))


class _DensePoly:
    """A dense polynomial: the coefficient tuple and the ring operations
    that IntPoly and ModPoly share.  Each result is built by the
    subclass's ``_new(coeffs, other=None)``, which fixes the coefficient
    ring; ``other`` is the second operand, if any."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)

    @property
    def degree(self):
        """Degree; minus infinity for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def lead(self) -> int:
        if not self.coeffs:
            raise DegenerateInput("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "_DensePoly") -> "_DensePoly":
        if not isinstance(other, type(self)):
            return NotImplemented  # so + and - never mix Z[x] and Z_m[x]
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return self._new(out, other)

    def __neg__(self) -> "_DensePoly":
        return self._new(-c for c in self.coeffs)

    def __sub__(self, other: "_DensePoly") -> "_DensePoly":
        return self + (-other)

    def __mul__(self, other) -> "_DensePoly":
        if isinstance(other, int):
            return self._new(other * c for c in self.coeffs)
        if not isinstance(other, type(self)):
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return self._new(out, other)

    __rmul__ = __mul__


class IntPoly(_DensePoly):
    """A univariate polynomial over Z; coeffs[k] is the coefficient of x^k."""

    __slots__ = ()

    def _new(self, coeffs: Iterable[int], other=None) -> "IntPoly":
        return IntPoly(coeffs)

    @classmethod
    def const(cls, a: int) -> "IntPoly":
        return cls((a,))

    @classmethod
    def term(cls, coeff: int, deg: int) -> "IntPoly":
        if coeff == 0:
            return cls()
        return cls((0,) * deg + (coeff,))

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("IntPoly", self.coeffs))

    def shift(self, k: int) -> "IntPoly":
        """Multiply by x^k; negative k divides exactly or raises."""
        if not self:
            return self
        if k >= 0:
            return IntPoly((0,) * k + self.coeffs)
        if any(self.coeffs[i] for i in range(min(-k, len(self.coeffs)))):
            raise ExactDivisionError("not divisible by x^%d" % -k)
        return IntPoly(self.coeffs[-k:])

    def exact_div(self, d: int) -> "IntPoly":
        """Divide every coefficient by d, which must divide exactly."""
        if d == 0:
            raise DivisionByZero("division by zero integer")
        if any(c % d for c in self.coeffs):
            raise ExactDivisionError("%r not divisible by %d" % (self, d))
        return IntPoly(c // d for c in self.coeffs)

    def __call__(self, v: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * v + c
        return out

    def monomials(self) -> Iterator[tuple[int, int]]:
        """Yield (deg, coeff) for nonzero coefficients, descending degree."""
        for k in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[k]:
                yield k, self.coeffs[k]

    def __repr__(self) -> str:
        return "IntPoly(%r)" % (self.coeffs,)

    def __str__(self) -> str:
        return poly_to_str(self)


class ModPoly(_DensePoly):
    """A univariate polynomial over Z_m for any m > 1, kept as ``p``; a
    divisor whose leading coefficient is not a unit raises NonUnit.
    ``ModPoly(m, a.coeffs)`` reduces an IntPoly a mod m."""

    __slots__ = ("p",)

    def __init__(self, p: int, coeffs: Iterable[int] = ()):
        self.p = p
        # trimmed here, not by the base constructor: one call fewer per
        # polynomial, of which the Z_m[x] HNF builds thousands
        cs = [c % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def _new(self, coeffs: Iterable[int], other=None) -> "ModPoly":
        if other is not None and other.p != self.p:
            raise DegenerateInput("mixed moduli %d and %d" % (self.p, other.p))
        return ModPoly(self.p, coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModPoly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash(("ModPoly", self.p, self.coeffs))

    def __divmod__(self, other: "ModPoly") -> tuple["ModPoly", "ModPoly"]:
        self._new((), other)  # mixed moduli raise before any inverse is taken
        if not other:
            raise DivisionByZero("division by zero polynomial")
        p = self.p
        inv = inverse_mod(other.lead, p)
        rem = list(self.coeffs)
        db = len(other.coeffs) - 1
        q = [0] * max(0, len(rem) - db)
        for k in range(len(rem) - 1, db - 1, -1):
            c = rem[k] % p
            if c == 0:
                continue
            f = (c * inv) % p
            q[k - db] = f
            for j, b in enumerate(other.coeffs):
                rem[k - db + j] = (rem[k - db + j] - f * b) % p
        return ModPoly(p, q), ModPoly(p, rem)

    def lift(self) -> IntPoly:
        """Lift to Z[x] with coefficient representatives in [0, p)."""
        return IntPoly(self.coeffs)

    def __repr__(self) -> str:
        return "ModPoly(%d, %r)" % (self.p, self.coeffs)

    def __str__(self) -> str:
        return poly_to_str(self.lift())


# ---------------------------------------------------------------------------
# Text format: signed integer-coefficient terms in the indeterminate x,
# e.g. "3*x^2+4*x+1", "x", "-2", "0".  Whitespace is insignificant.

_TERM_RE = re.compile(
    r"""^(?P<sign>[+-]?)
        (?:
            (?P<coeff>\d+)(?:\*?(?P<var1>x)(?:\^(?P<exp1>\d+))?)?
          | (?P<var2>x)(?:\^(?P<exp2>\d+))?
        )$""",
    re.VERBOSE,
)


def poly_from_str(text: str) -> IntPoly:
    """Parse the polynomial grammar; raises ValueError on malformed input."""
    s = "".join(text.split())
    if not s:
        raise ValueError("empty polynomial")
    # split into signed terms
    terms = re.findall(r"[+-]?[^+-]+", s)
    if "".join(terms) != s:
        raise ValueError("malformed polynomial %r" % text)
    coeffs = []
    for t in terms:
        m = _TERM_RE.match(t)
        if not m:
            raise ValueError("malformed term %r in %r" % (t, text))
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("coeff") is not None:
            c = sign * int(m.group("coeff"))
            if m.group("var1"):
                d = int(m.group("exp1")) if m.group("exp1") else 1
            else:
                d = 0
        else:
            c = sign
            d = int(m.group("exp2")) if m.group("exp2") else 1
        if d >= len(coeffs):
            coeffs.extend([0] * (d + 1 - len(coeffs)))
        coeffs[d] += c
    return IntPoly(coeffs)


def poly_to_str(a: IntPoly) -> str:
    """Canonical text: terms in descending degree, explicit '*' products."""
    if not a:
        return "0"
    parts = []
    for deg, c in a.monomials():
        mag = abs(c)
        if deg == 0:
            body = str(mag)
        elif deg == 1:
            body = "x" if mag == 1 else "%d*x" % mag
        else:
            body = "x^%d" % deg if mag == 1 else "%d*x^%d" % (mag, deg)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+" if c > 0 else "-") + body)
    return "".join(parts)
