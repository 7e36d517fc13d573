"""Tests for exact polynomial arithmetic over Z and Z_p."""

import operator
import random
import time

import pytest

from sigma_binomial.polyzx import (
    DegenerateInput,
    DivisionByZero,
    ExactDivisionError,
    IntPoly,
    ModPoly,
    ext_gcd,
    poly_from_str,
    poly_to_str,
    prime_factors,
    _is_prime,
    _strong_lucas_probable_prime,
    _strong_probable_prime,
)
from sigma_binomial.zx_lattice import LatVec


P = poly_from_str


def test_add_sub_mul():
    assert P("x+1") + P("x-1") == P("2*x")
    assert P("3*x") * P("x+1") == P("3*x^2+3*x")
    assert P("x^2") - P("x^2") == IntPoly()


def test_exact_div():
    assert P("2*x^2+4").exact_div(2) == P("x^2+2")
    with pytest.raises(ExactDivisionError):
        P("2*x+1").exact_div(2)
    with pytest.raises(DivisionByZero):
        P("x").exact_div(0)


def test_degree_and_lead():
    assert IntPoly().degree == float("-inf")
    assert P("x^3+1").degree == 3
    assert P("-2*x").lead == -2


def test_shift():
    assert P("x+1").shift(2) == P("x^3+x^2")
    assert P("x^3+x^2").shift(-2) == P("x+1")
    with pytest.raises(ExactDivisionError):
        P("x+1").shift(-1)


def test_ext_gcd():
    g, u, v = ext_gcd(4, 6)
    assert g == 2 and 4 * u + 6 * v == 2
    assert ext_gcd(1, 0) == (1, 1, 0)
    g, u, v = ext_gcd(-3, 3)
    assert g == 3 and -3 * u + 3 * v == 3
    with pytest.raises(DegenerateInput):
        ext_gcd(0, 0)


def test_prime_factors():
    assert prime_factors(12) == [2, 3]
    assert prime_factors(1) == []
    assert prime_factors(97) == [97]


def _trial_division(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def test_prime_factors_large_cofactor():
    # an 89-bit GHNF leading coefficient that trial division never finished
    started = time.time()
    assert prime_factors(495334883697598769933131237) == [613, 808050381235887063512449]
    # a 54-bit semiprime, and a prime past the exact Miller-Rabin range
    assert prime_factors(134217649 * 134217689) == [134217649, 134217689]
    big = (2**31 - 1) * (2**127 - 1)
    assert prime_factors(-9 * 997 * big) == [3, 997, 2**31 - 1, 2**127 - 1]
    assert time.time() - started < 1.0


def test_prime_factors_matches_trial_division():
    rng = random.Random(40)
    for _ in range(100):
        n = rng.randrange(1, 2**40)
        assert prime_factors(n) == _trial_division(n), n
    for n in range(1, 3000):
        assert prime_factors(n) == _trial_division(n), n


def test_primality_bpsw_branch():
    # the strong Lucas half of BPSW, checked on odd numbers it never sees in
    # prime_factors: together with base 2 it must agree with trial division
    for n in range(3, 20000, 2):
        bpsw = _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)
        assert bpsw == (_trial_division(n) == [n]), n
    # strong Lucas pseudoprimes under Selfridge's parameters
    assert all(_strong_lucas_probable_prime(n) for n in (5459, 5777, 10877, 16109, 18971))
    assert _is_prime(2**127 - 1) and not _is_prime((2**61 - 1) * (2**89 - 1))
    # the smallest strong pseudoprimes to the prime bases up to 37 and up to 41
    assert not _is_prime(318665857834031151167461)
    assert not _is_prime(3317044064679887385961981)


def test_mod_reduce_examples():
    # matrix entry x^2+2x-2 reduces to x^2 over Z_2
    assert ModPoly(2, P("x^2+2*x-2").coeffs) == ModPoly(2, (0, 0, 1))
    assert ModPoly(3, P("3*x^2+4*x+1").coeffs) == ModPoly(3, (1, 1))
    a = P("7*x^3-5*x+2")
    assert ModPoly(5, a.coeffs).lift() == IntPoly([c % 5 for c in a.coeffs])


def test_modpoly_divrem():
    two = 2
    q, r = divmod(ModPoly(two, (0, 0, 1)), ModPoly(two, (0, 1)))
    assert q == ModPoly(two, (0, 1)) and not r
    q, r = divmod(ModPoly(two, (1, 1, 1)), ModPoly(two, (1, 1)))
    assert q == ModPoly(two, (0, 1)) and r == ModPoly(two, (1,))
    q, r = divmod(ModPoly(two, (1,)), ModPoly(two, (0, 1)))
    assert not q and r == ModPoly(two, (1,))
    with pytest.raises(DivisionByZero):
        divmod(ModPoly(two, (1,)), ModPoly(two))


@pytest.mark.parametrize("op, a, b", [
    (operator.add, ModPoly(3, (1, 1)), ModPoly(5, (2, 1))),
    (operator.sub, ModPoly(3, (1, 1)), ModPoly(5, (2, 1))),
    (operator.mul, ModPoly(3, (1, 1)), ModPoly(5, (2, 1))),
    (operator.mul, ModPoly(3), ModPoly(5)),
    (divmod, ModPoly(3, (1, 1)), ModPoly(5, (2, 1))),
    # 2 has no inverse mod 4: the moduli are compared before it is sought
    (divmod, ModPoly(4, (1, 1)), ModPoly(6, (1, 2))),
], ids=["add", "sub", "mul", "mul-zero", "divmod", "divmod-non-unit-lead"])
def test_modpoly_rejects_mixed_moduli(op, a, b):
    with pytest.raises(DegenerateInput, match="mixed moduli %d and %d" % (a.p, b.p)):
        op(a, b)


@pytest.mark.parametrize("zero", [IntPoly(), IntPoly((0, 0)), ModPoly(3), ModPoly(3, (3, 6))],
                         ids=["int", "int-trimmed", "mod", "mod-reduced"])
def test_zero_polynomial_has_no_leading_coefficient(zero):
    assert not zero and zero.degree == float("-inf")
    with pytest.raises(DegenerateInput):
        zero.lead


@pytest.mark.parametrize("coeffs", [(), (1,), (1, 1), (0, 2, 1)], ids=["0", "1", "x+1", "x^2+2x"])
def test_intpoly_never_equals_a_modpoly(coeffs):
    a, m = IntPoly(coeffs), ModPoly(5, coeffs)
    assert a.coeffs == m.coeffs
    assert a != m and m != a
    assert m.lift() == a and ModPoly(5, a.coeffs) == m
    # the hash of each is that of its ring's tag and its data
    assert hash(a) == hash(("IntPoly", coeffs)) and hash(m) == hash(("ModPoly", 5, coeffs))
    with pytest.raises(TypeError):
        a * m


@pytest.mark.parametrize("op, a, b", [
    (operator.add, IntPoly((1, 2)), ModPoly(5, (4, 4))),
    (operator.sub, IntPoly((1, 2)), ModPoly(5, (4, 4))),
    (operator.add, ModPoly(5, (4, 4)), IntPoly((1, 2))),
    (operator.sub, ModPoly(5, (4, 4)), IntPoly((1, 2))),
], ids=["int+mod", "int-mod", "mod+int", "mod-int"])
def test_mixed_rings_raise_type_error(op, a, b):
    """+ and - decline an operand of the other ring, as * does.  A declined
    operand still gets its own turn: IntPoly * LatVec reaches LatVec.__rmul__."""
    with pytest.raises(TypeError):
        op(a, b)
    v = LatVec([IntPoly((1,)), IntPoly((0, 1))])
    assert IntPoly((0, 1)) * v == LatVec([IntPoly((0, 1)), IntPoly((0, 0, 1))])


def test_ring_axioms_randomized():
    rng = random.Random(2024)
    for _ in range(120):
        a = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 4))])
        b = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 4))])
        c = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 4))])
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        # reduction mod p is a ring homomorphism
        for p in (2, 3, 5):
            ap, bp = ModPoly(p, a.coeffs), ModPoly(p, b.coeffs)
            assert ModPoly(p, (a * b).coeffs) == ap * bp
            assert ModPoly(p, (a + b).coeffs) == ap + bp
            assert ModPoly(p, (a - b).coeffs) == ap - bp


def test_divrem_reconstruction_randomized():
    rng = random.Random(99)
    for _ in range(120):
        p = rng.choice([2, 3, 5, 7])
        a = ModPoly(p, [rng.randint(0, p - 1) for _ in range(rng.randint(0, 5))])
        b = ModPoly(p, [rng.randint(0, p - 1) for _ in range(rng.randint(1, 4))])
        if not b:
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_poly_text_roundtrip():
    for s in ["3*x^2+4*x+1", "x", "-2", "0", "x^3+x", "-x+2", "2*x"]:
        assert poly_to_str(P(s)) == s
    rng = random.Random(5)
    for _ in range(100):
        a = IntPoly([rng.randint(-20, 20) for _ in range(rng.randint(0, 6))])
        assert P(poly_to_str(a)) == a
    # terms of one degree add up, and may cancel
    assert P("x+1+x-3") == P("2*x-2") and P("x^2+1-x^2") == P("1")
    with pytest.raises(ValueError):
        P("x**2")
    with pytest.raises(ValueError):
        P("")
