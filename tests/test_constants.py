"""Tests for the constant group, sigma action, roots, and o_m."""

import random
import time
from fractions import Fraction

import pytest

from sigma_binomial.constants import (
    FieldConst,
    SigmaConfig,
    const_from_str,
    const_to_str,
    kth_roots,
    o_m,
    pow_zx,
    sigma_inv_pow,
)
from sigma_binomial.polyzx import DegenerateInput, IntPoly, poly_from_str

P = poly_from_str
ID, CONJ = SigmaConfig.IDENTITY, SigmaConfig.CONJUGATION


def C(s):
    return const_from_str(s)


def test_group_operations():
    half = FieldConst({2: Fraction(1, 2)})
    assert half * half == C("2")
    z3 = FieldConst.root_of_unity(3)
    assert (z3 / z3).is_one()
    assert (z3**3).is_one()
    assert not z3.is_one()


def test_pow_zx_examples():
    assert pow_zx(C("2"), P("x+1"), ID) == C("4")
    assert pow_zx(FieldConst.root_of_unity(3), P("x"), CONJ) == FieldConst.root_of_unity(3, 2)
    c = C("3^(1/2)*zeta(8)")
    assert pow_zx(c, P("2*x"), CONJ) == C("3*zeta(4)^3")


def test_pow_zx_homomorphism_randomized():
    rng = random.Random(6)
    pool = [C("2"), C("-1"), C("3^(1/2)"), C("zeta(5)"), C("2*zeta(8)^3"), C("1/3")]
    for _ in range(100):
        a, b = rng.choice(pool), rng.choice(pool)
        e = IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(0, 3))])
        f = IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(0, 3))])
        for sig in (ID, CONJ):
            assert pow_zx(a, e + f, sig) == pow_zx(a, e, sig) * pow_zx(a, f, sig)
            assert pow_zx(a * b, e, sig) == pow_zx(a, e, sig) * pow_zx(b, e, sig)


def test_sigma_inv_pow():
    assert sigma_inv_pow(C("2"), 5, ID) == C("2")
    assert sigma_inv_pow(FieldConst.root_of_unity(5), 1, CONJ) == FieldConst.root_of_unity(5, 4)
    c = C("5*zeta(5)^2")
    for sig in (ID, CONJ):
        for k in (1, 2, 3):
            image = c
            for _ in range(k):
                image = sigma_inv_pow(image, 1, sig)
            assert sigma_inv_pow(image, k, sig) == c


def test_kth_roots():
    assert set(map(str, kth_roots(C("1"), 2))) == {"1", "zeta(2)"}
    roots = kth_roots(C("4"), 2)
    assert C("2") in roots and C("-2") in roots
    for c in (C("4"), C("zeta(3)"), C("2*zeta(8)^3")):
        for k in (1, 2, 3, 4):
            rs = kth_roots(c, k)
            assert len(set(rs)) == k
            for r in rs:
                assert r**k == c
    with pytest.raises(DegenerateInput):
        kth_roots(C("2"), 0)


def test_o_m():
    assert o_m(3, ID) == 1
    assert o_m(3, CONJ) == 2
    assert o_m(2, CONJ) == 1
    assert o_m(1, ID) == 0 and o_m(1, CONJ) == 0
    from math import gcd

    for m in range(2, 13):
        for sig in (ID, CONJ):
            v = o_m(m, sig)
            assert 0 <= v <= m - 1 and gcd(v, m) == 1


def test_o_compatibility_and_neutrality():
    for m in range(1, 13):
        for k in range(1, 6):
            for sig in (ID, CONJ):
                assert o_m(k * m, sig) % m == o_m(m, sig) % m
    for m in range(1, 13):
        for sig in (ID, CONJ):
            for j in range(m):
                z = FieldConst.root_of_unity(m, j)
                assert pow_zx(z, IntPoly((-o_m(m, sig), 1)), sig).is_one()


def test_text_roundtrip():
    for s in ["2^(1/2)*zeta(8)^3", "1", "3*zeta(2)", "5", "1/3", "2^(-1/2)", "zeta(7)"]:
        assert const_from_str(const_to_str(const_from_str(s))) == const_from_str(s)
    assert const_to_str(C("-3")) == "3*zeta(2)"
    assert const_to_str(C("4^(1/2)")) == "2"
    assert const_to_str(C("12")) == "12"
    with pytest.raises(ValueError):
        const_from_str("x")
    with pytest.raises(DegenerateInput):
        FieldConst.from_rational(0)


def test_text_of_huge_exponents():
    # 2^(2^45) has about 10^13 digits; it used to be multiplied out
    start = time.perf_counter()
    c = FieldConst({2: 2**45})
    assert const_to_str(c) == "2^(35184372088832)"
    assert time.perf_counter() - start < 0.1
    assert const_from_str(const_to_str(c)) == c
    mixed = FieldConst({2: 2**45, 3: -5, 5: Fraction(1, 2)}, Fraction(1, 3))
    assert const_to_str(mixed) == "2^(35184372088832)*3^(-5)*5^(1/2)*zeta(3)"
    assert const_from_str(const_to_str(mixed)) == mixed


def test_text_multiplies_out_up_to_the_digit_limit():
    # 2^14284 has 4,300 digits, Python's default int-to-str limit, and
    # 2^14285 has 4,301; the limit holds for numerator and denominator apart
    assert const_to_str(FieldConst({2: 14284})) == str(2**14284)
    assert const_to_str(FieldConst({2: 14285})) == "2^(14285)"
    assert const_to_str(FieldConst({2: -14284, 3: 1})) == "3/%d" % 2**14284
    assert const_to_str(FieldConst({2: -14285, 3: 1})) == "2^(-14285)*3^(1)"
    # a product of several primes, exactly at the limit: 10^4299, 10^4300
    assert const_to_str(FieldConst({2: 4299, 5: 4299})) == str(10**4299)
    c = FieldConst({2: 4300, 5: 4300})
    assert const_to_str(c) == "2^(4300)*5^(4300)"
    assert const_from_str(const_to_str(c)) == c


def test_from_rational_large_prime_factors():
    # a 54-bit semiprime over a 40-bit prime power; trial division took seconds
    semiprime = 134217649 * 134217689
    c = const_from_str("-%d/%d" % (semiprime, 1099511627791**2))
    assert c.factors == ((134217649, 1), (134217689, 1), (1099511627791, -2))
    assert c.turn == Fraction(1, 2)
