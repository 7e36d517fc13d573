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
    principal_root,
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


def _rand_const(rng):
    """Primes up to 13 with exponents p/q, |p| <= 3 and q <= 4, and a turn k/m, m <= 12."""
    factors = [(p, Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
               for p in rng.sample([2, 3, 5, 7, 11, 13], rng.randint(0, 3))]
    m = rng.randint(1, 12)
    return FieldConst(factors, Fraction(rng.randint(0, m - 1), m) if rng.random() < 0.7 else 0)


def _assert_normal(c):
    primes = [p for p, _ in c.factors]
    assert primes == sorted(set(primes))
    assert all(type(e) is Fraction and e for _, e in c.factors)
    assert type(c.turn) is Fraction and 0 <= c.turn < 1


def test_group_operations_match_the_constructor():
    """The arithmetic builds normal forms directly; the normalising
    constructor, given the unreduced factors and turn, is the oracle."""
    rng = random.Random(32)
    powers = [0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(0)]
    for _ in range(300):
        a, b = _rand_const(rng), _rand_const(rng)
        k = rng.choice(powers)
        inv = tuple((p, -e) for p, e in b.factors)
        cases = [
            (a * b, FieldConst(a.factors + b.factors, a.turn + b.turn)),
            (a / b, FieldConst(a.factors + inv, a.turn - b.turn)),
            (a ** k, FieldConst(((p, e * k) for p, e in a.factors), a.turn * k)),
            (a / a, FieldConst()),
        ]
        for got, want in cases:
            _assert_normal(got)
            assert got == want and hash(got) == hash(want)
        r = rng.randint(1, 4)
        roots = [FieldConst(((p, e / r) for p, e in a.factors), (a.turn + l) / r) for l in range(r)]
        assert principal_root(a, r) == roots[0] and kth_roots(a, r) == roots
    for m in range(1, 13):
        for k in range(-2 * m, 2 * m + 1):
            z = FieldConst.root_of_unity(m, k)
            _assert_normal(z)
            assert z == FieldConst((), Fraction(k, m))
    for q, want in [(1, FieldConst()), (-1, FieldConst((), Fraction(1, 2))),
                    (Fraction(-35, 12), FieldConst({2: -2, 3: -1, 5: 1, 7: 1}, Fraction(1, 2)))]:
        got = FieldConst.from_rational(q)
        _assert_normal(got)
        assert got == want
    _assert_normal(FieldConst.one())
    assert FieldConst.one() == FieldConst()


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


@pytest.mark.parametrize("call, error", [
    (lambda: FieldConst.root_of_unity(0), DegenerateInput),
    (lambda: FieldConst.root_of_unity(-3, 1), DegenerateInput),
    (lambda: o_m(0, ID), DegenerateInput),
    (lambda: o_m(0, CONJ), DegenerateInput),
    (lambda: const_from_str(""), ValueError),
    (lambda: const_from_str(" \t"), ValueError),
], ids=["root-of-unity-0", "root-of-unity-negative", "o_m-0-id", "o_m-0-conj",
        "const-empty", "const-blank"])
def test_malformed_input_raises(call, error):
    with pytest.raises(error):
        call()


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
