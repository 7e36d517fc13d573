"""Tests for plain binomial ideals, DecMono, DecBinomial, member_sat."""

import itertools
import random
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigma_binomial.constants import FieldConst, SigmaConfig, const_from_str
from sigma_binomial.polyzx import IntPoly
from sigma_binomial.zx_lattice import LatVec, lattice_equal
from sigma_binomial.laurent import LaurentBinomial, NotABinomial, is_prime, is_reflexive
from sigma_binomial.binomial import (
    Component,
    MonoTriple,
    PlainBinomial,
    dec_binomial,
    dec_mono,
    member_sat,
    to_laurent,
    to_plain,
)
from sigma_binomial.textio import (
    parse_laurent_binomial,
    parse_plain_binomial,
    parse_plain_system,
    plain_binomial_to_str,
)

ID, CONJ = SigmaConfig.IDENTITY, SigmaConfig.CONJUGATION

SYS_718 = "y1^(x^2) - y1^(2)\ny2^(x^2) - y2^(2)\ny1*y3^(2) - y2^(x)"


def B(text, n):
    return parse_plain_binomial(text, n)


def test_conversion_examples():
    laurent = parse_laurent_binomial("y1*y2^(-x)*y3^(2) - 1", 3)
    plain = to_plain(laurent)
    assert plain_binomial_to_str(plain) == "y1*y3^(2) - y2^(x)"
    assert to_laurent(plain) == laurent
    mixed = parse_laurent_binomial("y1^(x-1) - 3", 1)
    p = to_plain(mixed)
    assert plain_binomial_to_str(p) == "y1^(x) - 3*y1"
    assert to_laurent(p) == mixed
    with pytest.raises(NotABinomial):
        to_laurent(B("y1*y2", 2))


def test_conversion_roundtrip_randomized():
    rng = random.Random(200)
    pool = [FieldConst.one(), const_from_str("-1"), const_from_str("2"),
            const_from_str("zeta(3)"), const_from_str("1/2")]
    for _ in range(100):
        n = rng.randint(1, 3)
        v = LatVec(
            IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(0, 3))])
            for _ in range(n)
        )
        if not v:
            continue
        if not v.is_normal():
            v = -v
        b = LaurentBinomial(v, rng.choice(pool))
        assert to_laurent(to_plain(b)) == b
        p = to_plain(b)
        assert to_plain(to_laurent(p)) == p


def test_parser_rejects_common_factor():
    with pytest.raises(ValueError):
        B("y1^(2) - y1", 1)


def test_dec_mono_examples():
    m = B("y1*y2", 2)
    outs = dec_mono(MonoTriple(frozenset(), (m,), frozenset()))
    got = sorted((sorted(t.zero_vars), sorted(t.nonzero_vars), len(t.items)) for t in outs)
    assert got == [([0], [], 0), ([1], [0], 0)]
    assert dec_mono(MonoTriple(frozenset(), (m,), frozenset({0, 1}))) == []
    b = B("y1 - 1", 2)
    outs3 = dec_mono(MonoTriple(frozenset(), (b,), frozenset()))
    assert len(outs3) == 1 and outs3[0].items == (b,)


def test_dec_mono_partition_exhaustive():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(1, 3)
        monos = []
        for _ in range(rng.randint(1, 3)):
            rows = sorted(rng.sample(range(n), rng.randint(1, n)))
            entries = [
                IntPoly.term(rng.randint(1, 2), rng.randint(0, 1)) if i in rows else IntPoly()
                for i in range(n)
            ]
            monos.append(PlainBinomial(LatVec(entries), LatVec.zero(n), None))
        outs = dec_mono(MonoTriple(frozenset(), tuple(monos), frozenset()))
        # a zero-pattern S satisfies the system iff every monomial touches S
        covered = set()
        for subset in itertools.chain.from_iterable(
            itertools.combinations(range(n), r) for r in range(n + 1)
        ):
            s = frozenset(subset)
            if all(m.variables() & s for m in monos):
                covered.add(s)
        reached = set()
        for t in outs:
            assert not t.items  # monomial-free
            for subset in itertools.chain.from_iterable(
                itertools.combinations(range(n), r) for r in range(n + 1)
            ):
                s = frozenset(subset)
                if t.zero_vars <= s and not (t.nonzero_vars & s):
                    reached.add(s)
        assert reached == covered


def test_dec_binomial_trivial_cases():
    comps = dec_binomial([B("y1 - 1", 1)], ID, 1)
    assert len(comps) == 1
    assert not comps[0].zero_vars
    assert [str(c) for c in comps[0].chain] == ["y1 - 1"]
    assert dec_binomial([B("y1 - 1", 1), B("y1 - 2", 1)], ID, 1) == []


def test_dec_binomial_example_718():
    system, n = parse_plain_system(SYS_718)
    comps = dec_binomial(system, ID, n)
    assert len(comps) == 4
    summary = [
        (sorted(i + 1 for i in c.zero_vars),
         sorted(i + 1 for i in c.nonzero_vars),
         [str(b) for b in c.chain])
        for c in comps
    ]
    assert ([1, 2], [], []) in summary
    assert ([2, 3], [1], ["y1^(x^2) - y1^(2)"]) in summary
    sat_chains = sorted(
        tuple(chain) for zero, excl, chain in summary if not zero
    )
    assert sat_chains == [
        ("y1^(x^2) - y1^(2)", "y2^(x^2) - y2^(2)", "y1*y3^(2) - y2^(x)",
         "y1*y3^(x^2) + y2^(x)"),
        ("y1^(x^2) - y1^(2)", "y2^(x^2) - y2^(2)", "y1*y3^(2) - y2^(x)",
         "y1*y3^(x^2) - y2^(x)"),
    ]
    # every component chain converts to a reflexive prime Laurent character
    from sigma_binomial.binomial import component_character

    for c in comps:
        if c.chain:
            rho = component_character(c, ID)
            assert is_prime(rho) and is_reflexive(rho)


def test_member_sat():
    system, n = parse_plain_system(SYS_718)
    comps = dec_binomial(system, ID, n)
    sat_comps = [c for c in comps if not c.zero_vars]
    for c in sat_comps:
        for g in c.chain:
            assert member_sat(g, c, ID)
    q = B("y1^(2)*y3^(x^2+2) - y2^(2*x)", 3)
    assert any(member_sat(q, c, ID) for c in sat_comps)
    assert not any(member_sat(B("y1^(3) - y2^(x)", 3), c, ID) for c in sat_comps)
    # zeroed-variable membership
    flat = next(c for c in comps if sorted(c.zero_vars) == [0, 1])
    assert member_sat(B("y1*y3 - y2", 3), flat, ID)  # both sides vanish
    assert member_sat(B("y1*y2", 3), flat, ID)
    assert not member_sat(B("y3 - 1", 3), flat, ID)
    # one side vanishes: a monomial survives, or a nonzero constant does
    assert not member_sat(B("y1 - y3", 3), flat, ID)
    assert not member_sat(B("y3 - y2", 3), flat, ID)
    assert not member_sat(B("y1 - 1", 3), flat, ID)
    # a monomial on live variables
    assert not member_sat(B("y3", 3), flat, ID)
    assert not any(member_sat(B("y1*y3", 3), c, ID) for c in sat_comps)


def _sequence_value(seq, exponent: IntPoly):
    """prod_j seq[j]^(e_j) with None meaning the value 0."""
    acc = FieldConst.one()
    for j, c in enumerate(exponent.coeffs):
        if not c:
            continue
        if seq[j] is None:
            return None
        acc = acc * seq[j] ** c
    return acc


def _eval_plain(b: PlainBinomial, point):
    """Evaluate Y^{f+} - c Y^{f-} at a point of FieldConst sequences."""

    def side(vec):
        acc = FieldConst.one()
        for var, e in enumerate(vec.entries):
            if not e:
                continue
            v = _sequence_value(point[var], e)
            if v is None:
                return None
            acc = acc * v
        return acc

    plus, minus = side(b.fplus), side(b.fminus)
    if b.is_monomial:
        return plus is None
    if plus is None and minus is None:
        return True
    if plus is None or minus is None:
        return False
    return plus == b.constant * minus


def test_zero_dimensional_point_check_718():
    # the point y1 = y2 = 1, y3 = (-1, 1, 1, 1, ...) solves one component
    system, n = parse_plain_system(SYS_718)
    comps = dec_binomial(system, ID, n)
    one = FieldConst.one()
    minus = const_from_str("-1")
    point = {
        0: [one, one, one, one],
        1: [one, one, one, one],
        2: [minus, one, one, one],
    }
    satisfied = []
    for c in comps:
        if c.zero_vars:
            continue
        if all(_eval_plain(b, point) for b in c.chain):
            satisfied.append(c)
    assert satisfied
    # any such point must satisfy the input system
    for b in system:
        assert _eval_plain(b, point)


# the constants of the criterion-9 Laurent family
CONSTANTS = ["1", "-1", "2", "4", "zeta(3)", "zeta(4)", "-2", "3"]


@st.composite
def plain_systems(draw):
    """(n, items, sigma): n = 2-4, up to 3 items, one in five a monomial."""
    n = draw(st.integers(2, 4))
    polys = st.lists(st.integers(-2, 2), max_size=3).map(IntPoly)
    vecs = st.lists(polys, min_size=n, max_size=n).map(LatVec).filter(bool)
    items = []
    for _ in range(draw(st.integers(1, 3))):
        v = draw(vecs)
        if draw(st.integers(0, 4)) == 0:
            items.append(PlainBinomial(LatVec(IntPoly(abs(c) for c in e.coeffs) for e in v.entries),
                                       LatVec.zero(n), None))
        else:
            c = const_from_str(draw(st.sampled_from(CONSTANTS)))
            items.append(to_plain(LaurentBinomial(v if v.is_normal() else -v, c)))
    return n, items, draw(st.sampled_from([ID, CONJ]))


@settings(max_examples=60, deadline=timedelta(seconds=2))
@given(plain_systems())
def test_dec_binomial_components_contain_the_input(system):
    n, items, sigma = system
    for comp in dec_binomial(items, sigma, n):
        for b in items:
            assert member_sat(b, comp, sigma), (str(b), comp)
