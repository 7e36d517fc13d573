"""Tests for the four lattice saturations and their witnesses."""

import random

import pytest

from conftest import V, rand_vec, saturation_systems
from sigma_binomial.constants import SigmaConfig
from sigma_binomial.zx_lattice import LatVec, contains, ghnf, lattice_equal, member_oracle
from sigma_binomial.saturation import (
    is_saturated,
    sat_full,
    sat_m,
    sat_p,
    sat_x,
    sat_z,
    xfactor,
    zfactor,
)

ID, CONJ = SigmaConfig.IDENTITY, SigmaConfig.CONJUGATION

C71 = [V("-x+2", "3*x+2", "0"), V("1", "1", "2*x"), V("1", "2*x+1", "x^2")]
C71_SAT = [V("-x+2", "3*x+2", "0"), V("1", "-3", "4"), V("0", "2", "x-2")]
C75 = [V("x^2+2*x-2", "0"), V("x+2", "4"), V("1", "2*x")]
C75_SAT = [V("x^2+2*x-2", "0"), V("x+2", "4"), V("1", "2*x"), V("-1", "x^2-2")]


def test_xfactor_example_71():
    basis = ghnf(C71, 3)
    wits = xfactor(basis)
    assert any([str(e) for e in w.h.entries] == ["0", "2", "x-2"] for w in wits)
    for w in wits:
        assert w.h.shift(1) == sum(
            (c * col for c, col in zip(w.e, basis.columns)), LatVec.zero(3)
        )
        assert not contains(basis, w.h)
    assert xfactor(ghnf(C71_SAT, 3)) == []
    # forced witness: x e1 in the lattice, e1 outside
    forced = xfactor(ghnf([V("x")], 1))
    assert len(forced) == 1 and [str(e) for e in forced[0].h.entries] == ["1"]


def test_sat_x_examples():
    c1 = sat_x(C71, 3)
    assert lattice_equal(c1, C71_SAT)
    assert sat_x(c1.columns, 3).columns == c1.columns
    assert lattice_equal(sat_x([V("x^2")], 1), [V("1")])


def test_zfactor_example_75():
    basis = ghnf(C75, 2)
    wits = zfactor(basis)
    assert wits and all(w.k == 2 for w in wits)
    target = V("1-x", "x^3")
    hit = False
    for w in wits:
        assert w.k * w.h == sum(
            (q * col for q, col in zip(w.e, basis.columns)), LatVec.zero(2)
        )
        assert not contains(basis, w.h)
        both = ghnf(list(basis.columns) + [w.h], 2)
        if contains(both, target) and contains(
            ghnf(list(basis.columns) + [target], 2), w.h
        ):
            hit = True
    assert hit  # witness equals the printed vector modulo the lattice
    assert zfactor(ghnf(C75_SAT, 2)) == []
    forced = zfactor(ghnf([V("2")], 1))
    assert forced and forced[0].k == 2
    assert lattice_equal(
        ghnf([V("2"), forced[0].h], 1), ghnf([V("2"), V("1")], 1)
    )


def test_sat_z_examples():
    tracked = sat_z(C75, 2)
    assert lattice_equal(tracked.basis, C75_SAT)
    orig = ghnf(C75, 2)
    for g, m in zip(tracked.basis.columns, tracked.multipliers):
        assert contains(orig, m * g)
    again = sat_z(tracked.basis.columns, 2)
    assert again.basis.columns == tracked.basis.columns
    assert all(m == 1 for m in again.multipliers)
    simple = sat_z([V("2"), V("x")], 1)
    assert lattice_equal(simple.basis, [V("1")])
    assert simple.multipliers == (2,)


def test_sat_m_examples():
    assert lattice_equal(sat_m([V("2")], ID, 1), [V("2"), V("x-1")])
    assert lattice_equal(sat_m([V("3")], CONJ, 1), [V("3"), V("x-2")])
    fixed = sat_m([V("2"), V("x-1")], ID, 1)
    assert lattice_equal(fixed, [V("2"), V("x-1")])
    support522 = [V("2", "0"), V("x-1", "0"), V("0", "2"), V("0", "x-1")]
    assert is_saturated(ghnf(support522, 2), "m", ID)


def test_sat_p_sat_full_example_623():
    lattice = [V("x-1", "0"), V("-2", "2"), V("0", "x-1")]
    basis = ghnf(lattice, 2)
    assert is_saturated(basis, "p", ID)
    assert sat_p(lattice, ID, 2).columns == basis.columns
    assert lattice_equal(sat_full(lattice, 2), [V("x-1", "0"), V("-1", "1")])


def test_is_saturated_kinds():
    assert not is_saturated(ghnf(C71, 3), "x")
    assert is_saturated(ghnf(C71_SAT, 3), "x")
    assert not is_saturated(ghnf(C75, 2), "z")
    assert is_saturated(ghnf(C75_SAT, 2), "z")


def test_is_saturated_p_needs_sigma():
    with pytest.raises(ValueError):
        is_saturated(ghnf(C71, 3), "p")
    with pytest.raises(ValueError):
        is_saturated(ghnf(C71_SAT, 3), "m")


def test_is_saturated_agrees_with_saturation():
    """On the criterion-9 family, a lattice is k-saturated exactly when
    its k-saturation returns its own GHNF."""
    sats = {
        "x": lambda b, sigma: sat_x(b),
        "m": sat_m,
        "p": sat_p,
    }
    held = {kind: 0 for kind in sats}
    for n, gens, sigma in saturation_systems():
        basis = ghnf(gens, n)
        for kind, sat in sats.items():
            fixed = sat(basis, sigma).columns == basis.columns
            assert is_saturated(basis, kind, sigma) == fixed, (kind, gens)
            held[kind] += fixed
    assert all(0 < count < 200 for count in held.values()), held


def test_saturation_properties_randomized():
    rng = random.Random(400)
    for trial in range(60):
        n = rng.randint(1, 3)
        gens = [rand_vec(rng, n, 2, 6) for _ in range(rng.randint(1, 3))]
        sigma = ID if rng.random() < 0.5 else CONJ
        base = ghnf(gens, n)
        sx = sat_x(gens, n)
        sz = sat_z(gens, n)
        sm = sat_m(gens, sigma, n)
        sp = sat_p(gens, sigma, n)
        for g in base.columns:
            assert contains(sx, g) and contains(sz.basis, g)
            assert contains(sm, g) and contains(sp, g)
        assert sat_x(sx.columns, n).columns == sx.columns
        assert sat_m(sm.columns, sigma, n).columns == sm.columns
        if base.columns:
            assert base.rank == sx.rank == sz.basis.rank == sm.rank == sp.rank
        a = sat_x(sat_m(gens, sigma, n))
        b = sat_m(sat_x(gens, n), sigma)
        assert a.columns == b.columns == sp.columns
        for g, m in zip(sz.basis.columns, sz.multipliers):
            assert contains(base, m * g)


def test_sat_x_oracle_property():
    rng = random.Random(401)
    from sigma_binomial.polyzx import IntPoly

    for _ in range(40):
        n = rng.randint(1, 2)
        gens = [rand_vec(rng, n, 2, 5) for _ in range(rng.randint(1, 2))]
        sx = sat_x(gens, n)
        if not sx.columns:
            continue
        for _ in range(3):
            v = LatVec(IntPoly([rng.randint(-3, 3) for _ in range(3)]) for _ in range(n))
            if contains(sx, v.shift(1)):
                assert contains(sx, v)
        # member_oracle agrees on saturated lattice membership
        v = rand_vec(rng, n, 2, 3)
        if v and sx.columns:
            bound = v.max_degree() + max(c.max_degree() for c in sx.columns) + 1
            assert contains(sx, v) == member_oracle(list(sx.columns), v, bound)
