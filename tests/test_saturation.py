"""Tests for the four lattice saturations and their witnesses."""

import importlib.util
import math
import random
import time
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import V, rand_vec, saturation_systems
from sigma_binomial import laurent, saturation, zx_lattice
from sigma_binomial.constants import SigmaConfig, o_m
from sigma_binomial.laurent import is_wellmixed, perfect_closure, wellmixed_closure
from sigma_binomial.polyzx import IntPoly, _is_prime, _trial_divide, prime_factors
from sigma_binomial.zx_lattice import (
    LatVec,
    contains,
    extend,
    ghnf,
    gker,
    grem,
    lattice_equal,
    member_oracle,
    verify_ghnf,
)
from sigma_binomial.saturation import (
    _zfactor_prime,
    is_saturated,
    mfactor,
    sat_full,
    sat_m,
    sat_p,
    sat_x,
    sat_z,
    torsion_bound,
    xfactor,
    zfactor,
)
from sigma_binomial.textio import parse_laurent_system

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


def _paper_mfactor(basis, sigma):
    """The paper's MFactor witnesses: (x - o_m)*g outside the lattice for
    the sat_Z columns g with tracked multiplier m != 1."""
    tracked = sat_z(basis)
    shifted = (IntPoly((-o_m(m, sigma), 1)) * g
               for g, m in zip(tracked.basis.columns, tracked.multipliers) if m != 1)
    return [h for h in shifted if grem(h, basis)]


def _paper_saturate(gens, n, sigma, kinds):
    """Adjoin the witnesses of the first kind that has any (x, then the
    paper's M) until none has."""
    basis = ghnf(gens, n)
    while True:
        hs = [w.h for w in xfactor(basis)] if "x" in kinds else []
        hs = hs or _paper_mfactor(basis, sigma)
        if not hs:
            return basis
        basis = ghnf(list(basis.columns) + hs, n)


def test_m_step_against_the_paper_loop(monkeypatch):
    """On the criterion-9 family under both sigma: one M round leaves no
    witnesses, sat_m and sat_p equal the loop over the paper's witnesses,
    and every mfactor call adjoins the lattice the paper's witnesses do."""
    calls = []

    def recorded(basis, sigma):
        hs = real(basis, sigma)
        calls.append((basis, sigma, hs))
        return hs

    real = saturation.mfactor
    monkeypatch.setattr(saturation, "mfactor", recorded)
    adding = 0
    for n, gens, _ in saturation_systems():
        for sigma in (ID, CONJ):
            sm, sp = sat_m(gens, sigma, n), sat_p(gens, sigma, n)
            assert real(sm, sigma) == [] and real(sp, sigma) == []
            assert sm.columns == _paper_saturate(gens, n, sigma, "m").columns, gens
            assert sp.columns == _paper_saturate(gens, n, sigma, "xm").columns, gens
            adding += sm.columns != ghnf(gens, n).columns
    for basis, sigma, hs in calls:
        old = _paper_mfactor(basis, sigma)
        assert bool(hs) == bool(old)
        assert ghnf(list(basis.columns) + hs, basis.n).columns == \
            ghnf(list(basis.columns) + old, basis.n).columns
    assert 0 < adding < 400 and len(calls) >= 800, (adding, len(calls))


def _wellmixed_answers(text, sigma):
    system, n = parse_laurent_system(text)
    return (wellmixed_closure(system, sigma, n), perfect_closure(system, sigma, n),
            is_wellmixed(laurent.make_character(system, sigma, n)))


def test_m_step_needs_no_tracked_completion(monkeypatch):
    """sat_m, sat_p, sat_z and is_saturated(..., "p") answer on Examples
    5.22 and 6.23 with tracked completion out of reach, and the
    well-mixed and perfect closures and is_wellmixed on Example 5.22 and
    y1^(3) - 1 run no tracked kernel and at most one completion per
    character they extend; all give the answers they give without the
    patch."""
    ex522 = [V("2", "0"), V("x-1", "0"), V("0", "2"), V("0", "x-1")]
    ex623 = [V("x-1", "0"), V("-2", "2"), V("0", "x-1")]
    cases = [(gens, sigma) for gens in (ex522, ex522[::2], ex623) for sigma in (ID, CONJ)]
    expected = [(_paper_saturate(g, 2, s, "m").columns, _paper_saturate(g, 2, s, "xm").columns)
                for g, s in cases]
    sat_zs = [sat_z(gens, 2) for gens, _ in cases]
    systems = [(text, sigma) for text in ("y1^(2) + 1\ny1^(x) - y1\ny2^(2) + 1\ny2^(x) + y2",
                                          "y1^(3) - 1") for sigma in (ID, CONJ)]
    answers = [_wellmixed_answers(text, sigma) for text, sigma in systems]

    real_extend, real_complete = laurent._tracked_extend, zx_lattice._complete
    completions, runs = [], []

    def untracked(*args, **kwargs):
        raise AssertionError("tracked completion in an M step")

    def counted_extend(*args):
        before = len(completions)
        out = real_extend(*args)
        runs.append(len(completions) - before)
        return out

    monkeypatch.setattr(zx_lattice, "_tracked_extend", untracked)
    monkeypatch.setattr(laurent, "_tracked_extend", untracked)
    for (gens, sigma), (m_cols, p_cols), sz in zip(cases, expected, sat_zs):
        assert sat_z(gens, 2) == sz
        assert sat_m(gens, sigma, 2).columns == m_cols
        assert sat_p(gens, sigma, 2).columns == p_cols
        assert is_saturated(ghnf(gens, 2), "p", sigma) == (p_cols == ghnf(gens, 2).columns)
    assert is_saturated(ghnf(ex522, 2), "p", ID) and is_saturated(ghnf(ex623, 2), "p", ID)
    monkeypatch.setattr(zx_lattice, "_complete", lambda *a, **k: completions.append(1) or real_complete(*a, **k))
    monkeypatch.setattr(laurent, "_tracked_extend", counted_extend)
    for (text, sigma), answer in zip(systems, answers):
        assert _wellmixed_answers(text, sigma) == answer, (text, sigma)
    assert runs and max(runs) <= 1, runs


def test_extend_equals_ghnf_of_the_union(monkeypatch):
    """On the criterion-9 family, extending each GHNF by its zfactor,
    xfactor and mfactor witnesses and by random vectors gives the GHNF of
    the union, and each of extend's three outcomes occurs: the basis
    itself, a certificate without a completion, and one completion."""
    completions, real = [], zx_lattice._complete
    monkeypatch.setattr(zx_lattice, "_complete", lambda *a, **k: completions.append(1) or real(*a, **k))
    outcomes = {"basis": 0, "certified": 0, "completed": 0}
    rng = random.Random(25)
    for n, gens, sigma in saturation_systems():
        basis = ghnf(gens, n)
        for new in ([w.h for w in zfactor(basis)], [w.h for w in xfactor(basis)],
                    mfactor(basis, sigma), [rand_vec(rng, n, 2, 6)],
                    [rand_vec(rng, n, 2, 6) for _ in range(2)]):
            before = len(completions)
            out = extend(basis, new)
            runs = len(completions) - before
            assert out.columns == ghnf(list(basis.columns) + new, n).columns, (gens, new)
            if out is basis:
                assert runs == 0 and not any(grem(v, basis) for v in new)
                outcomes["basis"] += 1
            else:
                assert runs <= 1
                outcomes["completed" if runs else "certified"] += 1
    assert all(outcomes.values()), outcomes


def test_saturations_extend_rather_than_complete_again(monkeypatch):
    """sat_x, sat_z, sat_m and sat_p call ghnf once, on the raw
    generators, and not at all on a GHNF: their rounds extend it."""
    calls, real = [], saturation.ghnf

    def counted(gens, n=None):
        calls.append(list(gens))
        return real(calls[-1], n)

    monkeypatch.setattr(saturation, "ghnf", counted)
    rounds = 0
    for n, gens, sigma in saturation_systems():
        basis = real(gens, n)
        for run in (lambda g: sat_x(g, n), lambda g: sat_z(g, n),
                    lambda g: sat_m(g, sigma, n), lambda g: sat_p(g, sigma, n)):
            calls.clear()
            out = run(gens)
            assert calls == [gens], gens
            calls.clear()
            assert run(basis) == out and calls == [], gens
            rounds += (out.basis if isinstance(out, saturation.TrackedBasis) else out) != basis
    assert rounds > 100, rounds


def _check_torsion_bound(basis):
    """q*g lies in L for every column g of sat_Z(L), and q divides the
    product of the blocks' first leading coefficients; whether L has
    torsion."""
    q, cols = torsion_bound(basis), sat_z(basis).basis.columns
    assert all(contains(basis, q * g) for g in cols), (basis, q)
    assert q >= 1 and math.prod(b.leading_coeffs[0] for b in basis.blocks) % q == 0, (basis, q)
    return cols != basis.columns


def test_torsion_bound_on_the_saturation_family():
    torsion = sum(_check_torsion_bound(ghnf(gens, n)) for n, gens, _ in saturation_systems())
    assert 0 < torsion < 200, torsion


def _z_loop(gens, n):
    """The Z loop without the degree-0 case: adjoin the ZFactor witnesses
    of the first modulus that has any, the primes below 1000 dividing the
    product of the blocks' first leading coefficients, then its cofactor,
    until no modulus has any."""
    basis = ghnf(gens, n)
    while True:
        small, r = _trial_divide(math.prod(b.leading_coeffs[0] for b in basis.blocks))
        moduli = small + ([r] if r > 1 else [])
        wits = next((w for m in moduli if (w := _zfactor_prime(basis, m))), [])
        if not wits:
            return basis
        basis = ghnf(list(basis.columns) + [w.h for w in wits], n)


def test_sat_z_matches_the_witness_loop():
    # on the criterion-9 family, sat_z and sat_full equal the witness loop,
    # also where every block starts at degree 0 and no witness round runs
    degree_0 = 0
    for n, gens, _ in saturation_systems():
        basis, expected = ghnf(gens, n), _z_loop(gens, n)
        assert sat_z(gens, n).basis == expected, gens
        assert sat_full(gens, n) == _z_loop(list(sat_x(gens, n).columns), n), gens
        starts = [(b.pivot_row, b.degrees[0]) for b in basis.blocks]
        degree_0 += starts == [(i, 0) for i in range(1, len(starts) + 1)] and expected != basis
    assert 0 < degree_0 < 200, degree_0


@pytest.mark.parametrize("gens, n, columns, multipliers", [
    # Example 5.22's support lattice: blocks in rows 1, 2, both at degree 0
    ([V("2", "0"), V("x-1", "0"), V("0", "2"), V("0", "x-1")], 2,
     [V("1", "0"), V("0", "1")], (2, 2)),
    # the torsion bound is the content 1, not the leading coefficient 6
    ([V("6*x+1")], 1, [V("6*x+1")], (1,)),
])
def test_sat_z_without_zfactor_prime(monkeypatch, gens, n, columns, multipliers):
    calls, real = [], saturation._zfactor_prime
    monkeypatch.setattr(saturation, "_zfactor_prime", lambda basis, m: calls.append(m) or real(basis, m))
    tracked = sat_z(ghnf(gens, n))
    assert tracked.basis.columns == tuple(columns)
    assert tracked.multipliers == multipliers
    assert calls == []


@pytest.mark.parametrize("gens, n, columns, multipliers", [
    # degree 1: sat_Z(2x - 4) = (x - 2), not (1)
    ([V("2*x-4")], 1, [V("x-2")], (2,)),
    # pivot row 2 only: row 1 holds no vector of sat_Z with top row 1
    ([V("0", "2")], 2, [V("0", "1")], (2,)),
    ([V("x", "2")], 2, [V("x", "2")], (1,)),
])
def test_degree_0_case_needs_both_conditions(gens, n, columns, multipliers):
    tracked = sat_z(gens, n)
    assert tracked.basis.columns == tuple(columns)
    assert tracked.multipliers == multipliers
    assert tracked.basis == _z_loop(gens, n)


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


# ---------------------------------------------------------------------------
# zfactor past trial division: a composite cofactor r of the leading
# coefficients is tested over Z_r[x] and split at a non-unit, never
# factored.


def _bench_gen():
    spec = importlib.util.spec_from_file_location(
        "bench_gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sat_tail(trial: int) -> list[LatVec]:
    """n = s = 3, degree-3 generators with entries up to 1000 from the tail seed 1."""
    rng = random.Random(1)
    for _ in range(trial):
        for _ in range(3):
            rand_vec(rng, 3, 3, 1000)
    return [rand_vec(rng, 3, 3, 1000) for _ in range(3)]


@pytest.mark.parametrize("trial, pool_index", [(3, 408), (4, 409)])
def test_sat_z_former_factoring_hangs(trial, pool_index):
    # the products of their first leading coefficients have 149 and 192
    # bits, and factoring them hung in Pollard-Brent
    gens = _sat_tail(trial)
    instance = _bench_gen().saturate_pool()[pool_index]
    assert instance["op"] == "sat_z"
    assert [[list(e.coeffs) for e in g.entries] for g in gens] == instance["gens"]
    start = time.perf_counter()
    tracked = sat_z(gens, 3)
    assert time.perf_counter() - start < 1.0
    ok, problems = verify_ghnf(tracked.basis)
    assert ok, problems
    assert all(contains(tracked.basis, g) for g in gens)
    orig = ghnf(gens, 3)
    for g, m in zip(tracked.basis.columns, tracked.multipliers):
        assert m >= 1 and contains(orig, m * g)


def test_sat_z_composite_torsion():
    p1, p2 = 576460752303435851, 1152921504606914869  # primes of 59 and 60 bits
    assert _is_prime(p1) and _is_prime(p2)
    start = time.perf_counter()
    tracked = sat_z([V(str(p1 * p2)), V("x")], 1)
    assert time.perf_counter() - start < 1.0
    assert tracked.basis.columns == (V("1"),)
    assert tracked.multipliers == (p1 * p2,)
    wits = zfactor(ghnf([V(str(p1 * p2)), V("x")], 1))
    assert wits and all(w.k == p1 * p2 for w in wits)


def test_zfactor_colon_least_order():
    # 1022117 = 1009 * 1013 and the torsion is 1009 * (1013x - 1): the
    # column is -1009 mod 1022117, not a unit, so the HNF over Z_r[x]
    # splits r and the witness comes from Z_1009[x] with its least multiplier
    basis = ghnf([V("1022117*x-1009")], 1)
    wits = zfactor(basis)
    assert [(w.h, w.k, w.e) for w in wits] == [(V("1013*x-1"), 1009, (IntPoly((1,)),))]
    tracked = sat_z(basis)
    assert tracked.basis.columns == (V("1013*x-1"),) and tracked.multipliers == (1009,)


def _zfactor_by_primes(basis):
    """The prime-by-prime ZFactor: factor q completely, try each prime."""
    q = math.prod(b.leading_coeffs[0] for b in basis.blocks)
    for p in prime_factors(q):
        wits = _zfactor_prime(basis, p)
        if wits:
            return wits
    return []


def _sat_z_by_primes(gens, n):
    basis = ghnf(gens, n)
    while wits := _zfactor_by_primes(basis):
        basis = ghnf(list(basis.columns) + [w.h for w in wits], n)
    return basis


_MID_PRIMES = [p for p in range(1009, 10**5, 2) if _is_prime(p)][::40]


@st.composite
def cofactor_lattices(draw):
    """(n, generators, (p1, p2)) whose first leading coefficients have a
    composite cofactor, a product of the two primes p1, p2 in [1009, 10^5].

    The generators are triangular, (c1*f1, 0) and (h, c2*f2), so the
    blocks lead with c1*lc(f1) and c2*lc(f2).  Each f has constant term
    +-1, so the contents c1 and c2 decide whether there is torsion.
    """
    p1, p2 = draw(st.lists(st.sampled_from(_MID_PRIMES), min_size=2, max_size=2, unique=True))
    n = draw(st.integers(1, 2))
    big = st.sampled_from([1, 1, 1, p1, p2, p1 * p2])
    small = st.integers(-4, 4)

    def poly(lead):
        lower = [draw(st.sampled_from([1, -1]))] + draw(st.lists(small, max_size=1))
        return IntPoly(lower + [lead])

    first = [draw(big) * poly(p1 * p2 * draw(st.integers(1, 6)))] + [IntPoly()] * (n - 1)
    gens = [LatVec(first)]
    if n == 2:
        lead = draw(st.sampled_from([1, p1, p2])) * draw(st.integers(1, 6))
        gens.append(LatVec([poly(draw(small)), draw(big) * poly(lead)]))
    return n, gens, (p1, p2)


@settings(max_examples=60, deadline=timedelta(seconds=2))
@given(cofactor_lattices())
def test_zfactor_agrees_with_prime_by_prime(lattice):
    n, gens, _ = lattice
    basis = ghnf(gens, n)
    wits = zfactor(basis)
    assert (wits == []) == (_zfactor_by_primes(basis) == [])
    for w in wits:
        assert w.k * w.h == sum((e * c for e, c in zip(w.e, basis.columns)), LatVec.zero(n))
        assert not contains(basis, w.h)
    assert sat_z(gens, n).basis == _sat_z_by_primes(gens, n)


def _colon_adds_nothing(basis, m):
    """Whether L : m = {h | m*h in L} is L itself.  Each relation (a, b)
    among the columns and m*e_1, ..., m*e_n gives m*(-b) = sum(a_l *
    column_l), and the -b generate L : m."""
    cols = list(basis.columns)
    units = [m * LatVec.unit(basis.n, row) for row in range(basis.n)]
    return not any(grem(LatVec(rel.entries[len(cols):]), basis) for rel in gker(cols + units))


def test_zfactor_prime_agrees_with_colon():
    # the one Z_p[x]-kernel of all the columns finds p-torsion exactly when
    # the independent colon test L : p does
    pairs = torsion = 0
    for n, gens, _ in saturation_systems():
        basis = ghnf(gens, n)
        small, r = _trial_divide(math.prod(b.leading_coeffs[0] for b in basis.blocks))
        for p in small + ([r] if 1 < r < 10**6 else []):
            assert _is_prime(p)
            wits = _zfactor_prime(basis, p)
            assert (wits == []) == _colon_adds_nothing(basis, p), (gens, p)
            for w in wits:
                assert w.k == p and not contains(basis, w.h)
                assert p * w.h == sum((e * c for e, c in zip(w.e, basis.columns)), LatVec.zero(n))
            pairs += 1
            torsion += bool(wits)
    assert (pairs, torsion) == (279, 146)


@settings(max_examples=60, deadline=timedelta(seconds=2))
@given(cofactor_lattices())
def test_zfactor_prime_composite_modulus(lattice):
    # over Z_m[x] for m = p1*p2 and for each prime alone: no witness iff
    # L : m adds nothing, and each witness h lies outside L with k | m and
    # k*h = sum(e_l * column_l)
    n, gens, (p1, p2) = lattice
    basis = ghnf(gens, n)
    for m in (p1 * p2, p1, p2):
        wits = _zfactor_prime(basis, m)
        assert (wits == []) == _colon_adds_nothing(basis, m), (gens, m)
        for w in wits:
            assert m % w.k == 0 and not contains(basis, w.h)
            assert w.k * w.h == sum((e * c for e, c in zip(w.e, basis.columns)), LatVec.zero(n))


def _check_least_multipliers(basis, primes=()):
    """Each column g of sat_Z(L) has m*g in L and (m/p)*g outside L for
    every prime p | m, m its multiplier; primes lists the prime factors
    past trial division that m may have.  Returns whether some m > 1."""
    tracked = sat_z(basis)
    for g, m in zip(tracked.basis.columns, tracked.multipliers):
        assert contains(basis, m * g), (basis, g, m)
        small, rest = _trial_divide(m)
        big = [p for p in primes if rest % p == 0]
        for p in big:
            while rest % p == 0:
                rest //= p
        assert rest == 1 or _is_prime(rest), (m, rest)
        for p in small + big + ([rest] if rest > 1 else []):
            assert not contains(basis, (m // p) * g), (basis, g, m, p)
    return any(m > 1 for m in tracked.multipliers)


def test_sat_z_multipliers_are_least():
    torsion = sum(_check_least_multipliers(ghnf(gens, n)) for n, gens, _ in saturation_systems())
    assert 0 < torsion < 200, torsion


@settings(max_examples=60, deadline=timedelta(seconds=2))
@given(cofactor_lattices())
def test_sat_z_multipliers_are_least_past_trial_division(lattice):
    n, gens, primes = lattice
    _check_least_multipliers(ghnf(gens, n), primes)


@st.composite
def lattices_and_vector(draw):
    """(n, generators, v): the criterion-9 saturation family's sizes, and
    one more vector v of the same shape."""
    n = draw(st.integers(1, 3))
    poly = st.lists(st.integers(-6, 6), max_size=3).map(IntPoly)
    vec = st.lists(poly, min_size=n, max_size=n).map(LatVec)
    return n, draw(st.lists(vec, min_size=1, max_size=3)), draw(vec)


@settings(max_examples=100, deadline=timedelta(seconds=2))
@given(lattices_and_vector())
def test_saturation_closure_properties(lattice):
    # every saturation is idempotent, contains its generators and is
    # monotone under adjoining a vector
    n, gens, v = lattice
    sats = {
        "x": lambda g: sat_x(g, n),
        "z": lambda g: sat_z(g, n).basis,
        "full": lambda g: sat_full(g, n),
    }
    for sigma in (ID, CONJ):
        sats["m/" + sigma.name] = lambda g, sigma=sigma: sat_m(g, sigma, n)
        sats["p/" + sigma.name] = lambda g, sigma=sigma: sat_p(g, sigma, n)
    for kind, sat in sats.items():
        s = sat(gens)
        assert sat(list(s.columns)).columns == s.columns, kind
        assert all(contains(s, g) for g in gens), kind
        larger = sat(gens + [v])
        assert all(contains(larger, c) for c in s.columns), kind
    tracked = sat_z(sat_z(gens, n).basis)
    assert all(m == 1 for m in tracked.multipliers)
    # sat_full runs the Z loop once, after sat_x: its Z rounds must keep
    # the lattice x-saturated
    full = sat_full(gens, n)
    assert is_saturated(full, "x") and is_saturated(full, "z")


@settings(max_examples=100, deadline=timedelta(seconds=2))
@given(lattices_and_vector())
def test_torsion_bound_kills_sat_z(lattice):
    n, gens, _ = lattice
    _check_torsion_bound(ghnf(gens, n))


@settings(max_examples=100, deadline=timedelta(seconds=2))
@given(lattices_and_vector())
def test_sat_z_matches_the_witness_loop_randomized(lattice):
    n, gens, _ = lattice
    assert sat_z(gens, n).basis == _z_loop(gens, n)
