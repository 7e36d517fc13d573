"""Tests for Laurent binomial ideals: characters, closures, decomposition."""

import random
import time

import pytest

from conftest import V, laurent_systems, rand_vec
from sigma_binomial.constants import FieldConst, SigmaConfig, const_from_str, kth_roots, pow_zx
from sigma_binomial.polyzx import IntPoly, poly_from_str
from sigma_binomial.zx_lattice import LatVec, gker, lattice_equal
from sigma_binomial.laurent import (
    LaurentBinomial,
    NotABinomial,
    NotReflexivePrime,
    dec_laurent,
    dimension,
    is_perfect,
    is_prime,
    is_reflexive,
    is_unit,
    is_wellmixed,
    make_character,
    member,
    normalize_binomial,
    perfect_closure,
    prem_binomial,
    reflexive_closure,
    wellmixed_closure,
)
from sigma_binomial.textio import (
    laurent_binomial_to_str,
    parse_laurent_binomial,
    parse_laurent_system,
)

ID, CONJ = SigmaConfig.IDENTITY, SigmaConfig.CONJUGATION
P = poly_from_str

SYS_716 = "y1^(x^2-2) - 1\ny2^(x^2-2) - 1\ny1*y2^(-x)*y3^(2) - 1"
SYS_522 = "y1^(2) + 1\ny1^(x) - y1\ny2^(2) + 1\ny2^(x) + y2"


def L(text, n):
    return parse_laurent_binomial(text, n)


def test_normalize_binomial():
    one = FieldConst.one()
    b = normalize_binomial(one, V("2", "0"), const_from_str("-1"), V("0", "0"))
    assert [str(e) for e in b.support.entries] == ["2", "0"]
    assert b.constant.is_one()
    b2 = L("y2^(x) + y2", 2)
    assert [str(e) for e in b2.support.entries] == ["0", "x-1"]
    assert str(b2.constant) == "zeta(2)"
    b3 = L("2*y1^(-1) - 6*y1", 1)
    assert [str(e) for e in b3.support.entries] == ["2"]
    assert str(b3.constant) == "1/3"
    with pytest.raises(NotABinomial):
        normalize_binomial(one, V("1"), one, V("1"))


def test_make_character_dichotomy():
    assert is_unit(make_character([L("y1 - 1", 1), L("y1 - 2", 1)], ID, 1))
    rho = make_character([L("y1^(2) - 1", 1), L("y1^(4) - 1", 1)], ID, 1)
    assert [str(b) for b in rho.binomials] == ["y1^(2) - 1"]
    sys716, n = parse_laurent_system(SYS_716)
    rho716 = make_character(sys716, ID, n)
    assert [str(b) for b in rho716.binomials] == [
        "y1^(x^2-2) - 1",
        "y2^(x^2-2) - 1",
        "y1*y2^(-x)*y3^(2) - 1",
    ]


def test_character_consistency_and_regeneration():
    sys716, n = parse_laurent_system(SYS_716)
    rho = make_character(sys716, ID, n)
    # regeneration from its own chain reproduces it
    again = make_character(list(rho.binomials), ID, n)
    assert again == rho
    # kernel relations of the basis send the constants to 1
    for rel in gker(list(rho.basis.columns)):
        acc = FieldConst.one()
        for q, d in zip(rel.entries, rho.constants):
            if q:
                acc = acc * pow_zx(d, q, ID)
        assert acc.is_one()


def test_member_and_prem():
    sys716, n = parse_laurent_system(SYS_716)
    rho = make_character(sys716, ID, n)
    for g in rho.binomials:
        assert member(g, rho)
    assert member(L("y1^(2)*y2^(-2*x)*y3^(2*x^2) - 1", 3), rho)
    assert not member(L("y1^(2)*y2^(-2*x)*y3^(2*x^2) - 2", 3), rho)
    r = prem_binomial(rho.binomials[0], rho)
    assert not r.support and r.constant.is_one()
    outside = L("y3 - 5", 3)
    r2 = prem_binomial(outside, rho)
    assert r2.support


def test_prem_delta_of_coherent_pair():
    # chain {y^(9x+3) - 8, y^(3x^2+4x+1) - 4} satisfies 8^(x+1) = 4^3
    chain = [
        LaurentBinomial(V("9*x+3"), const_from_str("8")),
        LaurentBinomial(V("3*x^2+4*x+1"), const_from_str("4")),
    ]
    rho = make_character(chain, ID, 1)
    assert not is_unit(rho)
    shifted = LaurentBinomial(
        chain[0].support.shift(1), pow_zx(chain[0].constant, P("x"), ID)
    )
    r = prem_binomial(shifted, rho)
    assert not r.support and r.constant.is_one()


def test_membership_coherence_randomized():
    rng = random.Random(55)
    sys716, n = parse_laurent_system(SYS_716)
    rho = make_character(sys716, ID, n)
    for _ in range(40):
        coeffs = [IntPoly([rng.randint(-2, 2) for _ in range(rng.randint(0, 2))]) for _ in rho.basis.columns]
        v = LatVec.zero(n)
        c = FieldConst.one()
        for q, g, d in zip(coeffs, rho.basis.columns, rho.constants):
            if q:
                v = v + q * g
                c = c * pow_zx(d, q, ID)
        if not v:
            continue
        if not v.is_normal():
            v, c = -v, FieldConst.one() / c
        assert member(LaurentBinomial(v, c), rho)
        assert not member(LaurentBinomial(v, c * const_from_str("2")), rho)


def test_closures_lattice_laws():
    sysw, _ = parse_laurent_system("y1^(3) - 1")
    w_id = wellmixed_closure(sysw, ID, 1)
    assert lattice_equal(w_id.basis, [V("3"), V("x-1")])
    assert all(d.is_one() for d in w_id.constants)
    w_conj = wellmixed_closure(sysw, CONJ, 1)
    assert lattice_equal(w_conj.basis, [V("3"), V("x-2")])
    p_conj = perfect_closure(sysw, CONJ, 1)
    assert lattice_equal(p_conj.basis, [V("3"), V("x-2")])

    sysr, _ = parse_laurent_system("y1^(x) - 2")
    r_id = reflexive_closure(sysr, ID, 1)
    assert lattice_equal(r_id.basis, [V("1")])
    assert [str(d) for d in r_id.constants] == ["2"]
    # already reflexive input unchanged
    sys716, n = parse_laurent_system(SYS_716)
    rho = make_character(sys716, ID, n)
    assert reflexive_closure(sys716, ID, n) == rho

    sys525, _ = parse_laurent_system("y2^(2) - y1^(2)")
    w525 = wellmixed_closure(sys525, ID, 2)
    assert member(L("y1^(1-x)*y2^(x-1) - 1", 2), w525)


def test_unit_closures_example_522():
    sys522, n = parse_laurent_system(SYS_522)
    assert is_unit(wellmixed_closure(sys522, ID, n))
    assert is_unit(perfect_closure(sys522, ID, n))
    rho = make_character(sys522, ID, n)
    assert not is_unit(rho)
    assert not is_wellmixed(rho)
    assert not is_perfect(rho)


def test_predicates():
    sys716, n = parse_laurent_system(SYS_716)
    comps = dec_laurent(sys716, ID, n)
    for c in comps:
        assert is_prime(c) and is_reflexive(c)
    # trivial character on a saturated lattice with constants 1
    rho = make_character([L("y1 - 1", 2), L("y2 - 1", 2)], ID, 2)
    assert is_prime(rho) and is_reflexive(rho)
    assert is_wellmixed(rho) and is_perfect(rho)


def test_closure_lattices_randomized():
    from sigma_binomial.saturation import sat_m, sat_p, sat_x

    rng = random.Random(77)
    pool = [
        FieldConst.one(),
        const_from_str("-1"),
        const_from_str("2"),
        const_from_str("zeta(4)"),
        const_from_str("3"),
    ]
    for _ in range(40):
        n = rng.randint(1, 3)
        system = []
        for _ in range(rng.randint(1, 3)):
            v = LatVec(
                IntPoly([rng.randint(-3, 3) for _ in range(rng.randint(0, 3))])
                for _ in range(n)
            )
            if not v:
                continue
            if not v.is_normal():
                v = -v
            system.append(LaurentBinomial(v, rng.choice(pool)))
        if not system:
            continue
        sigma = ID if rng.random() < 0.5 else CONJ
        rho = make_character(system, sigma, n)
        if is_unit(rho):
            continue
        supports = [b.support for b in system]
        refl = reflexive_closure(system, sigma, n)
        assert not is_unit(refl)  # reflexive closure of a proper ideal stays proper
        assert lattice_equal(refl.basis, sat_x(supports, n))
        wm = wellmixed_closure(system, sigma, n)
        if not is_unit(wm):
            assert lattice_equal(wm.basis, sat_m(supports, sigma, n))
        pf = perfect_closure(system, sigma, n)
        if not is_unit(pf):
            assert lattice_equal(pf.basis, sat_p(supports, sigma, n))


def test_predicates_agree_with_closures():
    """On the criterion-9 Laurent family, each predicate holds exactly
    when its closure returns the ideal itself, and every proper closure
    satisfies its predicate."""
    pairs = [
        (is_reflexive, reflexive_closure),
        (is_wellmixed, wellmixed_closure),
        (is_perfect, perfect_closure),
    ]
    held = [0] * len(pairs)
    proper = 0
    for n, system, sigma in laurent_systems():
        rho = make_character(system, sigma, n)
        if is_unit(rho):
            continue
        proper += 1
        for i, (holds, close) in enumerate(pairs):
            closed = close(rho.binomials, sigma, n)
            assert holds(rho) == (closed == rho), (holds.__name__, system)
            assert is_unit(closed) or holds(closed), (holds.__name__, system)
            held[i] += closed == rho
    assert all(0 < count < proper for count in held), (held, proper)


def test_wellmixed_root_independence(monkeypatch):
    import sigma_binomial.laurent as laurent_mod

    sysm, _ = parse_laurent_system("y1^(2) - 4")
    base = wellmixed_closure(sysm, ID, 1)

    original = laurent_mod.kth_roots

    def rotated(c, k):
        roots = original(c, k)
        return roots[1:] + roots[:1] if len(roots) > 1 else roots

    monkeypatch.setattr(laurent_mod, "kth_roots", rotated)
    other = wellmixed_closure(sysm, ID, 1)
    assert (is_unit(base) and is_unit(other)) or base == other


def test_dec_laurent():
    comps = dec_laurent([L("y1^(2) - 4", 1)], ID, 1)
    assert sorted(str(c.constants[0]) for c in comps) == ["2", "2*zeta(2)"]
    sys716, n = parse_laurent_system(SYS_716)
    comps716 = dec_laurent(sys716, ID, n)
    assert len(comps716) == 2
    assert lattice_equal(comps716[0].basis, comps716[1].basis)
    added = []
    for c in comps716:
        for b in c.binomials:
            if [str(e) for e in b.support.entries] == ["1", "-x", "x^2"]:
                added.append(str(b.constant))
    assert sorted(added) == ["1", "zeta(2)"]
    # reflexive prime input decomposes to itself
    rho = make_character([L("y1 - 5", 1)], ID, 1)
    comps2 = dec_laurent(list(rho.binomials), ID, 1)
    assert len(comps2) == 1 and comps2[0] == rho
    # perfect closure unit -> empty decomposition
    sys522, n522 = parse_laurent_system(SYS_522)
    assert dec_laurent(sys522, ID, n522) == []
    # component count divides the branching product: y^4 - 1 has 4 roots
    comps4 = dec_laurent([L("y1^(4) - 1", 1)], ID, 1)
    assert len(comps4) == 4


def test_dimension():
    sys716, n = parse_laurent_system(SYS_716)
    comps = dec_laurent(sys716, ID, n)
    assert all(dimension(c) == 0 for c in comps)
    empty = make_character([], ID, 3)
    assert dimension(empty) == 3
    sat623 = make_character(
        [LaurentBinomial(V("x-1", "0"), FieldConst.one()),
         LaurentBinomial(V("-1", "1"), FieldConst.one())],
        ID,
        2,
    )
    assert dimension(sat623) == 0
    not_prime = make_character([L("y1^(2) - 4", 1)], ID, 1)
    with pytest.raises(NotReflexivePrime):
        dimension(not_prime)


def _count_completions(monkeypatch):
    """Record the inputs of every `_complete` call as a hashable key."""
    import sigma_binomial.zx_lattice as zx

    keys = []
    original = zx._complete

    def counted(inputs, track, *args, **kwargs):
        keys.append((track, tuple((it.vec.entries, it.expr) for it in inputs)))
        return original(inputs, track, *args, **kwargs)

    monkeypatch.setattr(zx, "_complete", counted)
    return keys


def test_dec_laurent_completes_each_support_set_once(monkeypatch):
    # criterion-9 seed 13, trial 101: 27 components from a deep branch tree
    n, system, sigma = list(laurent_systems())[101]
    keys = _count_completions(monkeypatch)
    comps = dec_laurent(system, sigma, n)
    assert len(comps) == 27
    assert keys and len(set(keys)) == len(keys)


def test_make_character_one_tracked_completion(monkeypatch):
    sys716, n = parse_laurent_system(SYS_716)
    keys = _count_completions(monkeypatch)
    rho = make_character(sys716, ID, n)
    assert not is_unit(rho)
    assert len(keys) == 1 and keys[0][0] is True


def _check_decomposition(n, system, sigma, rng):
    """(proper, agreeing values) after checking that the perfect closure is
    the intersection of its reflexive prime components."""
    closure = perfect_closure(system, sigma, n)
    comps = dec_laurent(system, sigma, n)
    assert is_unit(closure) == (not comps), system
    assert len(set(comps)) == len(comps), system
    if not comps:
        return 0, 0
    agreeing = 0
    for b in closure.binomials:
        assert all(member(b, rho) for rho in comps), (system, str(b))
    # f from the components' lattices, so that some agree, and at random
    cols = [g for rho in comps for g in rho.basis.columns]
    fs = [rand_vec(rng, n, 2, 3) for _ in range(4)]
    for _ in range(12):
        f = LatVec.zero(n)
        for g in rng.sample(cols, min(2, len(cols))):
            f = f + rng.randint(-2, 2) * g
        fs.append(f)
    for f in fs:
        values = [rho.value(f) for rho in comps]
        value = closure.value(f)
        if value is not None:
            assert values == [value] * len(comps), (system, f)
        if values[0] is not None and values.count(values[0]) == len(values):
            agreeing += 1
            assert value == values[0], (system, f)
    return 1, agreeing


def test_decomposition_oracle():
    """The perfect closure is the intersection of its reflexive prime
    components (the paper's decomposition theorem), checked on the
    criterion-9 Laurent family with a per-system deadline."""
    rng = random.Random(5)
    proper = agreeing = 0
    for n, system, sigma in laurent_systems():
        start = time.perf_counter()
        p, a = _check_decomposition(n, system, sigma, rng)
        proper, agreeing = proper + p, agreeing + a
        assert time.perf_counter() - start < 2.0, system
    assert proper and agreeing, (proper, agreeing)


def test_decomposition_oracle_larger_family():
    """The same checks on n = 3-5 variables, 2-5 binomials and exponents
    of degree <= 3.  Here constants carry integer exponents up to about
    10^25, which print as p^(e); multiplied out, they made printing (and
    so dec_laurent's sort) never end or pass Python's int-to-str digit
    limit."""
    rng = random.Random(5)
    proper = agreeing = refused = 0
    for n, system, sigma in laurent_systems(21, 60, nvars=(3, 5), sizes=(2, 5), maxdeg=3):
        start = time.perf_counter()
        try:
            p, a = _check_decomposition(n, system, sigma, rng)
            proper, agreeing = proper + p, agreeing + a
        except RuntimeError as exc:
            # dec_laurent's budget: the branch tree starts at the reflexive
            # closure, whose witness orders can multiply past the limit
            assert "root choices" in str(exc), system
            refused += 1
        assert time.perf_counter() - start < 2.0, system
    assert proper and agreeing and refused <= 1, (proper, agreeing, refused)
