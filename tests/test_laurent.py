"""Tests for Laurent binomial ideals: characters, closures, decomposition."""

import random
import time
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import V, laurent_systems, rand_vec, truncated_kernel
from sigma_binomial.binomial import dec_binomial
from sigma_binomial.constants import (
    FieldConst, SigmaConfig, const_from_str, kth_roots, o_m, pow_zx, principal_root,
)
from sigma_binomial.polyzx import IntPoly, poly_from_str
from sigma_binomial.saturation import is_saturated, m_shift
from sigma_binomial.zx_lattice import DimensionError, LatVec, ghnf, gker, lattice_equal
from sigma_binomial.laurent import (
    UNIT,
    LaurentBinomial,
    _apply,
    _reflexive_forced,
    _wellmixed_forced,
    NotABinomial,
    NotReflexivePrime,
    PartialCharacter,
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
# the larger family of the decomposition-oracle tests
LARGER = dict(seed=21, trials=60, nvars=(3, 5), sizes=(2, 5), maxdeg=3)


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
    # a zero second exponent is not subtracted, so only the check catches it
    with pytest.raises(DimensionError):
        normalize_binomial(one, V("1"), one, V("0", "0"))


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


def test_make_character_rejects_empty_and_mixed_systems():
    with pytest.raises(ValueError):
        make_character([], ID)  # no binomial to read the dimension from
    with pytest.raises(DimensionError):
        make_character([L("y1 - 1", 1), L("y2 - 1", 2)], ID)
    with pytest.raises(DimensionError):
        make_character([L("y1 - 1", 1)], ID, 2)
    basis = make_character([L("y1 - 1", 1)], ID).basis
    with pytest.raises(ValueError, match="one constant per basis column"):
        PartialCharacter(ID, basis, ())
    with pytest.raises(TypeError):  # no n of its own besides the basis's
        PartialCharacter(5, ID, basis, ())


def test_member_of_a_zero_support():
    """Y^0 - c lies in a proper ideal exactly when c = 1; a zero support
    of another dimension is an error, as a nonzero one is."""
    sys716, n = parse_laurent_system(SYS_716)
    for sigma in (ID, CONJ):
        rho = make_character(sys716, sigma, n)
        assert member(LaurentBinomial(LatVec.zero(n), FieldConst.one()), rho)
        assert not member(LaurentBinomial(LatVec.zero(n), const_from_str("2")), rho)
        with pytest.raises(DimensionError):
            member(LaurentBinomial(LatVec.zero(n + 1), FieldConst.one()), rho)


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


def _close_to_fixpoint(binomials, sigma, n, *steps):
    """The closures as a fixpoint: adjoin the forced binomials of the first
    step that has any, until none has; UNIT as soon as the ideal is
    improper."""
    rho = make_character(binomials, sigma, n)
    while not is_unit(rho):
        for step in steps:
            forced = step(rho)
            if forced:
                break
        else:
            return rho
        rho = make_character(list(rho.binomials) + forced, sigma, rho.basis.n)
    return UNIT


@pytest.mark.parametrize("family", [{}, LARGER], ids=["default", "larger"])
def test_closures_match_the_fixpoint_loop(family):
    """One well-mixed round gives the well-mixed and perfect closures that
    adjoining forced binomials until none is left gives, under both
    sigma."""
    changed = 0
    for n, system, _ in laurent_systems(**family):
        for sigma in (ID, CONJ):
            wm = wellmixed_closure(system, sigma, n)
            assert wm == _close_to_fixpoint(system, sigma, n, _wellmixed_forced), system
            pf = perfect_closure(system, sigma, n)
            assert pf == _close_to_fixpoint(
                system, sigma, n, _reflexive_forced, _wellmixed_forced), system
            changed += wm != make_character(system, sigma, n)
    assert changed


def test_closure_of_a_proper_ideal_calls_sat_z_once(monkeypatch):
    """The well-mixed and perfect closures take sat_Z once, in their one
    well-mixed round: no second round checks that nothing more is
    forced."""
    import sigma_binomial.laurent as laurent_mod

    calls = []
    original = laurent_mod.saturation.sat_z

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(laurent_mod.saturation, "sat_z", counted)
    forced = 0
    for n, system, _ in laurent_systems():
        for sigma in (ID, CONJ):
            rho = make_character(system, sigma, n)
            if is_unit(rho):
                continue
            calls.clear()
            # where the round adjoins something, the fixpoint loop took
            # sat_Z a second time to check the result
            forced += wellmixed_closure(system, sigma, n) != rho
            assert len(calls) == 1, ("well-mixed", sigma, system)
            calls.clear()
            perfect_closure(system, sigma, n)
            assert len(calls) == 1, ("perfect", sigma, system)
    assert forced


def test_wellmixed_root_independence(monkeypatch):
    """The well-mixed and perfect closures do not depend on which q-th
    root the well-mixed step takes: with each principal root turned by
    zeta_q, they are unchanged, on y1^(2) - 4, Example 5.22 and the
    criterion-9 Laurent family under both sigma."""
    import sigma_binomial.laurent as laurent_mod

    systems = [parse_laurent_system(text)[::-1] for text in ("y1^(2) - 4", SYS_522)]
    systems += [(n, system) for n, system, _ in laurent_systems()]
    cases = [(n, system, sigma) for n, system in systems for sigma in (ID, CONJ)]

    def closures():
        return [(wellmixed_closure(system, sigma, n), perfect_closure(system, sigma, n))
                for n, system, sigma in cases]

    base = closures()
    original = laurent_mod.principal_root
    turned = []

    def rotated(c, k):
        turned.append(k > 1)
        return original(c, k) * FieldConst.root_of_unity(k)

    monkeypatch.setattr(laurent_mod, "principal_root", rotated)
    assert closures() == base
    assert sum(turned) > 100, sum(turned)


def test_wellmixed_depends_on_the_constants():
    """L = <2, x - 1> = <2, x + 1> is M-saturated under both sigma, yet
    whether I(rho) is well-mixed depends on its constants: with
    y1^(2) = -1, the forced binomial is y1^(x - eps) - 1, which
    y1^(x - 1) = -1 contradicts under id and y1^(x + 1) = -1 under conj."""
    lattice = [V("2"), V("x-1")]
    assert all(is_saturated(ghnf(lattice, 1), "m", sigma) for sigma in (ID, CONJ))
    minus, _ = parse_laurent_system("y1^(2) + 1\ny1^(x-1) + 1")
    plus, _ = parse_laurent_system("y1^(2) + 1\ny1^(x+1) + 1")
    for sigma, bad, good in ((ID, minus, plus), (CONJ, plus, minus)):
        for system, wellmixed in ((bad, False), (good, True)):
            rho = make_character(system, sigma, 1)
            assert lattice_equal(rho.basis, lattice)
            assert is_wellmixed(rho) is wellmixed, (sigma, system)
            closure = wellmixed_closure(system, sigma, 1)
            assert closure == rho if wellmixed else is_unit(closure), (sigma, system)


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
    # n is the basis's: y1 - 2 with n = 2 leaves one free variable
    one_of_two = make_character([L("y1 - 2", 2)], ID, 2)
    assert one_of_two.basis.n == 2 and dimension(one_of_two) == 1


@pytest.mark.parametrize("sigma", ["conj", "id"])
def test_a_sigma_that_is_no_sigma_config_raises(sigma):
    """Every reader of the automorphism goes through SigmaConfig.eps, so
    a plain string raises there rather than reading as one automorphism
    in one place and as the other in the next."""
    calls = [
        lambda: pow_zx(FieldConst.root_of_unity(3), IntPoly.term(1, 1), sigma),
        lambda: o_m(3, sigma),
        lambda: m_shift(sigma),
    ]
    for call in calls:
        with pytest.raises(AttributeError, match="eps"):
            call()
    # a character refuses it when it is built, before any constant is raised
    with pytest.raises(TypeError, match="SigmaConfig"):
        perfect_closure([L("y1^(x) - zeta(3)", 1)], sigma, 1)


def test_a_character_is_built_only_with_a_sigma_config():
    """Where no constant is ever raised to a Z[x]-exponent, a string sigma
    used to pass unnoticed: the empty system's character held it."""
    calls = [
        lambda: make_character([], "conj", 2),
        lambda: dec_laurent([], "conj", 1),
        lambda: dec_binomial([], "conj", 1),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="SigmaConfig"):
            call()


def _count_completions(monkeypatch):
    """Record every `_complete` call as its input vectors and, per
    `_tracked_extend` call that laurent makes, its (basis, new supports)
    and the number of completions it ran."""
    import sigma_binomial.laurent as laurent_mod
    import sigma_binomial.zx_lattice as zx

    keys, extensions = [], []
    complete, extend = zx._complete, zx._tracked_extend

    def counted_complete(inputs):
        keys.append(tuple(it.vec.entries for it in inputs))
        return complete(inputs)

    def counted_extend(basis, new):
        before = len(keys)
        out = extend(basis, new)
        runs = len(keys) - before
        extensions.append(((basis.columns, tuple(v.entries for v in new)), runs))
        return out

    monkeypatch.setattr(zx, "_complete", counted_complete)
    monkeypatch.setattr(laurent_mod, "_tracked_extend", counted_extend)
    return keys, extensions


def test_dec_laurent_completes_each_support_set_once(monkeypatch):
    # criterion-9 seed 13, trial 101: 27 components from a deep branch tree;
    # each level extends its basis once, not once per character on it
    n, system, sigma = list(laurent_systems())[101]
    keys, extensions = _count_completions(monkeypatch)
    comps = dec_laurent(system, sigma, n)
    assert len(comps) == 27
    args = [a for a, _ in extensions]
    assert len(args) > 1 and len(set(args)) == len(args)
    assert all(runs <= 1 for _, runs in extensions)
    assert len(set(keys)) == len(keys)


def test_make_character_certifies_distinct_leading_rows(monkeypatch):
    sys716, n = parse_laurent_system(SYS_716)
    keys, extensions = _count_completions(monkeypatch)
    rho = make_character(sys716, ID, n)
    assert not is_unit(rho)
    # Example 7.16's supports have distinct leading rows, so one extension
    # of the empty character certifies them and nothing completes
    assert [runs for _, runs in extensions] == [0] and keys == []


def test_perfect_closure_at_most_one_completion_per_character(monkeypatch):
    """Every character of the closures is one extension, which runs at
    most one completion and none when its certificate holds; nothing
    runs a tracked kernel (``gker`` or ``ghnf_track``), as the M step's
    sat_Z comes from the untracked Z loop."""
    import sigma_binomial.zx_lattice as zx

    keys, extensions = _count_completions(monkeypatch)

    def untracked(*args):
        raise AssertionError("tracked kernel in a closure")

    monkeypatch.setattr(zx, "_tracked_extend", untracked)
    for n, system, _ in laurent_systems():
        for sigma in (ID, CONJ):
            perfect_closure(system, sigma, n)
    runs = [r for _, r in extensions]
    assert set(runs) == {0, 1}, runs


def _extension_outcome(basis, new, completions):
    """Check _tracked_extend(basis, new) against a completion from scratch
    of the same generators' stacked columns and return how it answered."""
    import sigma_binomial.zx_lattice as zx

    gens = list(basis.columns) + list(new)
    before = len(completions)
    out, exprs, relations, completed = zx._tracked_extend(basis, new)
    runs = len(completions) - before
    assert completed == (runs == 1), (basis, new)
    ref, _, kernel = zx._split(zx._complete([zx._Input(v) for v in zx._stacked(gens)]), len(gens), basis.n)
    assert out == ref, (basis, new)
    assert ghnf(relations, len(gens)).columns == tuple(kernel), (basis, new)
    for col, expr in zip(out.columns, exprs):
        assert sum((q * g for q, g in zip(expr, gens)), LatVec.zero(basis.n)) == col
    assert runs <= 1
    if runs:
        return "completed"
    return "nothing new" if out == basis else "certified"


@pytest.mark.parametrize("family", [{}, LARGER], ids=["default", "larger"])
def test_tracked_extend_matches_the_tracked_kernel(monkeypatch, family):
    """Every extension that the perfect closure and dec_laurent make, and
    each of their bases extended by a lattice vector and a zero vector:
    the basis is that of a completion from scratch of the stacked columns,
    the relations' GHNF is its kernel and each expression rebuilds its
    column.  Nothing new, a certificate and one completion each occur."""
    import sigma_binomial.laurent as laurent_mod
    import sigma_binomial.zx_lattice as zx

    calls, real_extend, real_complete = {}, zx._tracked_extend, zx._complete

    def recorded(basis, new):
        calls.setdefault((basis.columns, tuple(new)), (basis, new))
        return real_extend(basis, new)

    monkeypatch.setattr(laurent_mod, "_tracked_extend", recorded)
    for n, system, sigma in laurent_systems(**family):
        for sg in (ID, CONJ) if not family else (sigma,):
            perfect_closure(system, sg, n)
            try:
                dec_laurent(system, sg, n)
            except RuntimeError as exc:
                # dec_laurent's budget on the proper children of a round,
                # which no system of either family reaches
                assert "root choices" in str(exc), system
    cases = list(calls.values())
    for basis in {basis.columns: basis for basis, _ in cases if basis.columns}.values():
        last = basis.columns[-1]
        cases.append((basis, [last.shift(1) - basis.columns[0], LatVec.zero(basis.n)]))
    completions = []
    monkeypatch.setattr(zx, "_complete", lambda *a, **k: completions.append(1) or real_complete(*a, **k))
    outcomes = {_extension_outcome(basis, new, completions) for basis, new in cases}
    assert outcomes == {"nothing new", "certified", "completed"}, outcomes


def _check_decomposition(n, system, sigma, rng):
    """(proper, agreeing values) after checking that the perfect closure is
    the intersection of its reflexive prime components."""
    closure = perfect_closure(system, sigma, n)
    comps = dec_laurent(system, sigma, n)
    assert is_unit(closure) == (not comps), system
    assert len(set(comps)) == len(comps), system
    if not comps:
        return 0, 0
    assert is_perfect(closure), system
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
            # dec_laurent's budget counts the proper children of a round,
            # and no system of this family reaches it
            assert "root choices" in str(exc), system
            refused += 1
        assert time.perf_counter() - start < 2.0, system
    assert proper and agreeing and refused <= 1, (proper, agreeing, refused)


def test_dec_laurent_builds_only_proper_children():
    """System 16 of the larger family: its reflexive closure holds
    y1^(664547129) - 1, so a round adjoins a witness of that order to each
    of 2 characters, and listing every root there would take 1,329,094,258
    root choices.  Only the proper ones are built: the 2 components."""
    n, system, sigma = list(laurent_systems(**LARGER))[16]
    assert member(L("y1^(664547129) - 1", n), reflexive_closure(system, sigma, n))
    comps = dec_laurent(system, sigma, n)
    assert ["; ".join(str(b) for b in rho.binomials) for rho in comps] == [
        "y1 - 1; y2 - zeta(6); y3 - 2^(-1/2)*zeta(4)",
        "y1 - 1; y2 - zeta(6); y3 - 2^(-1/2)*zeta(4)^3",
    ]


def _check_roots(relations, rho, w, out, rng):
    """_proper_roots' answer out for one node against the kth_roots filter
    of a generate-and-discard tree: the roots of rho(k h) that every
    relation sends to 1.  Past k = 4096 the roots are not all listed:
    then the coset's roots are checked when it has at most 4096, and 64
    u drawn from [0, k) must be accepted exactly on the coset."""
    k, value = w.k, _apply(w.e, rho.constants, rho.sigma)

    def accepted(root):
        consts = rho.constants + (root,)
        return all(_apply(r.entries, consts, rho.sigma).is_one() for r in relations)

    def coset():
        return [] if out is None else [out[0] * FieldConst.root_of_unity(k, u) for u in range(out[1], k, out[2])]

    if k <= 4096:
        assert coset() == [c for c in kth_roots(value, k) if accepted(c)]
        return
    assert out is None or out[0] == principal_root(value, k)
    if out is not None and k // out[2] <= 4096:
        assert all(accepted(root) for root in coset())
    for u in (rng.randrange(k) for _ in range(64)):
        root = principal_root(value, k) * FieldConst.root_of_unity(k, u)
        assert accepted(root) == (out is not None and u % out[2] == out[1]), u


@pytest.mark.parametrize("family", [{}, LARGER], ids=["default", "larger"])
def test_proper_roots_against_brute_force(monkeypatch, family):
    """Each round of dec_laurent lists exactly the roots that its
    relations accept (``_check_roots``), and the count its budget checks
    is the number of children it builds; after the last round, the
    components.  Under both automorphisms on the criterion-9 family."""
    import sigma_binomial.laurent as laurent_mod

    events, rng = [], random.Random(3)
    real_roots, real_with = laurent_mod._proper_roots, laurent_mod._with_constants

    def recorded_roots(relations, rho, w):
        out = real_roots(relations, rho, w)
        events.append((relations, rho, w, out))
        return out

    monkeypatch.setattr(laurent_mod, "_proper_roots", recorded_roots)
    monkeypatch.setattr(laurent_mod, "_with_constants", lambda *a: events.append(None) or real_with(*a))
    rounds = 0
    for n, system, sigma in laurent_systems(**family):
        for sg in (ID, CONJ) if not family else (sigma,):
            events.clear()
            comps = dec_laurent(system, sg, n)
            # [nodes, children built] per round; the characters that the
            # reflexive closure builds come before the first round
            groups = []
            for event in events:
                if event is None:
                    if groups:
                        groups[-1][1] += 1
                    continue
                if not groups or groups[-1][1]:
                    groups.append([[], 0])
                groups[-1][0].append(event)
                _check_roots(*event, rng)
            for nodes, built in groups:
                assert sum(w.k // out[2] for _, _, w, out in nodes if out) == built, system
            assert not groups or groups[-1][1] == len(comps), system
            rounds += len(groups)
    assert rounds


def _reference_product(exponents, consts, sigma):
    """prod consts[l]^exponents[l], multiplied out left to right by pow_zx."""
    acc = FieldConst.one()
    for q, c in zip(exponents, consts):
        if q:
            acc = acc * pow_zx(c, q, sigma)
    return acc


_radicals = st.dictionaries(
    st.sampled_from([2, 3, 5, 7]),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
    max_size=3,
)
_turns = st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 2, 3, 4, 6, 12]))
# the empty radical part and the zero turn are drawn often: turn-only,
# radical-only and trivial constants
_consts = st.builds(FieldConst, _radicals, _turns)
_exponents = st.builds(IntPoly, st.lists(st.integers(-3, 3), max_size=4))


@settings(max_examples=200, deadline=timedelta(seconds=2))
@given(
    st.lists(st.tuples(_exponents, _consts), max_size=5),
    st.sampled_from([ID, CONJ]),
    st.booleans(),
)
def test_apply_is_the_pow_zx_product(pairs, sigma, cancel):
    """One pass of _apply gives the left-to-right product of pow_zx, in
    normal form; with every factor's inverse appended it gives 1."""
    if cancel:
        pairs = pairs + [(q, FieldConst.one() / c) for q, c in pairs]
    exponents = [q for q, _ in pairs]
    consts = [c for _, c in pairs]
    got = _apply(exponents, consts, sigma)
    want = _reference_product(exponents, consts, sigma)
    assert got == want and hash(got) == hash(want)
    assert got.factors == want.factors and got.turn == want.turn
    primes = [p for p, _ in got.factors]
    assert primes == sorted(set(primes)) and all(e for _, e in got.factors)
    assert 0 <= got.turn < 1
    if cancel:
        assert got.is_one()


@pytest.mark.parametrize("family", [{}, LARGER], ids=["default", "larger"])
def test_properness_against_lifted_relations(family):
    """make_character returns UNIT exactly when some Z[x]-relation among
    the supports sends the constants to something other than 1.  The
    relations are a Z-basis of the kernel truncated at the largest degree
    D of gker's generators, by ker_int on the flattened shifts: they lie
    in the kernel, and every generator is a Z-combination of them."""
    outcomes = set()
    for n, system, sigma in laurent_systems(**family):
        consts = [b.constant for b in system]
        supports = [b.support for b in system]
        degree = max((x.max_degree() for x in gker(supports)), default=0)
        relations = truncated_kernel(supports, degree)
        improper = any(
            not _reference_product(rel.entries, consts, sigma).is_one() for rel in relations
        )
        assert is_unit(make_character(system, sigma, n)) == improper, system
        outcomes.add(improper)
    assert outcomes == {True, False}


def test_zero_supports():
    """A zero-support binomial 1 - c is dropped when c = 1 and makes the
    ideal the unit ideal otherwise, wherever it stands in the system."""
    sys716, n = parse_laurent_system(SYS_716)
    zero = LatVec.zero(n)
    for sigma in (ID, CONJ):
        rho = make_character(sys716, sigma, n)
        for pos in range(len(sys716) + 1):
            def with_zero(c):
                return sys716[:pos] + [LaurentBinomial(zero, c)] + sys716[pos:]

            assert make_character(with_zero(FieldConst.one()), sigma, n) == rho
            for text in ("2", "-1", "zeta(3)", "2^(1/2)*zeta(4)"):
                assert is_unit(make_character(with_zero(const_from_str(text)), sigma, n))
    only = [LaurentBinomial(zero, FieldConst.one())] * 2
    assert make_character(only, ID, n) == make_character([], ID, n)
    assert is_unit(make_character(only + [LaurentBinomial(zero, const_from_str("3"))], ID, n))
